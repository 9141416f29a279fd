"""Hill and weighted-spacing estimators against brute-force references."""

import math
import re

import numpy as np
import pytest

from plevt import (
    DegenerateSampleError,
    DomainError,
    Params,
    SeedSpec,
    SortedSample,
    WeightFunction,
    check_dh_conditions,
    check_k1,
    default_k,
    dh_statistic,
    hill,
    sample_mixture,
    spacings,
    standardize_dh,
)
from plevt.sampling import top_order_statistics_rows
from plevt.tail import SpacingPlan

from oracles import dh_naive, hill_naive


def _sorted(values):
    return SortedSample(np.sort(np.asarray(values, dtype=np.float64)))


CANON = _sorted([0.1, 0.5, 1.2, 2.0, 3.5])


# ---------------------------------------------------------------------------
# Hill


def test_hill_hand_oracle():
    # (1*1.5 + 2*0.8 + 3*0.7)/3 = 5.2/3
    assert hill(CANON, 3) == pytest.approx(5.2 / 3.0, rel=1e-14)


def test_hill_unit_spacings():
    # spacings 1/j from the top make every summand equal 1
    tops = [10.0]
    for j in range(1, 6):
        tops.append(tops[-1] - 1.0 / j)
    s = _sorted(tops)
    assert hill(s, 5) == pytest.approx(1.0, rel=1e-13)


def test_hill_k_equals_one():
    assert hill(CANON, 1) == pytest.approx(1.5, rel=1e-15)


def test_hill_k_bounds():
    with pytest.raises(DomainError):
        hill(CANON, 0)
    with pytest.raises(DomainError):
        hill(CANON, 5)


def test_hill_matches_brute_force():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        values = np.sort(rng.gamma(2.0, 1.5, n))
        s = _sorted(values)
        k = int(rng.integers(1, n))
        assert hill(s, k) == pytest.approx(hill_naive(s.values, k), rel=1e-12)


def test_hill_location_invariant_scale_equivariant():
    base = hill(CANON, 3)
    shifted = _sorted(CANON.values + 100.0)
    scaled = _sorted(CANON.values * 7.0)
    assert hill(shifted, 3) == pytest.approx(base, rel=1e-10)
    assert hill(scaled, 3) == pytest.approx(7.0 * base, rel=1e-13)


# ---------------------------------------------------------------------------
# weight functions


def test_weight_identity_and_power():
    assert np.array_equal(WeightFunction.identity().weights(4), [1.0, 2.0, 3.0, 4.0])
    w = WeightFunction.power(0.5).weights(4)
    np.testing.assert_allclose(w, np.sqrt([1.0, 2.0, 3.0, 4.0]), rtol=1e-15)
    np.testing.assert_allclose(
        WeightFunction.log1p().weights(3), np.log([2.0, 3.0, 4.0]), rtol=1e-15
    )


def test_weight_from_spec():
    assert WeightFunction.from_spec("identity").label == "identity"
    assert WeightFunction.from_spec("pow:0.5").label == "pow:0.5"
    assert WeightFunction.from_spec("log1p").label == "log1p"
    with pytest.raises(DomainError):
        WeightFunction.from_spec("cubic")
    with pytest.raises(DomainError):
        WeightFunction.from_spec("pow:abc")


def test_weight_table_from_csv(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("1.0\n2.0\n4.0\n")
    w = WeightFunction.from_spec(f"table:{path}")
    np.testing.assert_array_equal(w.weights(3), [1.0, 2.0, 4.0])
    np.testing.assert_array_equal(w.weights(2), [1.0, 2.0])
    with pytest.raises(DomainError):
        w.weights(4)  # table shorter than k


def test_weight_table_requires_positive():
    with pytest.raises(DomainError):
        WeightFunction.table(np.array([1.0, -2.0]), "bad")


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1e308])
def test_power_weights_must_be_finite_and_positive(a):
    # 2**a is NaN, inf, 0 or an overflow: refused, never passed on as NaN
    with pytest.raises(DomainError):
        WeightFunction.power(a).weights(4)
    with pytest.raises(DomainError):
        check_dh_conditions(WeightFunction.power(a), 1000, 4, 1.0)
    if not math.isfinite(a):
        # 1**a == 1, so at k = 1 only the exponent itself shows the fault
        with pytest.raises(DomainError):
            WeightFunction.power(a).weights(1)
        with pytest.raises(DomainError):
            check_dh_conditions(WeightFunction.from_spec(f"pow:{a}"), 1000, 1, 1.0)


# ---------------------------------------------------------------------------
# weighted spacing statistic


def test_dh_matches_brute_force():
    rng = np.random.default_rng(2717)
    weight_choices = [
        WeightFunction.identity(),
        WeightFunction.power(0.5),
        WeightFunction.log1p(),
    ]
    for _ in range(60):
        n = int(rng.integers(3, 13))
        s = _sorted(rng.exponential(1.0, n) + 0.01)
        k = int(rng.integers(1, n))
        f = weight_choices[int(rng.integers(0, 3))]
        sv = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        ts = dh_statistic(s, f, k, sv)
        t_ref, a_ref, sn_ref, bn_ref = dh_naive(s.values, list(f.weights(k)), k, sv)
        assert ts.t_n == pytest.approx(t_ref, rel=1e-12)
        assert ts.a_n == pytest.approx(a_ref, rel=1e-12)
        assert ts.s_n == pytest.approx(sn_ref, rel=1e-12)
        assert ts.b_n == pytest.approx(bn_ref, rel=1e-12)


def test_dh_closed_form_normalizers_identity_s1():
    # f(j)=j, s=1: a_n = k, s_n = sqrt(k), b_n = 1/sqrt(k)
    k = 9
    ts = dh_statistic(_sorted(np.arange(1.0, 12.0)), WeightFunction.identity(), k, 1.0)
    assert ts.a_n == pytest.approx(float(k), rel=1e-14)
    assert ts.s_n == pytest.approx(math.sqrt(k), rel=1e-14)
    assert ts.b_n == pytest.approx(1.0 / math.sqrt(k), rel=1e-14)


def test_dh_identity_s1_reduces_to_hill():
    ts = dh_statistic(CANON, WeightFunction.identity(), 3, 1.0)
    h = hill(CANON, 3)
    assert ts.hill == h
    assert ts.t_n / 3.0 == h  # bit-exact: same summation kernel
    assert ts.dh_estimate == pytest.approx(h, rel=1e-14)


def test_dh_estimate_power_mean():
    # (t_n/a_n)^(1/s) inverts the power weighting
    ts = dh_statistic(CANON, WeightFunction.identity(), 3, 2.0)
    assert ts.dh_estimate == pytest.approx((ts.t_n / ts.a_n) ** 0.5, rel=1e-14)


def test_dh_rejects_bad_power():
    with pytest.raises(DomainError):
        dh_statistic(CANON, WeightFunction.identity(), 3, 0.5)
    with pytest.raises(DomainError):
        dh_statistic(CANON, WeightFunction.identity(), 3, math.inf)


def test_overflowing_normalizers_are_refused():
    # pow:160 weights are finite at k = 20 but their squares in s_n are not,
    # Gamma(2s+1) leaves the double range past s = 85.3 and Gamma(s+1) past
    # s = 170.6
    top = np.arange(1.0, 101.0)
    for f, s in ((WeightFunction.power(160.0), 1.0), (WeightFunction.identity(), 86.0),
                 (WeightFunction.identity(), 171.0), (WeightFunction.identity(), 1e300)):
        with pytest.raises(DomainError):
            check_dh_conditions(f, 1000, 20, s)
        with pytest.raises(DomainError):
            SpacingPlan.build(f, 20, s).rows(top)
    diag = check_dh_conditions(WeightFunction.identity(), 1000, 20, 85.0)
    assert all(math.isfinite(v) and v > 0.0 for v in diag.values())


def test_statistic_domain_does_not_need_s_n_at_s1():
    # pow:120 at k = 20: s_n(f, 3) is finite but s_n(f, 1) squares past the
    # double range, so only the condition check, which needs s_n(f, 1), refuses
    s = _sorted(np.arange(1.0, 101.0))
    ts = dh_statistic(s, WeightFunction.power(120.0), 20, 3.0)
    assert all(math.isfinite(v) for v in (ts.t_n, ts.a_n, ts.s_n, ts.b_n, ts.dh_estimate))
    with pytest.raises(DomainError):
        check_dh_conditions(WeightFunction.power(120.0), 1000, 20, 3.0)


def test_overflowing_spacing_sum_is_refused():
    # spacings of 1e5 to the power 70 leave the double range in t_n
    s = _sorted(np.arange(1.0, 101.0) * 1e5)
    with pytest.raises(DomainError):
        dh_statistic(s, WeightFunction.identity(), 20, 70.0)
    top = np.stack([np.arange(1.0, 101.0), np.arange(1.0, 101.0) * 1e5])
    with pytest.raises(DomainError):
        SpacingPlan.build(WeightFunction.identity(), 20, 70.0).rows(top)


def test_overflowing_estimate_ratio_is_refused():
    # t_n = 1.44e308 and a_n = 0.005 are finite, but t_n / a_n is not
    s = _sorted([0.0] + [1.2e154] * 20)
    f = WeightFunction.table([1e-300] * 19 + [1.0])
    with pytest.raises(DomainError, match="t_n / a_n"):
        dh_statistic(s, f, 20, 2.0)


def test_dh_compares_k_with_n_before_building_weights(monkeypatch):
    # a k past the sample is refused before f(1..k) is allocated
    def weights(self, k):
        raise AssertionError(f"built {k} weights before k was compared with n")

    monkeypatch.setattr(WeightFunction, "weights", weights)
    with pytest.raises(DomainError, match=r"k must lie in \[1, n-1\]"):
        dh_statistic(_sorted(np.arange(1.0, 11.0)), WeightFunction.identity(), 10, 1.0)


def test_dh_degenerate_sample():
    s = SortedSample(np.full(6, 2.5))
    with pytest.raises(DegenerateSampleError):
        dh_statistic(s, WeightFunction.identity(), 3, 1.0)


def test_hill_degenerate_sample():
    # all top-k spacings zero: hill refuses like dh_statistic
    s = SortedSample(np.array([1.0, 2.5, 2.5, 2.5, 2.5]))
    with pytest.raises(DegenerateSampleError):
        hill(s, 3)
    with pytest.raises(DegenerateSampleError):
        dh_statistic(s, WeightFunction.identity(), 3, 2.0)
    assert hill(s, 4) == pytest.approx(4.0 * 1.5 / 4.0, rel=1e-15)


@pytest.mark.parametrize("f, s", [
    (WeightFunction.identity(), 2.0),
    (WeightFunction.power(0.5), 1.5),
    (WeightFunction.log1p(), 1.0),
    (WeightFunction.identity(), 3.0),
])
def test_row_statistics_match_one_sample_loop(f, s):
    # reference: the one-sample formulas row by row, with Python's float pow
    # for the estimate; the row form and dh_statistic on each row as one
    # sample must reproduce them bit for bit
    k = 20
    tops = top_order_statistics_rows(10_000, k, Params(1.0, 2.0), SeedSpec(9), 1000)
    ts = SpacingPlan.build(f, k, s).rows(tops)
    z_a, z_b = standardize_dh(ts, 0.7)
    j = np.arange(1.0, k + 1.0)
    for r, row in enumerate(tops):
        sp = np.diff(row)[::-1].copy()
        t = float(np.sum(f.weights(k) * sp**s))
        est = (t / ts.a_n) ** (1.0 / s)
        assert ts.t_n[r] == t
        assert dh_statistic(_sorted(row), f, k, s).t_n == t
        assert ts.hill[r] == float(np.sum(j * sp)) / k
        assert ts.dh_estimate[r] == est
        assert z_a[r] == (t - 0.7**s * ts.a_n) / ts.s_n
        assert z_b[r] == (ts.a_n / ts.s_n) * (est - 0.7)


def test_row_statistics_refuse_a_degenerate_row():
    tops = np.array([[0.0, 1.0, 2.0, 4.0], [1.0, 2.5, 2.5, 2.5]])
    with pytest.raises(DegenerateSampleError):
        SpacingPlan.build(WeightFunction.identity(), 2, 1.0).rows(tops)


def test_standardize_dh_linearization():
    gamma = 0.5
    ts = dh_statistic(CANON, WeightFunction.identity(), 3, 1.0)
    z_a, z_b = standardize_dh(ts, gamma)
    assert z_a == pytest.approx((ts.t_n - gamma * ts.a_n) / ts.s_n, rel=1e-14)
    assert z_b == pytest.approx(
        (ts.a_n / ts.s_n) * (ts.dh_estimate - gamma), rel=1e-14
    )


# ---------------------------------------------------------------------------
# rate conditions and schedules


def test_check_k1_value():
    assert check_k1(100_000, 7) == pytest.approx(7**0.75 / math.log(100_000), rel=1e-14)


def test_default_k_schedule():
    assert default_k(100_000) == 7
    assert default_k(100) >= 5
    # the schedule respects the growth condition across scales
    for n in (10**3, 10**5, 10**7):
        assert check_k1(n, default_k(n)) < 1.5


@pytest.mark.parametrize("value", [7.9, "200", True, math.inf, math.nan], ids=repr)
def test_counts_refuse_non_integers(value):
    for call in (lambda: default_k(value), lambda: check_k1(value, 7),
                 lambda: check_k1(100_000, value), lambda: WeightFunction.identity().weights(value)):
        with pytest.raises(DomainError, match=f"must be an integer, got {value!r}"):
            call()


@pytest.mark.parametrize("value", ["2", True, np.True_, None], ids=repr)
def test_power_s_refuses_non_reals(value):
    sample = _sorted(np.arange(1.0, 31.0))
    message = f"power s must be a real number, got {re.escape(repr(value))}"
    for call in (lambda: dh_statistic(sample, WeightFunction.identity(), 5, value),
                 lambda: SpacingPlan.build(WeightFunction.log1p(), 5, value)):
        with pytest.raises(DomainError, match=message):
            call()
    assert dh_statistic(sample, WeightFunction.identity(), 5, np.int64(2)).s == 2.0


@pytest.mark.parametrize("value", ["2", True, np.True_, None], ids=repr)
def test_weight_exponent_refuses_non_reals(value):
    message = f"weight exponent must be a real number, got {re.escape(repr(value))}"
    with pytest.raises(DomainError, match=message):
        WeightFunction.power(value)
    assert WeightFunction.power(np.int64(2)).label == WeightFunction.power(2.0).label == "pow:2"


@pytest.mark.parametrize("value", ["2", True, np.True_, 2.0, None], ids=repr)
def test_spacing_count_refuses_non_integers(value):
    # hill(sample, True) used to return the k = 1 value, and "2" a bare TypeError
    sample = _sorted(np.arange(1.0, 31.0))
    message = f"k must be an integer, got {re.escape(repr(value))}"
    for call in (lambda: hill(sample, value), lambda: spacings(sample, value)):
        with pytest.raises(DomainError, match=message):
            call()
    assert hill(sample, np.int64(2)) == hill(sample, 2)


def test_check_dh_conditions_keys_and_values():
    f = WeightFunction.identity()
    diag = check_dh_conditions(f, 100_000, 20, 2.0)
    assert set(diag) == {"ratio1", "bn", "growth"}
    # identity, s=2: s_n^2 = 20 * sum(1/j^2), a_n = 2*H_k
    harmonic = sum(1.0 / j for j in range(1, 21))
    sq = sum(1.0 / j**2 for j in range(1, 21))
    assert diag["bn"] == pytest.approx(1.0 / math.sqrt(20.0 * sq), rel=1e-12)
    assert diag["growth"] == pytest.approx(
        2.0 * harmonic / math.sqrt(20.0 * sq), rel=1e-12
    )
    # s_n(f, 1) is the statistic's own s_n at s = 1, to the bit (its variance
    # factor Gamma(3) - Gamma(2)**2 is 1 - 7e-16, not 1)
    top = _sorted(np.arange(1.0, 31.0))
    sn1, sn2 = (dh_statistic(top, f, 20, s).s_n for s in (1.0, 2.0))
    assert diag["ratio1"] == sn1 / (sn2 * math.log(100_000))


def test_bn_identity_s1_needs_k_twelve():
    # Lindeberg guard 1/sqrt(k) <= 0.3 first holds at k = 12
    f = WeightFunction.identity()
    assert check_dh_conditions(f, 10**5, 11, 1.0)["bn"] > 0.3
    assert check_dh_conditions(f, 10**5, 12, 1.0)["bn"] <= 0.3


# ---------------------------------------------------------------------------
# CI coverage (plug-in interval from the limit law)


def test_hill_ci_coverage():
    # n=1e5 at theta=2 (gamma=0.5), default k: the plug-in interval
    # H +- z * H/sqrt(k) should cover gamma in >= 90 of 100 seeded runs
    p = Params(2.0, 2.0)
    gamma = 0.5
    n = 100_000
    k = default_k(n)
    z = 1.959963984540054  # 97.5% normal quantile
    covered = 0
    for seed in range(100):
        s = sample_mixture(n, p, SeedSpec(9000 + seed))
        h = hill(s, k)
        half = z * h / math.sqrt(k)
        covered += int(h - half <= gamma <= h + half)
    assert covered >= 90, f"coverage {covered}/100"
