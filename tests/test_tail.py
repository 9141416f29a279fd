"""Hill and weighted-spacing estimators against brute-force references."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import plevt.tail
from plevt import (
    DegenerateSampleError,
    DomainError,
    Params,
    SeedSpec,
    SortedSample,
    WeightFunction,
    check_dh_conditions,
    default_k,
    dh_statistic,
    hill,
    sample_mixture,
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
            SpacingPlan.build(f, 1000, 20, s).sums(top)
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
        SpacingPlan.build(WeightFunction.identity(), 100, 20, 70.0).sums(top)


def test_overflowing_estimate_ratio_is_refused():
    # t_n = 1.44e308 and a_n = 0.005 are finite, but t_n / a_n is not
    s = _sorted([0.0] + [1.2e154] * 20)
    f = WeightFunction.table([1e-300] * 19 + [1.0])
    with pytest.raises(DomainError, match="t_n / a_n"):
        dh_statistic(s, f, 20, 2.0)


def test_dh_compares_k_with_n_before_building_weights():
    # a k past the sample is refused before f(1..k) is evaluated, by every
    # caller of the plan; at k = 10**12 f(1..k) would ask for 7.3 TiB
    sizes = []
    f = WeightFunction("counted", lambda j: sizes.append(j.size) or j)
    sample = _sorted(np.arange(1.0, 11.0))
    for k in (10, 10**12):
        for call in (lambda: dh_statistic(sample, f, k, 1.0),
                     lambda: check_dh_conditions(f, 10, k, 2.0),
                     lambda: SpacingPlan.build(f, 10, k, 2.0)):
            with pytest.raises(DomainError, match=r"k must lie in \[1, n-1\] = \[1, 9\]"):
                call()
    assert sizes == []
    check_dh_conditions(f, 10, 9, 2.0)
    assert sizes == [9]  # the counter sees a plan that is built


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
    # reference: the one-sample formula row by row; the row sums and the
    # one-sample statistics on each row must reproduce it bit for bit
    k = 20
    tops = top_order_statistics_rows(10_000, k, Params(1.0, 2.0), SeedSpec(9), 1000)
    plan = SpacingPlan.build(f, 10_000, k, s)
    t_rows = plan.sums(tops)
    assert t_rows.shape == (1000,)
    for row, t_row in zip(tops, t_rows):
        t = float(np.sum(f.weights(k) * np.diff(row)[::-1].copy()**s))
        assert t_row == t
        assert plan.statistics(row).t_n == t
        assert dh_statistic(_sorted(row), f, k, s).t_n == t


def test_row_statistics_refuse_a_degenerate_row():
    tops = np.array([[0.0, 1.0, 2.0, 4.0], [1.0, 2.5, 2.5, 2.5]])
    with pytest.raises(DegenerateSampleError):
        SpacingPlan.build(WeightFunction.identity(), 4, 2, 1.0).sums(tops)


def test_spacing_plan_refuses_rows_too_short_for_its_weights():
    # two values give one spacing, which numpy would broadcast over all five weights
    plan = SpacingPlan.build(WeightFunction.identity(), 10, 5, 1.0)
    short = np.array([[0.0, 1.0], [1.0, 3.0]])
    for call in (lambda: plan.sums(short), lambda: plan.statistics(short[0])):
        with pytest.raises(DomainError, match=r"k must lie in \[1, n-1\] = \[1, 1\], got 5"):
            call()


def test_underflowing_spacing_sum_is_not_a_zero_spacing():
    # spacings of 1e-200 are not zero, but their squares underflow to a t_n
    # of 0: a sum past the double range (DomainError), not a degenerate sample
    f = WeightFunction.identity()
    plan = SpacingPlan.build(f, 4, 2, 2.0)
    tiny = np.array([0.0, 1e-200, 2e-200, 3e-200])
    normal = np.array([[0.0, 1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 7.0]])
    assert plan.sums(normal).tolist() == [6.0, 17.0]
    for call in (lambda: dh_statistic(_sorted(tiny[:3]), f, 2, 2.0),
                 lambda: plan.statistics(tiny),
                 lambda: plan.sums(np.insert(normal, 1, tiny, axis=0))):
        with pytest.raises(DomainError, match="^weighted spacing sum underflows float64 at s = 2.0"):
            call()
    # a row whose spacings are all zero is degenerate, whatever the other rows do
    with pytest.raises(DegenerateSampleError):
        plan.sums(np.array([tiny, [1.0, 2.5, 2.5, 2.5]]))


def tolist_calls(source: str) -> list[int]:
    """Lines of ``source`` that call a ``tolist`` method."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "tolist")


def test_tolist_calls_are_found():
    source = "a = x.tolist()\nb = tolist(x)\nc = [r for r in np.ravel(t).tolist()]\n"
    assert tolist_calls(source) == [1, 3]


def test_spacing_statistics_make_no_python_list():
    # a block of replications is reduced by array calls alone: no row is
    # taken out of numpy to be worked on one Python float at a time
    assert tolist_calls(Path(plevt.tail.__file__).read_text(encoding="utf-8")) == []


def test_statistics_are_floats_with_the_root_estimate():
    # one sample's statistics are Python floats, not numpy scalars, and the
    # estimate is Python's float pow of t_n / a_n
    for f in (WeightFunction.identity(), WeightFunction.power(0.5), WeightFunction.log1p()):
        for s in (1.0, 1.5, 2.0, 3.0):
            ts = SpacingPlan.build(f, CANON.n, 3, s).statistics(CANON.values)
            fields = (ts.hill, ts.t_n, ts.a_n, ts.s_n, ts.b_n, ts.dh_estimate)
            assert all(type(v) is float for v in fields)
            assert ts.dh_estimate == (ts.t_n / ts.a_n) ** (1.0 / s)


# ---------------------------------------------------------------------------
# rate conditions and schedules


def _k1(n, k):
    return SpacingPlan.build(WeightFunction.identity(), n, k, 1.0).conditions()["k1"]


def test_check_k1_value():
    assert _k1(100_000, 7) == pytest.approx(7**0.75 / math.log(100_000), rel=1e-14)


def test_default_k_schedule():
    assert default_k(100_000) == 7
    assert default_k(100) >= 5
    # capped at n - 1, a valid spacing count; only n <= 5 is affected
    assert [default_k(n) for n in range(2, 8)] == [1, 2, 3, 4, 5, 5]
    # the schedule respects the growth condition across scales
    for n in (10**3, 10**5, 10**7):
        assert _k1(n, default_k(n)) < 1.5


@pytest.mark.parametrize("value", [7.9, "200", True, math.inf, math.nan], ids=repr)
def test_counts_refuse_non_integers(value):
    identity = WeightFunction.identity()
    for call in (lambda: default_k(value), lambda: SpacingPlan.build(identity, value, 7, 1.0),
                 lambda: SpacingPlan.build(identity, 100_000, value, 1.0),
                 lambda: identity.weights(value)):
        with pytest.raises(DomainError, match=f"must be an integer, got {value!r}"):
            call()


@pytest.mark.parametrize("value", ["2", True, np.True_, None], ids=repr)
def test_power_s_refuses_non_reals(value):
    sample = _sorted(np.arange(1.0, 31.0))
    message = f"power s must be a real number, got {re.escape(repr(value))}"
    for call in (lambda: dh_statistic(sample, WeightFunction.identity(), 5, value),
                 lambda: SpacingPlan.build(WeightFunction.log1p(), 30, 5, value)):
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
    with pytest.raises(DomainError, match=message):
        hill(sample, value)
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
