"""Record extraction and the gamma-sum record simulator."""

import math

import numpy as np
import pytest

from plevt import (
    DomainError,
    Params,
    RecordSequence,
    SeedSpec,
    extract_records,
    mixture_values,
    quantile_from_log_tail,
    simulate_record,
    standardized_record,
)
from plevt.gof import ks_two_sample
from plevt.records import record_log_tails

from oracles import records_naive

P = Params(1.0, 2.0)


# ---------------------------------------------------------------------------
# extraction


def test_extract_hand_case():
    rec = extract_records([1.0, 0.5, 2.0, 1.5, 3.0])
    np.testing.assert_array_equal(rec.values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(rec.indices, [1, 3, 5])


def test_extract_single_observation():
    rec = extract_records([4.2])
    np.testing.assert_array_equal(rec.values, [4.2])
    np.testing.assert_array_equal(rec.indices, [1])


def test_extract_monotone_stream_all_records():
    xs = np.arange(10.0)
    rec = extract_records(xs)
    assert rec.values.size == 10
    np.testing.assert_array_equal(rec.indices, np.arange(1, 11))


def test_extract_ties_are_not_records():
    rec = extract_records([1.0, 1.0, 1.0])
    np.testing.assert_array_equal(rec.values, [1.0])


def test_extract_edge_streams():
    # the running-maximum scan at its edges (one observation is
    # test_extract_single_observation): two observations, a tied stream and
    # a strictly decreasing stream
    cases = [
        ([2.0, 3.0], [2.0, 3.0], [1, 2]),
        ([3.0, 2.0], [3.0], [1]),
        ([1.0, 2.0, 2.0, 2.0, 5.0, 5.0], [1.0, 2.0, 5.0], [1, 2, 5]),
        ([5.0, 4.0, 3.0, 2.0, 1.0], [5.0], [1]),
    ]
    for stream, values, indices in cases:
        rec = extract_records(stream)
        np.testing.assert_array_equal(rec.values, values)
        np.testing.assert_array_equal(rec.indices, indices)
        assert rec.indices.dtype == np.int64


def test_extract_matches_naive_loop():
    rng = np.random.default_rng(99)
    for _ in range(40):
        stream = rng.normal(size=int(rng.integers(1, 200)))
        rec = extract_records(stream)
        ref_vals, ref_idx = records_naive(stream)
        np.testing.assert_array_equal(rec.values, ref_vals)
        np.testing.assert_array_equal(rec.indices, ref_idx)


def test_record_sequence_validation():
    with pytest.raises(DomainError):
        RecordSequence(np.array([1.0, 1.0]), indices=np.array([1, 2]))
    with pytest.raises(DomainError):
        RecordSequence(np.array([2.0, 1.0]), indices=np.array([1, 2]))
    with pytest.raises(DomainError):
        RecordSequence(np.array([1.0, 2.0]), indices=np.array([1]))
    with pytest.raises(TypeError):
        RecordSequence(np.array([1.0, 2.0]))  # indices are required


# ---------------------------------------------------------------------------
# simulation


def test_simulate_record_deterministic():
    a = simulate_record(50, P, SeedSpec(123))
    b = simulate_record(50, P, SeedSpec(123))
    assert a == b
    assert a != simulate_record(50, P, SeedSpec(124))


def test_simulate_record_equals_manual_gamma_draw():
    # the simulator is exactly quantile(e^{-G_n}) with G_n ~ Gamma(n) drawn
    # as one standard_gamma(n) on its own stream
    seed = SeedSpec(321)
    n = 80
    g = float(seed.rng().standard_gamma(n))
    assert simulate_record(n, P, seed) == quantile_from_log_tail(g, P).value


def test_simulate_record_rejects_bad_n():
    with pytest.raises(DomainError):
        simulate_record(0, P, SeedSpec(1))


@pytest.mark.parametrize("master, first", [(21, 0), (2**64 - 1, 2**64 - 5)])
def test_record_log_tails_are_one_gamma_draw_per_stream(master, first):
    n = 400
    g = record_log_tails(n, SeedSpec(master, first), 5)
    assert g.shape == (5,) and g.dtype == np.float64
    for r in range(5):
        assert g[r] == SeedSpec(master, first + r).rng().standard_gamma(n)
    with pytest.raises(DomainError):
        record_log_tails(n, SeedSpec(master, 2**64 - 5), 6)  # stream 2**64 is no stream


@pytest.mark.parametrize("value", [7.9, "200", True, math.inf, math.nan], ids=repr)
def test_record_draws_refuse_non_integer_counts(value):
    with pytest.raises(DomainError, match=f"record index must be an integer, got {value!r}"):
        record_log_tails(value, SeedSpec(1), 3)
    with pytest.raises(DomainError, match=f"reps must be an integer, got {value!r}"):
        record_log_tails(40, SeedSpec(1), value)
    with pytest.raises(DomainError, match=f"record index must be an integer, got {value!r}"):
        simulate_record(value, P, SeedSpec(1))


def test_record_one_is_distributed_like_parent():
    # X^(1) is just one observation from the law itself
    reps = 3000
    recs = np.array([simulate_record(1, P, SeedSpec(60, r)) for r in range(reps)])
    direct = mixture_values(reps, P, SeedSpec(61))
    d = ks_two_sample(recs, direct)
    assert d <= 1.95 * math.sqrt(2.0 / reps)


def test_deep_records_take_the_exact_log_tail_solve():
    # a record at log tail mass g is quantile_from_log_tail(g) (see
    # test_simulate_record_equals_manual_gamma_draw); past g = 700, where
    # exp(-g) nears the double underflow, that root has no jump across 700
    below = quantile_from_log_tail(700.0 - 1e-9, P).value
    above = quantile_from_log_tail(700.0 + 1e-9, P).value
    assert above == pytest.approx(below, abs=1e-8)
    assert above > 0.0 and math.isfinite(above)


def test_deep_record_values_stay_finite_and_monotone():
    gs = [800.0, 2000.0, 1e5]
    xs = [quantile_from_log_tail(g, P).value for g in gs]
    assert all(math.isfinite(x) for x in xs)
    assert xs == sorted(xs)
    # two-term shape: x ~ (g + log g - log beta)/theta far out
    approx = (1e5 + math.log(1e5) - math.log(2.0)) / 1.0
    assert xs[-1] == pytest.approx(approx, rel=1e-6)


def test_standardized_record_formula():
    p = Params(2.0, 3.0)
    x, n = 210.0, 400
    expected = (x - 0.5 * 400) / (0.5 * 20.0)
    assert standardized_record(x, n, p) == pytest.approx(expected, rel=1e-14)


def test_record_statistic_mean_is_near_n_gamma():
    # E Gamma_n = n and the quantile map adds only a log-order shift, so the
    # record at n=300 should sit within a few gamma*sqrt(n) of gamma*n
    n, reps = 300, 400
    vals = np.array([simulate_record(n, P, SeedSpec(777, r)) for r in range(reps)])
    z = (np.mean(vals) - n) / (math.sqrt(n) / math.sqrt(reps))
    # centered within ~8 standard errors (the known positive log-shift)
    assert 0.0 < z < 8.0
