"""The O(k) top order-statistic sampler and the gamma record draw.

The exactness gate compares each new draw with the full-sample path it
replaces by a two-sample KS test, at n = 1e4 where the full path is cheap,
with disjoint master seeds and the 0.1% critical value.  The layout gate
compares each replicated kind's standardized statistic, drawn in blocks on
one key, with the same statistic drawn one stream per replication, as
plevt drew it before (``tests/oracles.py``).
"""

import math

import numpy as np
import pytest

import plevt.harness
from plevt import (
    DomainError,
    Params,
    SeedSpec,
    WeightFunction,
    dh_statistic,
    sample_mixture,
)
from plevt.gof import ks_two_sample
from plevt.harness import Experiment, run_experiment
from plevt.records import record_log_tails
from plevt.sampling import SortedSample, top_order_statistics_rows

from oracles import (
    ks_critical_two_sample,
    record_log_tails_per_stream,
    top_order_statistics_rows_per_stream,
)

P = Params(1.0, 2.0)
N = 10_000
REPS = 4000
OLD_SEED, NEW_SEED = 11, 12
IDENTITY = WeightFunction.identity()


@pytest.fixture(scope="module")
def full_sample_path():
    """Hill (k=7), dh (identity, s=2, k=20) and the maximum of REPS full
    sorted samples of size N."""
    hill, dh, maxima = [], [], []
    for r in range(REPS):
        sample = sample_mixture(N, P, SeedSpec(OLD_SEED, r))
        hill.append(dh_statistic(sample, IDENTITY, 7, 1.0).hill)
        dh.append(dh_statistic(sample, IDENTITY, 20, 2.0).t_n)
        maxima.append(sample.values[-1])
    return {"hill": np.array(hill), "dh": np.array(dh), "max": np.array(maxima)}


def top_sample(n, k, seed):
    """The k+1 largest of n draws at P as one sorted sample: row 0 of ``seed``'s key."""
    return SortedSample(top_order_statistics_rows(n, k, P, seed, 1)[0])


def _top(k, r):
    return top_sample(N, k, SeedSpec(NEW_SEED, r))


def _assert_same_law(new, old):
    d = ks_two_sample(new, old)
    assert d <= ks_critical_two_sample(new.size, old.size), d


def test_hill_matches_full_sample_path(full_sample_path):
    new = np.array([dh_statistic(_top(7, r), IDENTITY, 7, 1.0).hill for r in range(REPS)])
    _assert_same_law(new, full_sample_path["hill"])


def test_dh_matches_full_sample_path(full_sample_path):
    new = np.array([dh_statistic(_top(20, r), IDENTITY, 20, 2.0).t_n for r in range(REPS)])
    _assert_same_law(new, full_sample_path["dh"])


def test_maximum_matches_full_sample_path(full_sample_path):
    new = np.array([_top(0, r).values[0] for r in range(REPS)])
    _assert_same_law(new, full_sample_path["max"])


def test_record_gamma_draw_matches_exponential_sum():
    n = 400
    new = record_log_tails(n, SeedSpec(NEW_SEED), REPS)
    old = np.array([np.sum(-np.log1p(-SeedSpec(OLD_SEED, r).rng().random(n)))
                    for r in range(REPS)])
    _assert_same_law(new, old)


LAYOUT_REPS = 100_000
#: the replicated kinds, dh_clt as the standard suite runs it
LAYOUT_FIELDS = {
    "max_gumbel": {},
    "hill_clt": {},
    "dh_clt": dict(k=20, weight=IDENTITY, s=2.0),
    "record_clt": {},
}


def _replications(kind, master):
    e = Experiment(kind=kind, reps=LAYOUT_REPS, seed=SeedSpec(master), rerun_on_fail=False,
                   **LAYOUT_FIELDS[kind])
    return run_experiment(e).extras["replications"]


@pytest.mark.parametrize("kind", sorted(LAYOUT_FIELDS))
def test_block_layout_keeps_the_law_of_the_per_stream_layout(monkeypatch, kind):
    # 1e5 replications of each layout, seven blocks of the new one, on
    # disjoint master seeds, at the harness's 1.95 factor
    new = _replications(kind, NEW_SEED)
    monkeypatch.setattr(plevt.harness, "top_order_statistics_rows",
                        top_order_statistics_rows_per_stream)
    monkeypatch.setattr(plevt.harness, "record_log_tails", record_log_tails_per_stream)
    old = _replications(kind, OLD_SEED)
    assert ks_two_sample(new, old) <= 1.95 * math.sqrt(2.0 / LAYOUT_REPS)


# ---------------------------------------------------------------------------
# unit behaviour


def test_returns_k_plus_one_ascending_finite_values():
    s = top_sample(100_000, 20, SeedSpec(5))
    assert s.n == 21
    assert np.all(np.isfinite(s.values)) and np.all(np.diff(s.values) >= 0.0)
    assert s.values[0] > 0.0


def test_same_stream_same_values_other_stream_differs():
    a = top_sample(1000, 5, SeedSpec(3, 1)).values
    b = top_sample(1000, 5, SeedSpec(3, 1)).values
    c = top_sample(1000, 5, SeedSpec(3, 2)).values
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_k_zero_and_k_n_minus_one():
    assert top_sample(1, 0, SeedSpec(1)).n == 1
    assert top_sample(50, 0, SeedSpec(1)).n == 1
    full = top_sample(5, 4, SeedSpec(1))
    assert full.n == 5 and np.all(np.diff(full.values) >= 0.0)


@pytest.mark.parametrize("n, k", [(10, -1), (10, 10), (10, 11), (0, 0)])
def test_bad_k_or_n_raises(n, k):
    with pytest.raises(DomainError):
        top_sample(n, k, SeedSpec(1))
