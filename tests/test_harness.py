"""Monte Carlo harness: experiment validation, determinism, reruns, refusals."""

import ast
import functools
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import gumbel_r

import plevt.harness
from plevt.distribution import Params
from plevt.errors import DomainError, ExperimentRefusedError, ParameterError
from plevt.gof import gumbel_cdf, ks_two_sample, std_normal_cdf
from plevt.harness import (
    KINDS,
    STOCHASTIC_KINDS,
    Experiment,
    Thresholds,
    default_thresholds,
    derived_rerun_seed,
    report_to_json,
    report_to_json_dict,
    run_experiment,
    run_suite,
    standard_suite,
    suite_to_json,
    write_csv_summary,
)
from plevt.quantile import quantile_from_log_tail
from plevt.records import record_log_tails, standardized_record
from plevt.sampling import SeedSpec, top_order_statistics_rows
from plevt.tail import WeightFunction

from test_quantile import _peak_bytes

#: The kinds that average a standardized statistic over many replications.
REPLICATED = ("max_gumbel", "hill_clt", "dh_clt", "record_clt")


# ---------------------------------------------------------------------------
# reference cdf
# ---------------------------------------------------------------------------

def test_std_normal_cdf_matches_ndtr():
    """1e-14 relative to scipy's ndtr for x >= -16. Further down the relative
    condition number of Phi grows like x**2, and the two erfc routes round
    exp(-x**2/2) differently, so there the bound is 1e-14 + eps*x**2. Below
    about -37.5 both are subnormal, and ndtr flushes to 0."""
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    x = np.linspace(-38.0, 8.5, 100_001)
    got, ref = std_normal_cdf(x), ndtr(x)
    normal = ref >= tiny
    rel = np.abs(got[normal] / ref[normal] - 1.0)
    assert rel[x[normal] >= -16.0].max() <= 1e-14
    assert (rel <= 1e-14 + eps * x[normal] ** 2).all()
    assert (~normal).any() and (got[~normal] < tiny).all()


@pytest.mark.parametrize("x", [0.3, np.float64(-2.5), np.linspace(-6.0, 6.0, 60).reshape(3, 20)])
def test_std_normal_cdf_keeps_the_shape(x):
    got = std_normal_cdf(x)
    assert np.shape(got) == np.shape(x)
    np.testing.assert_allclose(got, ndtr(x), rtol=1e-14, atol=0.0)


def test_std_normal_cdf_bits_pinned_and_memory_bounded():
    # digest recorded with one Python list for the whole input, before the
    # blocks; that list peaked at 12.0 MiB on these 2**18 values, the blocks
    # at 2.75 MiB, of which the output is 2
    x = np.random.default_rng(2).normal(0.0, 3.0, 2**18)
    x[:5] = [-40.0, -37.5, 0.0, 8.5, 40.0]
    assert _peak_bytes(lambda: std_normal_cdf(x)) <= 4 * 2**20
    h = hashlib.sha256(std_normal_cdf(x).tobytes())
    h.update(std_normal_cdf(x[:100_000].reshape(400, 250)).tobytes())
    assert h.hexdigest() == "f667b3fbf17987f14fa7222b6ba66d38185b477673e0c3bc1f4f9b98dbd70241"


def test_gumbel_cdf_matches_scipy():
    # scipy evaluates the same exp(-exp(-x)), and warns below -709.78 itself
    x = np.linspace(-709.0, 40.0, 20_001)
    np.testing.assert_allclose(gumbel_cdf(x), gumbel_r.cdf(x), rtol=1e-15, atol=0.0)


def test_gumbel_cdf_edges_keep_the_shape():
    # exp(-x) overflows below about -709.78, where the cdf is 0, without a warning
    got = gumbel_cdf(np.array([-1000.0, -np.inf, np.inf, np.nan]))
    np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, np.nan])
    x = np.linspace(-1000.0, 5.0, 12).reshape(3, 4)
    assert gumbel_cdf(x).shape == (3, 4)
    np.testing.assert_array_equal(gumbel_cdf(x)[0, :2], [0.0, 0.0])


# ---------------------------------------------------------------------------
# experiment construction
# ---------------------------------------------------------------------------

def test_kind_defaults():
    e = Experiment(kind="hill_clt")
    assert (e.n, e.k, e.reps) == (100_000, 7, 3000)
    assert Experiment(kind="max_gumbel").reps == 2000
    assert Experiment(kind="record_clt").n == 400
    assert Experiment(kind="record_clt").reps == 5000
    d = Experiment(kind="dh_clt")
    assert d.s == 1.0 and str(d.weight) == "WeightFunction('identity')"
    assert Experiment(kind="sampler_gof").reps == 1
    assert Experiment(kind="quantile_error_order").n is None


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        Experiment(kind="bootstrap")


@pytest.mark.parametrize("kind", ["max_gumbel", "hill_clt", "dh_clt", "record_clt"])
def test_minimum_replication_count(kind):
    with pytest.raises(ParameterError):
        Experiment(kind=kind, reps=99)
    assert Experiment(kind=kind, reps=100).reps == 100


def test_single_shot_kinds_refuse_replication():
    with pytest.raises(ParameterError):
        Experiment(kind="sampler_gof", reps=5)
    assert Experiment(kind="sampler_gof", reps=1).reps == 1


@pytest.mark.parametrize("kind", KINDS)
def test_streams_must_end_below_2_64(kind):
    # replication r draws on stream + r, and sampler_gof's two samples on
    # stream and stream + 1: the last of them must still be a stream id
    reps = 100 if kind in REPLICATED else None
    used = 100 if reps else 2 if kind == "sampler_gof" else 1
    n = None if kind == "quantile_error_order" else 2000
    k = 20 if kind in ("hill_clt", "dh_clt") else None
    top = Experiment(kind=kind, n=n, k=k, reps=reps, seed=SeedSpec(7, 2**64 - used),
                     rerun_on_fail=False)
    run_experiment(top)  # the last stream id draws like any other
    if used > 1:
        first = 2**64 - used + 1
        message = rf"^streams {first} to {first} \+ {used - 1} pass 2\*\*64 - 1$"
        with pytest.raises(ParameterError, match=message):
            Experiment(kind=kind, reps=reps, seed=SeedSpec(7, 2**64 - used + 1))


def test_k_only_for_spacings_kinds():
    with pytest.raises(ParameterError, match=r"k must lie in \[1, n-1\] = \[1, 99\], got 100"):
        Experiment(kind="hill_clt", n=100, k=100)  # k > n-1
    with pytest.raises(ParameterError):
        Experiment(kind="hill_clt", n=100, k=0)
    assert Experiment(kind="hill_clt", n=100, k=99).k == 99
    # with no k, the default is capped at n - 1
    assert [Experiment(kind=kind, n=5).k for kind in ("hill_clt", "dh_clt")] == [4, 4]


def test_weight_and_power_only_for_dh():
    with pytest.raises(ParameterError, match="power s must be finite and >= 1, got 0.5"):
        Experiment(kind="dh_clt", s=0.5)
    with pytest.raises(ParameterError):
        Experiment(kind="dh_clt", s=math.inf)


#: The optional fields each kind takes, with a value for each and the noun
#: that a kind which does not take the field names in its refusal.
TAKES = {
    "max_gumbel": {"n"},
    "hill_clt": {"n", "k"},
    "dh_clt": {"n", "k", "weight", "s"},
    "record_clt": {"n"},
    "sampler_gof": {"n"},
    "quantile_error_order": set(),
}
OPTIONAL_FIELDS = {
    "n": (200, "sample size"),
    "k": (5, "top-statistics count k"),
    "weight": (WeightFunction.power(0.5), "weight function"),
    "s": (2.0, "power s"),
}


@pytest.mark.parametrize("name", OPTIONAL_FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_kind_takes_only_its_fields(kind, name):
    value, noun = OPTIONAL_FIELDS[name]
    if name in TAKES[kind]:
        assert getattr(Experiment(kind=kind, **{name: value}), name) == value
    else:
        with pytest.raises(ParameterError, match=f"^{kind} takes no {noun}$"):
            Experiment(kind=kind, **{name: value})


@pytest.mark.parametrize("value", ["2.5", True, np.True_], ids=repr)
def test_power_s_refuses_non_reals(value):
    message = f"power s must be a real number, got {re.escape(repr(value))}"
    with pytest.raises(ParameterError, match=message):
        Experiment(kind="dh_clt", s=value)
    assert Experiment(kind="dh_clt", s=np.int64(2)).s == 2.0


def test_thresholds_resolution():
    e = Experiment(kind="hill_clt")
    assert e.thresholds == default_thresholds("hill_clt")
    custom = Thresholds(ks=0.5)
    assert Experiment(kind="hill_clt", thresholds=custom).thresholds is custom


@pytest.mark.parametrize("kind", ["sampler_gof", "quantile_error_order"])
def test_single_shot_kinds_refuse_thresholds(kind):
    # their bounds are fixed: a tolerance they would not read is refused
    with pytest.raises(ParameterError, match=f"{kind} checks fixed bounds"):
        Experiment(kind=kind, thresholds=Thresholds(ks=0.1))
    assert Experiment(kind=kind, thresholds=Thresholds()).thresholds == Thresholds()


NOT_INTEGERS = [7.9, "200", True, math.inf, math.nan]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", ["n", "k", "reps"])
def test_integer_fields_refuse_other_types(name, value):
    with pytest.raises(ParameterError, match=f"must be an integer, got {value!r}"):
        Experiment(kind="hill_clt", **{name: value})
    assert getattr(Experiment(kind="hill_clt", **{name: np.int64(200)}), name) == 200
    if name == "reps":  # also where the only admissible count is 1
        with pytest.raises(ParameterError, match="must be an integer"):
            Experiment(kind="sampler_gof", reps=value)


def test_every_kind_has_defaults():
    for kind in KINDS:
        th = default_thresholds(kind)
        assert isinstance(th, Thresholds)


def test_kind_sets():
    assert KINDS == (
        "max_gumbel", "hill_clt", "dh_clt", "record_clt", "sampler_gof",
        "quantile_error_order",
    )
    # exactly the replicated kinds take more than one replication
    accepts = []
    for kind in KINDS:
        try:
            Experiment(kind=kind, reps=100)
        except ParameterError:
            continue
        accepts.append(kind)
    assert tuple(accepts) == REPLICATED
    assert STOCHASTIC_KINDS == {
        "max_gumbel", "hill_clt", "dh_clt", "record_clt", "sampler_gof",
    }


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_same_stable_report():
    e = Experiment(kind="sampler_gof", n=5000, seed=SeedSpec(7))
    a = run_experiment(e)
    b = run_experiment(e)
    assert report_to_json(a, stable=True) == report_to_json(b, stable=True)


def test_first_replications_do_not_depend_on_reps():
    # numpy fills a block's arrays in order, so the first r replications of
    # a longer run are the replications of a run of r; a sampler that drew
    # every uniform of a row before the next row's, or the gammas between
    # the rows, from one stream would fail here
    p, seed = Params(1.0, 2.0), SeedSpec(11, 3)
    rows = top_order_statistics_rows(5000, 5, p, seed, 200)
    tails = record_log_tails(100, seed, 200)
    for r in (1, 37, 100):
        np.testing.assert_array_equal(rows[:r], top_order_statistics_rows(5000, 5, p, seed, r))
        np.testing.assert_array_equal(tails[:r], record_log_tails(100, seed, r))


_PINNED = {
    "max_gumbel": (
        dict(n=10_000, reps=100),
        '{"empirical_mean": 0.7537964199470636, "empirical_var": 1.9356137602653485, '
        '"kind": "max_gumbel", "ks_distance": 0.07494557711812277, "passed": false, '
        '"reference": "gumbel", "reps": 100, "runtime_ms": 0, "seed": 7, "threshold": 0.05}',
    ),
    "hill_clt": (
        dict(n=10_000, reps=100),
        '{"empirical_mean": 0.31558276414112535, "empirical_var": 1.3784475873417243, '
        '"kind": "hill_clt", "ks_distance": 0.14241263082094857, "passed": false, '
        '"reference": "std_normal", "reps": 100, "runtime_ms": 0, "seed": 7, "threshold": 0.08}',
    ),
    "dh_clt": (
        dict(n=10_000, k=20, weight=WeightFunction.identity(), s=2.0, reps=100),
        '{"empirical_mean": 0.41842975787119374, "empirical_var": 2.2510482304683896, '
        '"kind": "dh_clt", "ks_distance": 0.1719976408565042, "passed": false, '
        '"reference": "std_normal", "reps": 100, "runtime_ms": 0, "seed": 7, "threshold": 0.1}',
    ),
    "record_clt": (
        dict(n=400, reps=100),
        '{"empirical_mean": 0.2326525713093404, "empirical_var": 1.0872476053638402, '
        '"kind": "record_clt", "ks_distance": 0.15392985418254573, "passed": false, '
        '"reference": "std_normal", "reps": 100, "runtime_ms": 0, "seed": 7, "threshold": 0.05}',
    ),
    "sampler_gof": (
        dict(n=5000),
        '{"empirical_mean": 1.4803682285333195, "empirical_var": 1.6979910265654763, '
        '"kind": "sampler_gof", "ks_distance": 0.010168895734868233, "passed": true, '
        '"reference": "pseudo_lindley", "reps": 1, "runtime_ms": 0, "seed": 7, '
        '"threshold": 0.027577164466275353}',
    ),
    "quantile_error_order": (
        dict(),
        '{"empirical_mean": 76.00647394304217, "empirical_var": 2435.190568810267, '
        '"kind": "quantile_error_order", "ks_distance": 0.0, "passed": true, '
        '"reference": "none", "reps": 1, "runtime_ms": 0, "seed": 7, "threshold": 50.0}',
    ),
}


# SHA-256 of extras["replications"].view(np.uint64), the sorted
# standardized replications, recorded when a block of replications first
# drew its uniforms and its gammas as one array each on its own key
_PINNED_REPLICATIONS = {
    "dh_clt": "0f7a95483fcb04aad425e2e49f0e4b6cc026f32846a8f6a66970ac4e3b14ac29",
    "hill_clt": "913dc5e8f5e05a8a62fe1c3b9c708c800ed194648bc46ce846b05bb12a9b50f8",
    "max_gumbel": "ae6522ecffdf52c0ca5c0aece25ca6b2c3961cefbf2fe324ba219caf827fecc4",
    "record_clt": "5e96b418ba3f5b1d70be11a41da7202313434f47a16fe4c85520158367a04c98",
}


@pytest.mark.parametrize("kind", sorted(_PINNED))
def test_report_bits_pinned(kind):
    """Stable reports equal figures recorded when a block first drew its
    replications as arrays on one key, and, for the single-shot kinds,
    before the kinds became one table (numpy 2.4, x86-64 with AVX-512); a
    rewrite that moves any bit fails here.  The last bits depend on the platform's
    vector math, so another platform may need the figures re-recorded."""
    extra, expected = _PINNED[kind]
    e = Experiment(kind=kind, seed=SeedSpec(7), rerun_on_fail=False, **extra)
    r = run_experiment(e)
    assert report_to_json(r, stable=True) == expected
    if kind in _PINNED_REPLICATIONS:
        zs = r.extras["replications"]
        assert zs.dtype == np.float64 and zs.shape == (extra["reps"],)
        digest = hashlib.sha256(zs.view(np.uint64).tobytes()).hexdigest()
        assert digest == _PINNED_REPLICATIONS[kind]


# The same digest at reps = 2**14 + 5, two blocks of the attempt loop on two
# keys (the standard suite's k = 20, s = 2 for dh_clt), recorded with the
# replications above
_MULTI_BLOCK_REPS = 2**14 + 5
_PINNED_MULTI_BLOCK = {
    "dh_clt": "75932e989dd140cea898f0024c8d688f8883e491aca8899f74e956217104de88",
    "hill_clt": "2ac0f6f029874d4b3f45546999d24a5c451b787138cfaa44ce8da8016ce9a14a",
    "max_gumbel": "b05ee7f6a97884cfb5562aa9e007e0f5902142ab61c9c3c729ffd1f62e2ef861",
    "record_clt": "b48427147b6aaf993529c216cf72beb7a96a640405812e5af69359ec6e5218b1",
}
_SUITE_FIELDS = {"dh_clt": dict(k=20, weight=WeightFunction.identity(), s=2.0)}


def _attempt(kind, reps):
    """Stable JSON, replication digest and the other extras of one seed-7 attempt."""
    e = Experiment(kind=kind, reps=reps, seed=SeedSpec(7), rerun_on_fail=False,
                   **_SUITE_FIELDS.get(kind, {}))
    r = run_experiment(e)
    digest = hashlib.sha256(r.extras.pop("replications").view(np.uint64).tobytes()).hexdigest()
    return report_to_json(r, stable=True), digest, r.extras


_default_attempt = functools.cache(_attempt)  # called only at the default block size


@pytest.mark.parametrize("kind", sorted(_PINNED_MULTI_BLOCK))
def test_multi_block_replications_pinned(kind):
    assert _default_attempt(kind, _MULTI_BLOCK_REPS)[1] == _PINNED_MULTI_BLOCK[kind]


@pytest.mark.parametrize("block", [1, 1000, 2**14 + 1])
@pytest.mark.parametrize("kind", sorted(_PINNED_MULTI_BLOCK))
def test_block_size_is_part_of_the_contract(monkeypatch, kind, block):
    # replication r draws from position r mod B of block r // B's key, so
    # the pins above hold at B = 2**14 only, and another B moves the bits
    assert plevt.harness._REP_BLOCK == 2**14
    reps = 300 if block == 1 else _MULTI_BLOCK_REPS
    default = _default_attempt(kind, reps)
    monkeypatch.setattr(plevt.harness, "_REP_BLOCK", block)
    assert _attempt(kind, reps)[1] != default[1]


@pytest.mark.parametrize("kind", ["hill_clt", "dh_clt"])
def test_attempt_memory_is_bounded_per_block(monkeypatch, kind):
    # attempts of 4 and 16 blocks: the peak grows with the outputs and the
    # report, not with a block's draws, solve and reduction.  Whole-attempt
    # arrays grew by 336 (hill_clt) and 914 (dh_clt) bytes per replication
    # here; blocked, by 16.  Blocks of 2**10, not 2**14, keep the traced
    # attempts short
    monkeypatch.setattr(plevt.harness, "_REP_BLOCK", 2**10)

    def peak(reps):
        e = Experiment(kind=kind, reps=reps, seed=SeedSpec(7), rerun_on_fail=False,
                       **_SUITE_FIELDS.get(kind, {}))
        return _peak_bytes(lambda: run_experiment(e))

    peak(100)  # allocations made once per process are not growth
    small, large = peak(2**12), peak(2**14)
    assert (large - small) / (2**14 - 2**12) <= 128


def test_record_clt_array_solve_keeps_the_law():
    """One array solve per attempt against the scalar solve per replication
    it replaced, 1e5 replications each on independent master seeds: the
    same law by a two-sample KS test at the harness's 1.95 factor."""
    n, reps, p = 400, 100_000, Params(1.0, 2.0)
    e = Experiment(kind="record_clt", n=n, reps=reps, seed=SeedSpec(2026), rerun_on_fail=False)
    new = run_experiment(e).extras["replications"]
    g = record_log_tails(n, SeedSpec(2027), reps)
    x = np.array([quantile_from_log_tail(v, p).value for v in g.tolist()])
    old = standardized_record(x, n, p)
    assert ks_two_sample(new, old) <= 1.95 * math.sqrt(2.0 / reps)


@pytest.mark.parametrize("kind, extra", [
    ("hill_clt", dict(n=5000, k=5)),
    ("dh_clt", dict(n=5000, k=20, s=2.0)),
    ("record_clt", dict(n=100)),
    ("max_gumbel", dict(n=5000)),
])
def test_replications_in_extras_only(kind, extra):
    e = Experiment(kind=kind, reps=150, seed=SeedSpec(4), rerun_on_fail=False, **extra)
    r = run_experiment(e)
    zs = r.extras["replications"]
    assert zs.shape == (150,) and bool((zs[1:] >= zs[:-1]).all())
    assert r.empirical_mean == pytest.approx(float(zs.mean()), rel=1e-12)
    assert len(report_to_json_dict(r)) == 10


#: The exact ``McReport.extras`` keys of each kind's report at small sizes.
#: A re-run adds ``first_attempt`` to every kind that draws a sample.  A
#: cross-check that only the tests read belongs in the tests, not here.
_SPACING_EXTRAS = {"replications", "k", "s", "weight", "k1", "ratio1", "bn", "growth"}
_EXTRAS = {
    "max_gumbel": (dict(n=2000, reps=100), {"replications", "centering"}),
    "hill_clt": (dict(n=5000, k=5, reps=100), _SPACING_EXTRAS),
    "dh_clt": (dict(n=5000, k=20, s=2.0, reps=100), _SPACING_EXTRAS),
    "record_clt": (dict(n=100, reps=100), {"replications"}),
    "sampler_gof": (dict(n=2000), {"two_sample_ks", "two_sample_threshold", "n"}),
    "quantile_error_order": (
        dict(), {"u_grid", "raw_errors", "weighted_errors", "weighted_ratio"},
    ),
}


@pytest.mark.parametrize("rerun", [False, True], ids=["once", "rerun"])
@pytest.mark.parametrize("kind", KINDS)
def test_extras_keys_are_pinned(monkeypatch, kind, rerun):
    extra, keys = _EXTRAS[kind]
    thresholds = None
    if rerun:  # every attempt misses
        if kind in REPLICATED:
            thresholds = Thresholds(ks=0.0)
        monkeypatch.setattr(plevt.harness, "_GOF_FACTOR", 0.0)
        monkeypatch.setattr(plevt.harness, "_ERROR_RATIO_BOUND", 0.0)
    e = Experiment(kind=kind, seed=SeedSpec(7), thresholds=thresholds, rerun_on_fail=rerun,
                   **extra)
    r = run_experiment(e)
    reran = rerun and kind in STOCHASTIC_KINDS
    assert not (rerun and r.passed)
    assert set(r.extras) == keys | {"attempts"} | ({"first_attempt"} if reran else set())
    assert r.extras["attempts"] == (2 if reran else 1)


@pytest.mark.parametrize("kind", REPLICATED)
def test_unallocatable_attempt_draws_nothing(monkeypatch, kind):
    # the one output of all 10**15 replications (8 PB) is allocated before
    # the first block, so an attempt that cannot hold it draws nothing
    draws = []
    for name in ("top_order_statistics_rows", "record_log_tails"):
        drawn = getattr(plevt.harness, name)
        monkeypatch.setattr(plevt.harness, name,
                            lambda *a, drawn=drawn: draws.append(a) or drawn(*a))
    e = Experiment(kind=kind, reps=10**15, seed=SeedSpec(7), rerun_on_fail=False,
                   **_SUITE_FIELDS.get(kind, {}))
    with pytest.raises(MemoryError):
        run_experiment(e)
    assert draws == []


def test_different_seeds_differ():
    e1 = Experiment(kind="sampler_gof", n=5000, seed=SeedSpec(1))
    e2 = Experiment(kind="sampler_gof", n=5000, seed=SeedSpec(2))
    assert run_experiment(e1).ks_distance != run_experiment(e2).ks_distance


# ---------------------------------------------------------------------------
# rerun-on-miss policy
# ---------------------------------------------------------------------------

def test_rerun_seed_derivation():
    d = derived_rerun_seed(SeedSpec(7))
    assert d.master_seed == (7 + 0x9E3779B97F4A7C15) % 2**64
    assert d.stream_id == 0
    assert derived_rerun_seed(SeedSpec(7, stream_id=3)).stream_id == 3


def test_failed_experiment_reruns_once():
    impossible = Thresholds(ks=0.05, mean_window=1e-9, var_window=None)
    e = Experiment(
        kind="record_clt", n=50, reps=100, seed=SeedSpec(7), thresholds=impossible
    )
    r = run_experiment(e)
    assert not r.passed
    assert r.extras["attempts"] == 2
    assert r.seed == derived_rerun_seed(SeedSpec(7)).master_seed
    first = r.extras["first_attempt"]
    assert first["seed"] == 7
    assert first["empirical_mean"] != r.empirical_mean


def test_rerun_can_be_disabled():
    impossible = Thresholds(ks=0.05, mean_window=1e-9, var_window=None)
    e = Experiment(
        kind="record_clt",
        n=50,
        reps=100,
        seed=SeedSpec(7),
        thresholds=impossible,
        rerun_on_fail=False,
    )
    r = run_experiment(e)
    assert not r.passed
    assert r.extras["attempts"] == 1
    assert r.seed == 7
    assert "first_attempt" not in r.extras


def test_deterministic_kind_never_reruns(monkeypatch):
    monkeypatch.setattr(plevt.harness, "_ERROR_RATIO_BOUND", 1e-9)
    r = run_experiment(Experiment(kind="quantile_error_order"))
    assert not r.passed
    assert r.extras["attempts"] == 1


def test_passing_experiment_runs_once():
    e = Experiment(kind="sampler_gof", n=5000, seed=SeedSpec(7))
    r = run_experiment(e)
    assert r.passed and r.extras["attempts"] == 1


# ---------------------------------------------------------------------------
# refusals (growth conditions violated -> no sampling at all)
# ---------------------------------------------------------------------------

def test_hill_refuses_oversized_k():
    # k^(3/4)/log n explodes for k ~ n
    e = Experiment(kind="hill_clt", n=1000, k=500, reps=100)
    with pytest.raises(ExperimentRefusedError) as exc:
        run_experiment(e)
    assert exc.value.diagnostics["k1"] > 1.5


def test_hill_refuses_fast_k_growth_before_drawing(monkeypatch):
    # k^(3/4)/log n = 20^(3/4)/log 100 = 2.05 exceeds 1.5
    monkeypatch.setattr(plevt.harness, "top_order_statistics_rows", None)  # never drawn
    e = Experiment(kind="hill_clt", n=100, k=20, reps=100)
    with pytest.raises(ExperimentRefusedError, match="^k grows too fast for the Hill CLT") as exc:
        run_experiment(e)
    assert exc.value.diagnostics["k1"] == pytest.approx(20**0.75 / math.log(100), rel=1e-12)


def test_spacing_guards_refuse_before_gamma_overflows():
    # at theta = 5e-324, where gamma = 1/theta leaves the double range, the
    # guard still speaks before anything is drawn
    e = Experiment(kind="hill_clt", params=Params(5e-324, 2.0), n=100, k=20, reps=100)
    with pytest.raises(ExperimentRefusedError, match="^k grows too fast"):
        run_experiment(e)


#: The replicated kinds, dh_clt as the standard suite runs it
_SCALE_FREE = {
    "max_gumbel": dict(n=20_000),
    "hill_clt": dict(n=20_000),
    "dh_clt": dict(n=20_000, k=20, weight=WeightFunction.identity(), s=2.0),
    "record_clt": dict(n=400),
}
_THETAS = (5e-324, 1 / 316, 1e-160, 0.5, 2.5, 1e160, 1e300)


@pytest.mark.parametrize("kind", sorted(_SCALE_FREE))
def test_replicated_report_is_the_theta_1_report(kind):
    # the statistics are invariant under x -> theta*x and the runners draw in
    # theta*x, so no theta refuses them or moves a bit; in data units these
    # thetas take gamma, a quantile or t_n (s = 2) past the double range or
    # into its subnormal part
    def attempt(theta):
        e = Experiment(kind=kind, params=Params(theta, 2.0), reps=500, seed=SeedSpec(3),
                       rerun_on_fail=False, **_SCALE_FREE[kind])
        r = run_experiment(e)
        return report_to_json(r, stable=True), r.extras["replications"].view(np.uint64)

    report, zs = attempt(1.0)
    for theta in _THETAS:
        got, got_zs = attempt(theta)
        assert got == report, theta
        np.testing.assert_array_equal(got_zs, zs, err_msg=repr(theta))


_RUNNERS = ("_run_max_gumbel", "_run_spacings_clt", "_run_record_clt")


def scale_reads(source: str) -> list[str]:
    """``runner.attribute`` for each ``.theta`` or ``.gamma`` read in the
    bodies of the replicated kinds' runners defined in ``source``."""
    return sorted(f"{fn.name}.{node.attr}" for fn in ast.parse(source).body
                  if isinstance(fn, ast.FunctionDef) and fn.name in _RUNNERS
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute) and node.attr in ("theta", "gamma"))


def test_scale_reads_are_found():
    source = ("def _run_max_gumbel(e):\n    return e.params.theta * gamma\n"
              "def _run_record_clt(e):\n    def block():\n        return p.gamma\n"
              "def other(p):\n    return p.theta\n")
    assert scale_reads(source) == ["_run_max_gumbel.theta", "_run_record_clt.gamma"]


def test_replicated_runners_read_no_theta_scale():
    # the runners work at Params(1.0, beta): theta and gamma are no input to them
    assert all(callable(getattr(plevt.harness, name)) for name in _RUNNERS)
    assert scale_reads(Path(plevt.harness.__file__).read_text(encoding="utf-8")) == []


def test_report_refuses_a_field_past_the_double_range():
    # draws near 1e160 are finite, but their variance is not strict JSON
    e = Experiment(kind="sampler_gof", params=Params(1e-160, 2.0), n=50, seed=SeedSpec(7))
    with pytest.raises(DomainError, match="^empirical_var = inf leaves the double range"):
        run_experiment(e)


def test_dh_refuses_lindeberg_violation():
    # identity weight, s=1: b_n = 1/sqrt(k) which is > 0.3 for k <= 11
    e = Experiment(
        kind="dh_clt", n=100_000, k=10, s=1.0, weight=WeightFunction.identity(), reps=100
    )
    with pytest.raises(ExperimentRefusedError) as exc:
        run_experiment(e)
    diag = exc.value.diagnostics
    assert diag["bn"] == pytest.approx(1.0 / math.sqrt(10), rel=1e-12)
    assert "exceeds" in str(exc.value)


def test_dh_refuses_slow_normalization_before_drawing(monkeypatch):
    # identity weight, s = 1: ratio1 = 1/log n = 0.217 > 0.2 at n = 100, while
    # b_n = 1/sqrt(20) = 0.224 passes its 0.3 bound
    monkeypatch.setattr(plevt.harness, "top_order_statistics_rows", None)  # never drawn
    e = Experiment(kind="dh_clt", n=100, k=20, s=1.0, reps=100)
    with pytest.raises(ExperimentRefusedError, match="decays too slowly") as exc:
        run_experiment(e)
    diag = exc.value.diagnostics
    assert diag["ratio1"] == pytest.approx(1.0 / math.log(100), rel=1e-12)
    assert diag["bn"] == pytest.approx(1.0 / math.sqrt(20), rel=1e-12)


def test_dh_accepts_k_just_past_boundary():
    e = Experiment(
        kind="dh_clt", n=20_000, k=12, s=1.0, weight=WeightFunction.identity(),
        reps=100, seed=SeedSpec(3),
    )
    r = run_experiment(e)  # bn = 0.2887 < 0.3 -> allowed to run
    assert r.reps == 100


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_json_shape():
    e = Experiment(kind="sampler_gof", n=2000, seed=SeedSpec(5))
    r = run_experiment(e)
    d = report_to_json_dict(r)
    assert set(d) == {
        "kind", "reps", "empirical_mean", "empirical_var", "ks_distance",
        "reference", "threshold", "passed", "runtime_ms", "seed",
    }
    assert "extras" not in d  # diagnostics stay out of the report contract
    assert d["kind"] == "sampler_gof"
    parsed = json.loads(report_to_json(r))
    assert parsed["seed"] == 5
    assert isinstance(parsed["passed"], bool)


def test_stable_json_zeroes_runtime():
    e = Experiment(kind="sampler_gof", n=2000, seed=SeedSpec(5))
    d = report_to_json_dict(run_experiment(e), stable=True)
    assert d["runtime_ms"] == 0


def test_suite_json_is_array_in_run_order():
    exps = [
        Experiment(kind="quantile_error_order"),
        Experiment(kind="sampler_gof", n=2000, seed=SeedSpec(5)),
    ]
    results = run_suite(exps)
    arr = json.loads(suite_to_json(results, stable=True))
    assert [d["kind"] for d in arr] == ["quantile_error_order", "sampler_gof"]


def test_standard_suite_composition():
    exps = standard_suite()
    assert [e.kind for e in exps] == [
        "quantile_error_order", "sampler_gof", "max_gumbel",
        "hill_clt", "dh_clt", "record_clt",
    ]
    dh = exps[4]
    assert dh.k == 20 and dh.s == 2.0


def test_csv_summary_format():
    exps = [
        Experiment(kind="quantile_error_order"),
        Experiment(kind="sampler_gof", n=2000, seed=SeedSpec(5)),
    ]
    results = run_suite(exps)
    buf = io.StringIO()
    write_csv_summary(results, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "kind,n,k,reps,empirical_mean,empirical_var,ks_distance,threshold,passed,seed"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "quantile_error_order"
    assert first[-2] in ("true", "false")
    # round-trips through float(repr)
    float(lines[2].split(",")[4])


# ---------------------------------------------------------------------------
# single-kind behavior pins
# ---------------------------------------------------------------------------

def test_sampler_gof_passes_at_default_scale():
    r = run_experiment(Experiment(kind="sampler_gof", n=20_000, seed=SeedSpec(7)))
    assert r.passed
    assert r.ks_distance <= 1.95 / math.sqrt(20_000)
    assert r.extras["two_sample_ks"] <= r.extras["two_sample_threshold"]
    assert r.empirical_mean == pytest.approx(1.5, abs=0.05)


def test_error_order_report_values():
    r = run_experiment(Experiment(kind="quantile_error_order"))
    assert r.passed
    assert r.reference == "none"
    assert r.ks_distance == 0.0
    assert r.extras["weighted_ratio"] == pytest.approx(12.635, abs=0.01)
    assert len(r.extras["u_grid"]) == 7
    assert (np.diff(r.extras["raw_errors"]) < 0.0).all()


def test_max_gumbel_small_scale_runs():
    r = run_experiment(
        Experiment(kind="max_gumbel", n=2000, reps=300, seed=SeedSpec(21))
    )
    assert r.reference == "gumbel"
    assert r.reps == 300
    assert math.isfinite(r.empirical_mean)
