"""The edge-input contract of the public API.

One table, ``CONTRACT``, gives every callable in ``plevt.__all__`` the kind
of each of its parameters.  Each call must return only finite numbers or
raise a :class:`plevt.PlevtError` subclass, and must raise, rather than
coerce, where an argument is not of its kind: a string, a bool or ``None``
for a number, a float for a count or a record index.

Two tests read the table.  One sweeps every adversarial value of a kind
(strings, bools, ``None``, signed zeros, NaN, the infinities, subnormals,
1e308, 0-d, 2-d and empty arrays) through each parameter in turn, the
others held at a valid value; the other lets hypothesis draw all the
parameters at once.  A flag (``bool``) must be a ``bool`` or ``np.bool_``:
a string, ``None``, 0, 1 or NaN is refused, not read for its truth value.
A kind ending in ``?`` also takes ``None``, which the sweep holds while it
varies the other parameters, so that an ``Experiment`` is built with its
kind defaults and each field is swept on a call that can succeed.  Object
kinds (``Params``, ``SeedSpec``, ``SortedSample``, ``WeightFunction``, ...)
take valid instances only.  Counts that size an allocation are capped at
1e4, so that no draw asks for gigabytes.  Result records, whose
constructors check nothing because the library fills them from checked
values, are listed in ``RECORDS`` instead.
"""

from __future__ import annotations

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plevt
from plevt import Experiment, Params, SeedSpec, SortedSample, WeightFunction

# ---------------------------------------------------------------------------
# the kinds: adversarial values for numbers and arrays, valid instances for objects

NON_NUMBERS = ["1", "", "nan", True, False, np.bool_(True), np.bool_(False), None]
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e308, -1e308]
ODD_ARRAYS = [np.array(1.0), np.array(0.5), np.array([[0.5, 1.0], [2.0, 3.0]]),
              np.array([]), [], np.array(["1", "2"]), np.array([True, False]),
              np.array([None, 1.0]), np.array([1.0 + 0.0j]), [1.0, "2"]]
ODD = NON_NUMBERS + SPECIAL_FLOATS + ODD_ARRAYS

#: Every value the sweep passes for a parameter of each kind.
ADVERSARIAL = {
    # an integer that sizes nothing (a moment order, a record index, a seed)
    # (10**400 is past the double range, where a count would meet a float)
    "count": ODD + [0, -1, 1, 2**64, 10**400, np.int64(-5), np.uint64(2**64 - 1), 1.0, 3.0],
    # an integer that sizes an allocation (n, reps, k, n_max)
    "size": ODD + [0, -1, 1, 2, 10**4, np.int64(7), 1.0, 3.0],
    "real": ODD + [0, 1, -3, 10**6, np.float64(2.5), np.float32(0.5), np.int32(2)],
    "tail mass": ODD + [0.5, 1.0, 1, 2, np.float64(0.25), np.float32(0.5)],
    # 1-based record positions: integers only, a float is refused, not truncated
    "record indices": ODD + [[1, 2, 3], [0, 1, 2], [3, 2, 1], [1, 2, 2], [1.0, 2.0, 3.0],
                             [1.5, 2.7, 3.1], ["1", "2", "3"], np.array([True, True, True]),
                             np.array([1, 2, 3], np.uint64),
                             np.array([1, 2**63, 2**64 - 1], np.uint64)],
    "real array": ODD + [[math.nan], [1.0, math.inf], [1e308, -1e308], [-1e308, 1e308],
                         [-0.0, 0.0], [5e-324, 1e-300], [0.1, 0.2, 0.3], [3, 1, 2],
                         np.array([1, 2, 3]), np.array([0.5, 0.75], np.float32)],
    "bool": NON_NUMBERS + ["no", "False", 0, 1, 0.0, math.nan, np.int64(1), np.array(True)],
}

#: The value a parameter of each kind holds while another one is swept.
VALID = {"count": 5, "size": 3, "real": 2.0, "tail mass": 0.25,
         "record indices": np.array([1, 2, 3]), "real array": np.array([0.5, 1.0, 2.0]),
         "bool": False}

any_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
float_lists = st.lists(any_float, max_size=12)


def _counts(lo: int, hi: int):
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints.map(np.int64), st.sampled_from(ODD))


#: What hypothesis draws for each kind.
DRAWN = {
    "count": _counts(-2**63, 2**63 - 1),
    "size": _counts(-3, 10**4),
    "real": st.one_of(any_float, st.integers(-10**6, 10**6), st.sampled_from(ODD)),
    "tail mass": st.one_of(st.floats(0.0, 1.0), st.sampled_from(ODD)),
    "record indices": st.one_of(st.lists(st.integers(-2, 2**63 - 1), max_size=4),
                                st.sampled_from(ADVERSARIAL["record indices"])),
    "real array": st.one_of(float_lists, float_lists.map(sorted).map(np.array),
                            st.lists(st.floats(0.0, 1.0), max_size=12).map(np.array),
                            st.sampled_from(ADVERSARIAL["real array"])),
    "bool": st.sampled_from(ADVERSARIAL["bool"]),
}

P = Params(1.0, 2.0)
SAMPLE = SortedSample(np.sort(plevt.mixture_values(40, P, SeedSpec(3))))
QUICK = Experiment(kind="quantile_error_order")

#: Valid instances of the object kinds; the first is the one a sweep holds.
OBJECTS = {
    "Params": [P, Params(2.5, 1.5), Params(0.5, 11.0), Params(1e-3, 1.0001)],
    "SeedSpec": [SeedSpec(7), SeedSpec(0, 2**64 - 1), SeedSpec(2**64 - 1, 5)],
    "SortedSample": [SAMPLE, SortedSample(np.ones(6)),
                     SortedSample(np.arange(1.0, 31.0) * 1e150)],
    "WeightFunction": [WeightFunction.identity(), WeightFunction.log1p(),
                       WeightFunction.power(-400.0), WeightFunction.power(160.0),
                       WeightFunction.table([1.0, 2.0, 3.0])],
    "Experiment": [QUICK, Experiment(kind="record_clt", n=5, reps=100, rerun_on_fail=False)],
    "Thresholds": [plevt.Thresholds(), plevt.Thresholds(ks=0.1, mean_window=0.2)],
    "experiments": [[QUICK], []],
    # the values the benchmark passes to run_suite's ignored workers keyword,
    # which ROADMAP item 11 deletes
    "worker count": [1, 2],
    "McReport": [plevt.run_experiment(QUICK)],
    "kind name": list(plevt.harness.KINDS) + ["", "nope", "MAX_GUMBEL"],
    "weight spec": ["identity", "log1p", "pow:2", "pow:nan", "pow:x", "bogus", " identity "],
    "label": ["w"],
    "weights": [lambda j: j, np.sqrt],
    "text file": [io.StringIO],  # a fresh one per call
    "csv path": [],  # filled by the fixture below
}

CONTRACT = {
    # distribution
    "Params": {"theta": "real", "beta": "real"},
    "pdf": {"x": "real array", "p": "Params"},
    "survival": {"x": "real array", "p": "Params"},
    "cdf": {"x": "real array", "p": "Params"},
    "moment": {"n": "count", "p": "Params"},
    "moment_radius_sequence": {"p": "Params", "n_max": "size"},
    "von_mises_ratio": {"x": "real", "p": "Params"},
    "fit_method_of_moments": {"sample": "real array"},
    # quantile
    "quantile_exact": {"u": "tail mass", "p": "Params"},
    "quantile_from_log_tail": {"log_inv_u": "real", "p": "Params"},
    "quantile_values": {"u": "real array", "p": "Params"},
    "quantile_tail_expansion": {"u": "tail mass", "p": "Params"},
    # sampling
    "SeedSpec": {"master_seed": "count", "stream_id": "count"},
    "SortedSample": {"values": "real array"},
    "mixture_values": {"n": "size", "p": "Params", "seed": "SeedSpec"},
    "sample_mixture": {"n": "size", "p": "Params", "seed": "SeedSpec"},
    "sample_inverse_cdf": {"n": "size", "p": "Params", "seed": "SeedSpec"},
    "spacings": {"sample": "SortedSample", "k": "size"},
    "read_values_csv": {"path": "csv path"},
    "write_values_csv": {"values": "real array", "fh": "text file"},
    # tail estimation
    "WeightFunction": {"label": "label", "f": "weights"},
    "WeightFunction.power": {"a": "real"},
    "WeightFunction.table": {"values": "real array", "label": "label"},
    "WeightFunction.from_spec": {"spec": "weight spec"},
    "WeightFunction.weights": {"self": "WeightFunction", "k": "size"},
    "hill": {"sample": "SortedSample", "k": "size"},
    "dh_statistic": {"sample": "SortedSample", "f": "WeightFunction", "k": "size", "s": "real"},
    "check_dh_conditions": {"f": "WeightFunction", "n": "count", "k": "size", "s": "real"},
    "default_k": {"n": "count"},
    # records
    "RecordSequence": {"values": "real array", "indices": "record indices"},
    "extract_records": {"stream": "real array"},
    "simulate_record": {"n": "count", "p": "Params", "seed": "SeedSpec"},
    "standardized_record": {"x_n": "real array", "n": "count", "p": "Params"},
    # harness
    "Experiment": {"kind": "kind name", "params": "Params", "n": "size?", "k": "size?",
                   "weight": "WeightFunction?", "s": "real?", "reps": "size?", "seed": "SeedSpec",
                   "thresholds": "Thresholds?", "rerun_on_fail": "bool"},
    "default_thresholds": {"kind": "kind name"},
    "derived_rerun_seed": {"seed": "SeedSpec"},
    "run_experiment": {"e": "Experiment"},
    "run_suite": {"experiments": "experiments", "workers": "worker count"},
    "standard_suite": {"params": "Params", "seed": "SeedSpec"},
    "report_to_json": {"report": "McReport", "stable": "bool"},
    "Thresholds": {"ks": "real?", "mean_window": "real?", "var_window": "real?"},
    # not exported by the package, but public in its module
    "gof.ks_two_sample": {"x": "real array", "y": "real array"},
}

#: Result records: the library fills them from checked values, and their
#: constructors check nothing.
RECORDS = {"FitResult", "QuantileResult", "TailStatistics", "McReport"}


def resolve(name: str):
    obj = plevt
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def assert_finite(value, where: str) -> None:
    """Every number reachable from ``value`` is finite."""
    if isinstance(value, (float, np.floating, complex, np.complexfloating)):
        assert np.isfinite(value), f"{where} = {value!r}"
    elif isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            assert np.isfinite(value).all(), f"{where} holds {value!r}"
        elif value.dtype == object:
            for i, item in enumerate(value.ravel()):
                assert_finite(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_finite(item, f"{where}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            assert_finite(item, f"{where}[{i}]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for fld in dataclasses.fields(value):
            assert_finite(getattr(value, fld.name), f"{where}.{fld.name}")


def not_of_kind(kind: str, value) -> bool:
    """True for a value that a parameter of ``kind`` must refuse, not coerce:
    a count that is not an integer, a flag that is not a bool, record indices
    whose dtype is not integer, or a real or an array of reals whose dtype is
    not integer or floating (strings, bools, None, complex)."""
    if kind.endswith("?"):
        return value is not None and not_of_kind(kind[:-1], value)
    if kind in ("count", "size"):
        return not isinstance(value, (int, np.integer)) or isinstance(value, bool)
    if kind == "bool":
        return not isinstance(value, (bool, np.bool_))
    if kind == "record indices":
        return np.asarray(value).dtype.kind not in "iu"
    if kind in ADVERSARIAL:
        return np.asarray(value).dtype.kind not in "iuf"
    return False


def check_call(name: str, kwargs: dict) -> None:
    """Call ``name`` with ``kwargs`` and hold the result to the contract."""
    params = CONTRACT[name]
    wrong = [param for param, kind in params.items() if not_of_kind(kind, kwargs[param])]
    kwargs = {k: v() if v is io.StringIO else v for k, v in kwargs.items()}
    fn = getattr(kwargs.pop("self"), name.rpartition(".")[2]) if "self" in kwargs else resolve(name)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fn(**kwargs)
    except plevt.PlevtError:
        return
    assert wrong == [], f"{name} took {wrong} of the wrong kind: {kwargs}"
    assert_finite(result, name)


@pytest.fixture(scope="module", autouse=True)
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "values.csv"
    path.write_text("x\n0.5\n1.5\n2.5\n")
    OBJECTS["csv path"][:] = [str(path)]


def _valid(kind: str):
    if kind.endswith("?"):
        return None
    return VALID[kind] if kind in VALID else OBJECTS[kind][0]


def _swept(kind: str) -> list:
    base = kind.removesuffix("?")
    values = ADVERSARIAL.get(base, OBJECTS.get(base))
    return [None, *values] if kind != base else values


def _drawn(kind: str):
    base = kind.removesuffix("?")
    strategy = DRAWN[base] if base in DRAWN else st.sampled_from(OBJECTS[base])
    return st.one_of(st.none(), strategy) if kind != base else strategy


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_every_adversarial_value(name):
    params = CONTRACT[name]
    for param, kind in params.items():
        for value in _swept(kind):
            check_call(name, {p: value if p == param else _valid(k) for p, k in params.items()})


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_drawn_values(name):
    strategies = {p: _drawn(k) for p, k in CONTRACT[name].items()}

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(st.fixed_dictionaries(strategies))
    def check(kwargs):
        check_call(name, kwargs)

    check()


#: Calls that coerced their argument, or raised a bare ValueError,
#: TypeError or OverflowError, before the checks of ``plevt.errors`` covered them.
EDGES = {
    "pdf of a string": lambda: plevt.pdf("1", P),
    "survival of a bool": lambda: plevt.survival(True, P),
    "cdf of a mixed list": lambda: plevt.cdf([1, "a"], P),
    "von_mises_ratio of a string": lambda: plevt.von_mises_ratio("1", P),
    "fit of strings": lambda: plevt.fit_method_of_moments(["1", "2", "4"]),
    "fit of a 2-d sample": lambda: plevt.fit_method_of_moments([[1.0, 2.0], [3.0, 4.0]]),
    "fit of a NaN": lambda: plevt.fit_method_of_moments([1.0, math.nan, 2.0]),
    "write_values_csv of strings": lambda: plevt.write_values_csv(["1"], io.StringIO()),
    "write_values_csv of a 0-d array": lambda: plevt.write_values_csv(np.array(1.0), io.StringIO()),
    "SortedSample of strings": lambda: SortedSample(["1", "2"]),
    "extract_records of strings": lambda: plevt.extract_records(["1", "2"]),
    "RecordSequence of strings": lambda: plevt.RecordSequence(["1", "2"], np.array([1, 2])),
    "RecordSequence of string indices": lambda: plevt.RecordSequence([1.0, 2.0], ["1", "2"]),
    "RecordSequence of float indices": lambda: plevt.RecordSequence([1.0, 2.0], [1.5, 2.7]),
    "standardized_record past the double range": lambda: plevt.standardized_record(1.0, 10**400, P),
    "simulate_record past the double range": lambda: plevt.simulate_record(10**400, P, SeedSpec(1)),
    "spacing plan at a k past the double range": lambda: plevt.tail.SpacingPlan.build(
        WeightFunction.identity(), 10, 10**400, 1.0),
    "spacings of a spacing past the double range":
        lambda: plevt.spacings(SortedSample(np.array([-1e308, 1e308])), 1),
    "hill of a spacing past the double range":
        lambda: plevt.hill(SortedSample(np.array([-1e308, 1e308])), 1),
    "weight table of bools": lambda: WeightFunction.table([True, True]),
    "two-sample KS of strings": lambda: plevt.gof.ks_two_sample(["1", "2"], ["3"]),
    "KS distance of an empty sample": lambda: plevt.gof.ks_distance_sorted(np.array([]), np.array([])),
    "KS distance at a cdf of another length":
        lambda: plevt.gof.ks_distance_sorted(np.arange(3.0), np.array([0.1, 0.5])),
    "KS distance at a NaN cdf value":
        lambda: plevt.gof.ks_distance_sorted(np.arange(3.0), np.array([0.1, math.nan, 0.9])),
    "KS distance at a 2-d cdf":
        lambda: plevt.gof.ks_distance_sorted(np.arange(3.0), np.array([[0.1], [0.5], [0.9]])),
    "moment past the double range": lambda: plevt.moment(1000, P),
    "standardized_record of a string": lambda: plevt.standardized_record("1", 5, P),
    "check_dh_conditions at k = n": lambda: plevt.check_dh_conditions(
        WeightFunction.identity(), 10, 10, 2.0),
    # 10**12 weights would ask for 7.3 TiB, which fails at once without the check
    "check_dh_conditions at k past the sample": lambda: plevt.check_dh_conditions(
        WeightFunction.identity(), 10, 10**12, 2.0),
}

#: theta = 5e-324 is a valid rate whose scale 1/theta leaves the double range:
#: calls that returned inf or warned there, and the quantity each refusal names.
TINY = Params(5e-324, 2.0)
THETA_SCALE = {
    "mixture_values": (lambda: plevt.mixture_values(3, TINY, SeedSpec(1)), "a draw"),
    "sample_mixture": (lambda: plevt.sample_mixture(3, TINY, SeedSpec(1)), "a draw"),
    "moment_radius_sequence": (lambda: plevt.moment_radius_sequence(TINY, 2), "moment radius"),
    "standardized_record": (lambda: plevt.standardized_record(1.0, 3, TINY), "gamma"),
    "Params.gamma": (lambda: TINY.gamma, "gamma"),
}
EDGES.update({f"{name} at theta = 5e-324": call for name, (call, _) in THETA_SCALE.items()})


#: The message an edge's refusal must match, where the refusal had another reason before.
EDGE_MESSAGES = {"fit of a NaN": "must all be finite"}


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_edge_is_refused(edge):
    with warnings.catch_warnings(), pytest.raises(plevt.DomainError, match=EDGE_MESSAGES.get(edge)):
        warnings.simplefilter("error")  # refused, not warned about first
        EDGES[edge]()


@pytest.mark.parametrize("name", sorted(THETA_SCALE))
def test_theta_scale_refusal_names_its_quantity(name):
    call, quantity = THETA_SCALE[name]
    with pytest.raises(plevt.DomainError, match=f"^{quantity} overflows float64 for Params"):
        call()
