"""Monte Carlo harness for the limit theorems.

Each experiment kind simulates replications of a standardized statistic and
compares the empirical law against its limiting reference:

* ``max_gumbel``      -- theta*(M_n - Q(1/n)) against the standard Gumbel law
* ``hill_clt``        -- sqrt(k)-free spacing statistic (identity weights,
                         power 1) standardized to N(0, 1)
* ``dh_clt``          -- double-indexed weighted spacing statistic for a
                         general weight function and power, standardized
* ``record_clt``      -- (X^(n) - gamma*n)/(gamma*sqrt(n)) against N(0, 1)
* ``sampler_gof``     -- one draw of the mixture sampler against the exact
                         cdf, plus a two-sample check against the
                         inverse-cdf sampler
* ``quantile_error_order`` -- deterministic check that the tail-expansion
                         error, weighted by log(1/u)^2, stays within a
                         bounded ratio across fourteen decades of u

The replicated kinds' statistics are invariant under x -> theta*x, so their
runners draw and solve in the scale-free theta*x, at ``Params(1.0, beta)``:
at any theta their reports are the theta = 1 report, bit for bit.  The
single-shot kinds report in data units at ``e.params``.

Replication r of an experiment draws from position r mod B of the
Philox key of stream ``seed.stream_id + (r // B)*B`` under its master seed
(:func:`plevt.sampling._block_rngs`), B = ``_REP_BLOCK``, so B is part of
the output contract and replication r does not depend on how many are
drawn.  One loop runs each runner's block function (draw, solve, reduce,
standardize) and writes the one array it returns into an output of all the
replications, allocated before the first block, in one thread: a thread
pool measured slower on every replicated kind.

Each kind is one entry of the ``_KINDS`` table: runner, default thresholds,
n and reps, the optional fields it takes (k for ``hill_clt``; k, weight and
s for ``dh_clt``), its refusal guards (a
:meth:`plevt.tail.SpacingPlan.conditions` diagnostic and what it measures)
and the streams a single-shot kind draws.  No other code tests a kind by
name.  A runner reads its seed and thresholds from its
:class:`Experiment` alone.  :class:`Thresholds` holds the tolerances of
the replicated kinds; the fixed bounds (refusal bounds, the KS factor of
``sampler_gof``, the error-ratio bound of ``quantile_error_order``) are
module constants.  Every replicated kind builds its report in one helper,
which sorts the standardized replications, compares them with the
reference law and keeps them in ``extras["replications"]``.

No replication draws a full sample.  ``max_gumbel``, ``hill_clt`` and
``dh_clt`` use only the top k+1 order statistics (k = 0 for the maximum),
which :func:`plevt.sampling.top_order_statistics_rows` draws exactly in law
from k+1 exponentials and one gamma variate (Renyi representation), so a
replication costs O(k) whatever n is.  ``record_clt`` draws the record's
log tail mass G_n ~ Gamma(n) as one gamma variate per replication
(:func:`plevt.records.record_log_tails`), so it costs O(1) in n.

A replicated experiment that misses its tolerances is re-run once with a
derived master seed (documented golden-ratio increment); only a second miss
is reported as a failure. The re-run decision depends only on the first
report, so the whole procedure stays deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, TextIO

import numpy as np

from . import gof
from .distribution import Params, cdf
from .errors import (
    DomainError, ExperimentRefusedError, ParameterError, check_bool, check_int, check_real,
)
from .quantile import _quantiles_at_log_tails, quantile_exact, quantile_tail_expansion
from .records import record_log_tails, standardized_record
from .sampling import (
    _U64,
    SeedSpec,
    _block_seed,
    _stream_stop,
    sample_inverse_cdf,
    sample_mixture,
    top_order_statistics_rows,
)
from .tail import SpacingPlan, WeightFunction, _power, _top_count, default_k

__all__ = [
    "Thresholds",
    "default_thresholds",
    "Experiment",
    "McReport",
    "derived_rerun_seed",
    "run_experiment",
    "run_suite",
    "standard_suite",
    "report_to_json",
]

#: Additive constant for the automatic re-run seed (64-bit golden ratio).
RERUN_SEED_INCREMENT = 0x9E3779B97F4A7C15


# Fixed bounds: the k1 (hill_clt), ratio1 and b_n (dh_clt) refusal bounds,
# the factor of sampler_gof's KS critical values and the largest
# weighted-error ratio that quantile_error_order passes.
_K1_BOUND = 1.5
_RATIO1_BOUND = 0.2
_BN_BOUND = 0.3
_GOF_FACTOR = 1.95
_ERROR_RATIO_BOUND = 50.0


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Tolerances of a replicated kind.

    ``ks`` bounds the KS distance to the reference law. ``mean_window`` and
    ``var_window`` are absolute windows around the reference mean and
    variance (0 and 1 for the normal kinds, Euler-Mascheroni and pi^2/6 for
    the Gumbel kind). ``None`` turns a check off.  A bound that is not
    ``None`` or a finite real >= 0 raises ParameterError: the JSON report
    would carry it as NaN or Infinity.
    """

    ks: float | None = None
    mean_window: float | None = None
    var_window: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not 0.0 <= check_real(v, f.name, ParameterError) < math.inf:
                raise ParameterError(f"{f.name} must be finite and >= 0, got {v!r}")


_MIN_REPS = 100
_REP_BLOCK = 2**14  # replications per block of an attempt, and so per Philox key


def default_thresholds(kind: str) -> Thresholds:
    """Default tolerances for an experiment kind."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown experiment kind {kind!r}")
    return _KINDS[kind].thresholds


@dataclass(frozen=True, slots=True)
class Experiment:
    """Configuration of one harness experiment.

    Unset fields, thresholds included, are filled with kind defaults; fields
    that do not apply to the kind must stay unset, and a single-shot kind
    (``sampler_gof``, ``quantile_error_order``) takes only its default
    thresholds.  ``seed.stream_id`` is the base stream index: the block of
    replications from ``first`` draws on stream ``stream_id + first``, and
    the streams ``stream_id .. stream_id + reps - 1`` must lie below 2**64.
    ``rerun_on_fail`` must be a bool.  The replicated kinds read only
    ``params.beta``; the single-shot kinds read theta too.
    """

    kind: str
    params: Params = Params(1.0, 2.0)
    n: int | None = None
    k: int | None = None
    weight: WeightFunction | None = None
    s: float | None = None
    reps: int | None = None
    seed: SeedSpec = SeedSpec(7)
    thresholds: Thresholds | None = None
    rerun_on_fail: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ParameterError(
                f"unknown experiment kind {self.kind!r}; expected one of {', '.join(KINDS)}"
            )
        spec = _KINDS[self.kind]
        set_field = object.__setattr__
        count = partial(check_int, error=ParameterError)
        rerun = check_bool(self.rerun_on_fail, "rerun_on_fail", ParameterError)
        set_field(self, "rerun_on_fail", rerun)
        if self.thresholds is None:
            set_field(self, "thresholds", spec.thresholds)
        elif spec.reps is None and self.thresholds != spec.thresholds:
            raise ParameterError(
                f"{self.kind} checks fixed bounds and takes no thresholds, "
                f"got {self.thresholds}"
            )

        if spec.n is None:
            if self.n is not None:
                raise ParameterError(f"{self.kind} takes no sample size")
        elif self.n is None:
            set_field(self, "n", spec.n)
        else:
            set_field(self, "n", count(self.n, "sample size", 2))

        if spec.reps is None:
            if self.reps is not None and count(self.reps, "reps") != 1:
                raise ParameterError(f"{self.kind} runs exactly once")
            set_field(self, "reps", 1)
        else:
            reps = spec.reps if self.reps is None else count(self.reps, "reps")
            if reps < _MIN_REPS:
                raise ParameterError(
                    f"replicated experiments need reps >= {_MIN_REPS}, got {reps}"
                )
            set_field(self, "reps", reps)

        streams = spec.streams if spec.reps is None else self.reps
        _stream_stop(self.seed.stream_id, streams, ParameterError)

        for name, noun in (("k", "top-statistics count k"), ("weight", "weight function"),
                           ("s", "power s")):
            if name not in spec.takes and getattr(self, name) is not None:
                raise ParameterError(f"{self.kind} takes no {noun}")
        if "k" in spec.takes:
            k = default_k(self.n) if self.k is None else self.k
            set_field(self, "k", _top_count(self.n, k, ParameterError))
        if "weight" in spec.takes and self.weight is None:
            set_field(self, "weight", WeightFunction.identity())
        if "s" in spec.takes:
            set_field(self, "s", 1.0 if self.s is None else _power(self.s, ParameterError))


@dataclass(frozen=True, slots=True)
class McReport:
    """Outcome of one experiment.

    The JSON form contains exactly the ten declared fields; ``extras``
    carries side information (diagnostics, secondary statistics, attempt
    count, the sorted replications) for programmatic use only.
    """

    kind: str
    reps: int
    empirical_mean: float
    empirical_var: float
    ks_distance: float
    reference: str
    threshold: float
    passed: bool
    runtime_ms: int
    seed: int
    extras: dict = field(default_factory=dict, compare=False, repr=False)


def report_to_json_dict(report: McReport, *, stable: bool = False) -> dict:
    """Strict JSON dict of a report; ``stable`` zeroes the wall-clock field
    so equal-seed runs compare byte-identical.  A ``stable`` that is not a
    bool raises DomainError."""
    d = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "extras"}
    if check_bool(stable, "stable"):
        d["runtime_ms"] = 0
    return d


def report_to_json(report: McReport, *, stable: bool = False) -> str:
    return json.dumps(report_to_json_dict(report, stable=stable), sort_keys=True)


def suite_to_json(results, *, stable: bool = False) -> str:
    """JSON array of report objects, one per experiment, run order kept."""
    dicts = [report_to_json_dict(r, stable=stable) for _, r in results]
    return json.dumps(dicts, sort_keys=True, indent=2)


def derived_rerun_seed(seed: SeedSpec) -> SeedSpec:
    """Master seed for the single automatic re-run of a failed experiment."""
    return SeedSpec(
        (seed.master_seed + RERUN_SEED_INCREMENT) % _U64, seed.stream_id
    )


#: Reference laws of the replicated kinds: the name of their cdf in
#: :mod:`plevt.gof` (looked up at call time, so a wrapper installed on the
#: module is seen), their mean and their variance.
_REFERENCES = {
    "gumbel": ("gumbel_cdf", float(np.euler_gamma), math.pi**2 / 6.0),
    "std_normal": ("std_normal_cdf", 0.0, 1.0),
}


def _mean_var(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample variance; one past the double range is inf, which _report refuses."""
    with np.errstate(over="ignore"):
        return float(np.mean(values)), float(np.var(values, ddof=1))


def _report(e: Experiment, **measured) -> McReport:
    """Report of one attempt at ``e``: its kind, reps and master seed with
    the measured fields; :func:`run_experiment` fills in the runtime.  A
    measured float that is not finite, which strict JSON cannot hold,
    raises DomainError naming its field."""
    for name, value in measured.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{name} = {value!r} leaves the double range for {e.params}")
    return McReport(kind=e.kind, reps=e.reps, runtime_ms=0, seed=e.seed.master_seed, **measured)


def _replicated_report(
    e: Experiment, values: np.ndarray, reference: str, extras: dict
) -> McReport:
    """Report of a replicated attempt: the standardized replications against
    the reference law, with the sorted replications kept in the extras."""
    th = e.thresholds
    cdf_name, mean_target, var_target = _REFERENCES[reference]
    zs = np.sort(values)
    mean, var = _mean_var(zs)
    ks = gof.ks_distance_sorted(zs, getattr(gof, cdf_name)(zs))
    passed = (
        (th.ks is None or ks <= th.ks)
        and (th.mean_window is None or abs(mean - mean_target) <= th.mean_window)
        and (th.var_window is None or abs(var - var_target) <= th.var_window)
    )
    return _report(
        e,
        empirical_mean=mean,
        empirical_var=var,
        ks_distance=ks,
        reference=reference,
        threshold=0.0 if th.ks is None else float(th.ks),
        passed=passed,
        extras={"replications": zs, **extras},
    )


def _replicate(e: Experiment, block) -> np.ndarray:
    """The ``e.reps`` replications: one output, allocated before anything is
    drawn, filled with the array ``block(seed, count)`` returns for each
    block of ``_REP_BLOCK`` replications."""
    out = np.empty(e.reps)
    for first in range(0, e.reps, _REP_BLOCK):
        count = min(_REP_BLOCK, e.reps - first)
        out[first:first + count] = block(_block_seed(e.seed, first), count)
    return out


def _run_max_gumbel(e: Experiment) -> McReport:
    """``extras["centering"]`` is theta*Q(1/n), the centering in theta*x."""
    p = Params(1.0, e.params.beta)
    q_n = quantile_exact(1.0 / e.n, p).value

    def block(seed, count):
        return top_order_statistics_rows(e.n, 0, p, seed, count)[:, 0] - q_n

    return _replicated_report(e, _replicate(e, block), "gumbel", {"centering": q_n})


def _run_spacings_clt(e: Experiment) -> McReport:
    """``hill_clt`` (identity weights, s = 1) and ``dh_clt``."""
    p = Params(1.0, e.params.beta)
    k = e.k
    weight = WeightFunction.identity() if e.weight is None else e.weight
    s = 1.0 if e.s is None else e.s
    plan = SpacingPlan.build(weight, e.n, k, s)
    diag = plan.conditions()
    bounds = {"k1": _K1_BOUND, "ratio1": _RATIO1_BOUND, "bn": _BN_BOUND}  # read at call time
    for key, what in _KINDS[e.kind].guards:
        if diag[key] > bounds[key]:
            raise ExperimentRefusedError(
                f"{what} = {diag[key]:.3g} exceeds {bounds[key]:g} (n={e.n}, k={k})",
                diagnostics=diag,
            )

    def block(seed, count):
        t = plan.sums(top_order_statistics_rows(e.n, k, p, seed, count))
        with np.errstate(over="ignore"):  # a z that is not finite is refused just below
            z = (t - plan.a_n) / plan.s_n
        if not np.isfinite(z).all():
            raise DomainError(f"(t_n - a_n) / s_n overflows float64 at s = {s!r}")
        return z

    extras = {"k": k, "s": s, "weight": weight.label, **diag}
    return _replicated_report(e, _replicate(e, block), "std_normal", extras)


def _run_record_clt(e: Experiment) -> McReport:
    p = Params(1.0, e.params.beta)
    n = e.n

    def block(seed, count):
        x = _quantiles_at_log_tails(record_log_tails(n, seed, count), p)
        return standardized_record(x, n, p)

    return _replicated_report(e, _replicate(e, block), "std_normal", {})


def _run_sampler_gof(e: Experiment) -> McReport:
    p = e.params
    mix = sample_mixture(e.n, p, e.seed)
    ks_one = gof.ks_distance_sorted(mix.values, cdf(mix.values, p))
    crit_one = _GOF_FACTOR / math.sqrt(e.n)

    inv = sample_inverse_cdf(e.n, p, _block_seed(e.seed, 1))
    ks_two = gof.ks_two_sample(mix.values, inv.values)
    crit_two = _GOF_FACTOR * math.sqrt(2.0 / e.n)

    mean, var = _mean_var(mix.values)
    return _report(
        e,
        empirical_mean=mean,
        empirical_var=var,
        ks_distance=ks_one,
        reference="pseudo_lindley",
        threshold=crit_one,
        passed=ks_one <= crit_one and ks_two <= crit_two,
        extras={
            "two_sample_ks": ks_two,
            "two_sample_threshold": crit_two,
            "n": e.n,
        },
    )


#: u-grid for the tail-expansion error check: seven decades, 1e-2 .. 1e-14.
ERROR_ORDER_U_GRID = tuple(float(10.0**-d) for d in range(2, 15, 2))


def _run_quantile_error_order(e: Experiment) -> McReport:
    p = e.params
    raw = []
    weighted = []
    for u in ERROR_ORDER_U_GRID:
        big_l = -math.log(u)
        err = abs(quantile_exact(u, p).value - quantile_tail_expansion(u, p))
        raw.append(err)
        weighted.append(err * big_l * big_l)
    weighted_arr = np.asarray(weighted)
    ratio = float(np.max(weighted_arr) / np.min(weighted_arr))
    mean, var = _mean_var(weighted_arr)
    return _report(
        e,
        empirical_mean=mean,
        empirical_var=var,
        ks_distance=0.0,
        reference="none",
        threshold=_ERROR_RATIO_BOUND,
        passed=ratio <= _ERROR_RATIO_BOUND,
        extras={
            "u_grid": list(ERROR_ORDER_U_GRID),
            "raw_errors": raw,
            "weighted_errors": weighted,
            "weighted_ratio": ratio,
        },
    )


@dataclass(frozen=True, slots=True)
class _Kind:
    """Everything the harness knows about one experiment kind: its runner,
    default tolerances, default sample size (None: takes none) and
    replication count (None: runs once), the optional fields it takes, its
    refusal guards (a :meth:`SpacingPlan.conditions` key refused above its
    bound, and what the key measures) and the streams it draws if it runs once."""

    run: Callable[[Experiment], McReport]
    thresholds: Thresholds
    n: int | None
    reps: int | None
    takes: tuple[str, ...] = ()
    guards: tuple[tuple[str, str], ...] = ()
    streams: int = 1


_KINDS = {
    "max_gumbel": _Kind(_run_max_gumbel, Thresholds(ks=0.05), 100_000, 2000),
    "hill_clt": _Kind(
        _run_spacings_clt, Thresholds(ks=0.08, mean_window=0.15, var_window=0.30), 100_000, 3000,
        takes=("k",),
        guards=(("k1", "k grows too fast for the Hill CLT: k^(3/4)/log n"),),
    ),
    "dh_clt": _Kind(
        _run_spacings_clt, Thresholds(ks=0.10, mean_window=0.20), 100_000, 3000,
        takes=("k", "weight", "s"),
        guards=(
            ("ratio1", "weight normalization decays too slowly: s_n(f,1)/(s_n(f,s) log n)"),
            ("bn", "a single weight dominates the variance: max f(j)/j^s / s_n"),
        ),
    ),
    "record_clt": _Kind(
        _run_record_clt, Thresholds(ks=0.05, mean_window=0.05, var_window=0.10), 400, 5000
    ),
    # two samples, on streams stream_id and stream_id + 1
    "sampler_gof": _Kind(_run_sampler_gof, Thresholds(), 100_000, None, streams=2),
    "quantile_error_order": _Kind(_run_quantile_error_order, Thresholds(), None, None),
}

KINDS = tuple(_KINDS)

#: Kinds that average a standardized statistic over many replications.
REPLICATED_KINDS = frozenset(k for k, spec in _KINDS.items() if spec.reps is not None)

#: Kinds whose outcome depends on the seed: every kind that draws a sample
#: (all but the deterministic quantile check); these get the automatic re-run.
STOCHASTIC_KINDS = frozenset(k for k, spec in _KINDS.items() if spec.n is not None)


def run_experiment(e: Experiment) -> McReport:
    """Run one experiment, including the single automatic re-run on a miss.

    Raises :class:`ExperimentRefusedError` when the configuration violates
    the growth conditions of the limit theorem (no sampling happens then).
    """
    runner = _KINDS[e.kind].run
    t0 = time.perf_counter()
    report = runner(e)
    attempts = 1
    if not report.passed and e.rerun_on_fail and e.kind in STOCHASTIC_KINDS:
        first = {
            "seed": report.seed,
            "empirical_mean": report.empirical_mean,
            "empirical_var": report.empirical_var,
            "ks_distance": report.ks_distance,
        }
        report = runner(replace(e, seed=derived_rerun_seed(e.seed)))
        report.extras["first_attempt"] = first
        attempts = 2
    runtime_ms = int(round((time.perf_counter() - t0) * 1000.0))
    report.extras["attempts"] = attempts
    return replace(report, runtime_ms=runtime_ms)


def run_suite(experiments, workers: int = 1) -> list[tuple[Experiment, McReport]]:
    """Run experiments in order; returns (experiment, report) pairs.

    ``workers`` is ignored: replications run serially.  It is kept only
    because the benchmark passes it; ROADMAP item 11 deletes it once item 1
    has re-based the benchmark."""
    return [(e, run_experiment(e)) for e in experiments]


def standard_suite(
    params: Params = Params(1.0, 2.0), seed: SeedSpec = SeedSpec(7)
) -> list[Experiment]:
    """Default battery covering every experiment kind once."""
    return [
        Experiment(kind="quantile_error_order", params=params, seed=seed),
        Experiment(kind="sampler_gof", params=params, seed=seed),
        Experiment(kind="max_gumbel", params=params, seed=seed),
        Experiment(kind="hill_clt", params=params, seed=seed),
        Experiment(
            kind="dh_clt",
            params=params,
            k=20,
            weight=WeightFunction.identity(),
            s=2.0,
            seed=seed,
        ),
        Experiment(kind="record_clt", params=params, seed=seed),
    ]


def write_csv_summary(results, fh: TextIO) -> None:
    """One summary row per experiment; floats at full repr precision."""
    fh.write("kind,n,k,reps,empirical_mean,empirical_var,ks_distance,threshold,passed,seed\n")
    for e, r in results:
        row = [
            r.kind,
            "" if e.n is None else str(e.n),
            "" if e.k is None else str(e.k),
            str(r.reps),
            repr(r.empirical_mean),
            repr(r.empirical_var),
            repr(r.ks_distance),
            repr(r.threshold),
            str(r.passed).lower(),
            str(r.seed),
        ]
        fh.write(",".join(row) + "\n")
