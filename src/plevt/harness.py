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

Replication r of an experiment draws from the Philox stream
``seed.stream_id + r`` under the experiment's master seed, so suites are
reproducible one replication at a time.  An attempt draws every
replication in one loop, then solves, reduces and standardizes them as
arrays; only ``record_clt`` keeps a scalar solve per replication, which the
array solver can miss by one ulp.  A thread pool measured slower than one
thread, so the ``workers`` argument of :func:`run_experiment` and
:func:`run_suite` is accepted for compatibility and changes nothing.
Aggregation sorts the replication outputs before computing moments and the
Kolmogorov-Smirnov distance; the sorted standardized replications of
``hill_clt``, ``dh_clt`` and ``record_clt`` are kept in
``extras["replications"]``.

No replication draws a full sample.  ``max_gumbel``, ``hill_clt`` and
``dh_clt`` use only the top k+1 order statistics (k = 0 for the maximum),
which :func:`plevt.sampling.top_order_statistics_rows` draws exactly in law
from k+1 exponentials and one gamma variate (Renyi representation), so a
replication costs O(k) whatever n is.  ``record_clt`` draws the record's
log tail mass G_n ~ Gamma(n) as one gamma variate, shared with
:func:`plevt.records.simulate_record`, so it costs O(1) in n.

A replicated experiment that misses its tolerances is re-run once with a
derived master seed (documented golden-ratio increment); only a second miss
is reported as a failure. The re-run decision depends only on the first
report, so the whole procedure stays deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np

from . import gof
from .distribution import Params, cdf
from .errors import DomainError, ExperimentRefusedError, ParameterError
from .quantile import quantile_exact, quantile_tail_expansion
from .records import record_log_tail, record_value_from_log_tail
from .sampling import (
    SeedSpec,
    sample_inverse_cdf,
    sample_mixture,
    top_order_statistics_rows,
)
from .tail import (
    WeightFunction,
    check_dh_conditions,
    check_k1,
    default_k,
    dh_statistic_rows,
    standardize_dh,
)

__all__ = [
    "KINDS",
    "REPLICATED_KINDS",
    "STOCHASTIC_KINDS",
    "Thresholds",
    "default_thresholds",
    "Experiment",
    "McReport",
    "derived_rerun_seed",
    "run_experiment",
    "run_suite",
    "standard_suite",
    "report_to_json_dict",
    "report_to_json",
    "suite_to_json",
    "write_csv_summary",
]

KINDS = (
    "max_gumbel",
    "hill_clt",
    "dh_clt",
    "record_clt",
    "sampler_gof",
    "quantile_error_order",
)

#: Kinds that average a standardized statistic over many replications.
REPLICATED_KINDS = frozenset(
    {"max_gumbel", "hill_clt", "dh_clt", "record_clt"}
)

#: Kinds whose outcome depends on the seed (everything but the
#: deterministic quantile check); these get the automatic re-run.
STOCHASTIC_KINDS = REPLICATED_KINDS | {"sampler_gof"}

#: Additive constant for the automatic re-run seed (64-bit golden ratio).
RERUN_SEED_INCREMENT = 0x9E3779B97F4A7C15

_SEED_MOD = 2**64


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Tolerances for one experiment kind.

    ``None`` disables the corresponding check. ``mean_window`` and
    ``var_window`` are absolute windows around the reference mean and
    variance (0 and 1 for the normal kinds, Euler-Mascheroni and pi^2/6 for
    the Gumbel kind).
    """

    ks: float | None = None
    mean_window: float | None = None
    var_window: float | None = None
    k1_bound: float = 1.5
    ratio1_bound: float = 0.2
    bn_bound: float = 0.3
    growth_min: float = 5.0
    error_ratio_bound: float = 50.0
    gof_factor: float = 1.95


_DEFAULT_THRESHOLDS = {
    "max_gumbel": Thresholds(ks=0.05),
    "hill_clt": Thresholds(ks=0.08, mean_window=0.15, var_window=0.30),
    "dh_clt": Thresholds(ks=0.10, mean_window=0.20),
    "record_clt": Thresholds(ks=0.05, mean_window=0.05, var_window=0.10),
    "sampler_gof": Thresholds(),
    "quantile_error_order": Thresholds(),
}

_DEFAULT_N = {
    "max_gumbel": 100_000,
    "hill_clt": 100_000,
    "dh_clt": 100_000,
    "record_clt": 400,
    "sampler_gof": 100_000,
}

_DEFAULT_REPS = {
    "max_gumbel": 2000,
    "hill_clt": 3000,
    "dh_clt": 3000,
    "record_clt": 5000,
}

_MIN_REPS = 100


def default_thresholds(kind: str) -> Thresholds:
    """Default tolerances for an experiment kind."""
    if kind not in _DEFAULT_THRESHOLDS:
        raise ParameterError(f"unknown experiment kind {kind!r}")
    return _DEFAULT_THRESHOLDS[kind]


@dataclass(frozen=True, slots=True)
class Experiment:
    """Configuration of one harness experiment.

    Unset fields are filled with kind defaults; fields that do not apply to
    the kind must stay unset. ``seed.stream_id`` is the base stream index,
    replication ``r`` uses stream ``stream_id + r``.
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
        set_field = object.__setattr__

        if self.kind == "quantile_error_order":
            if self.n is not None:
                raise ParameterError("quantile_error_order takes no sample size")
        elif self.n is None:
            set_field(self, "n", _DEFAULT_N[self.kind])
        else:
            n = int(self.n)
            if n < 2:
                raise ParameterError(f"sample size must be >= 2, got {n}")
            set_field(self, "n", n)

        if self.kind in REPLICATED_KINDS:
            reps = _DEFAULT_REPS[self.kind] if self.reps is None else int(self.reps)
            if reps < _MIN_REPS:
                raise ParameterError(
                    f"replicated experiments need reps >= {_MIN_REPS}, got {reps}"
                )
            set_field(self, "reps", reps)
        else:
            if self.reps not in (None, 1):
                raise ParameterError(f"{self.kind} runs exactly once")
            set_field(self, "reps", 1)

        if self.kind in ("hill_clt", "dh_clt"):
            k = default_k(self.n) if self.k is None else int(self.k)
            if not 1 <= k <= self.n - 1:
                raise ParameterError(f"need 1 <= k <= n-1, got k={k}, n={self.n}")
            set_field(self, "k", k)
        elif self.k is not None:
            raise ParameterError(f"{self.kind} takes no top-statistics count k")

        if self.kind == "dh_clt":
            set_field(
                self,
                "weight",
                WeightFunction.identity() if self.weight is None else self.weight,
            )
            s = 1.0 if self.s is None else float(self.s)
            if not math.isfinite(s) or s < 1.0:
                raise ParameterError(f"power s must be finite and >= 1, got {s}")
            set_field(self, "s", s)
        else:
            if self.weight is not None:
                raise ParameterError(f"{self.kind} takes no weight function")
            if self.s is not None:
                raise ParameterError(f"{self.kind} takes no power s")

    def resolved_thresholds(self) -> Thresholds:
        return self.thresholds if self.thresholds is not None else default_thresholds(self.kind)


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


_JSON_FIELDS = (
    "kind",
    "reps",
    "empirical_mean",
    "empirical_var",
    "ks_distance",
    "reference",
    "threshold",
    "passed",
    "runtime_ms",
    "seed",
)


def report_to_json_dict(report: McReport, *, stable: bool = False) -> dict:
    """Strict JSON dict of a report; ``stable`` zeroes the wall-clock field
    so equal-seed runs compare byte-identical."""
    d = {name: getattr(report, name) for name in _JSON_FIELDS}
    if stable:
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
        (seed.master_seed + RERUN_SEED_INCREMENT) % _SEED_MOD, seed.stream_id
    )


def _ks_threshold(th: Thresholds) -> float:
    return 0.0 if th.ks is None else float(th.ks)


def _replication_seeds(e: Experiment, seed: SeedSpec) -> list[SeedSpec]:
    """Replication r's stream, ``seed.stream_id + r``, for r = 0..reps-1."""
    return [seed.stream(seed.stream_id + r) for r in range(e.reps)]


def _normal_summary(values: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Sorted values, their mean, variance and KS distance to N(0, 1)."""
    zs = np.sort(values)
    mean = float(np.mean(zs))
    var = float(np.var(zs, ddof=1))
    ks = gof.ks_distance_sorted(zs, gof.std_normal_cdf(zs))
    return zs, mean, var, ks


def _window_checks(
    mean: float,
    var: float,
    ks: float,
    th: Thresholds,
    *,
    mean_target: float = 0.0,
    var_target: float = 1.0,
) -> bool:
    ok = True
    if th.ks is not None:
        ok = ok and ks <= th.ks
    if th.mean_window is not None:
        ok = ok and abs(mean - mean_target) <= th.mean_window
    if th.var_window is not None:
        ok = ok and abs(var - var_target) <= th.var_window
    return ok


def _run_max_gumbel(e: Experiment, th: Thresholds, seed: SeedSpec) -> McReport:
    p = e.params
    q_n = quantile_exact(1.0 / e.n, p).value
    maxima = top_order_statistics_rows(e.n, 0, p, _replication_seeds(e, seed))[:, 0]
    zs = np.sort(p.theta * (maxima - q_n))
    mean = float(np.mean(zs))
    var = float(np.var(zs, ddof=1))
    ks = gof.ks_distance_sorted(zs, gof.gumbel_cdf(zs))
    passed = _window_checks(
        mean,
        var,
        ks,
        th,
        mean_target=float(np.euler_gamma),
        var_target=math.pi**2 / 6.0,
    )
    return McReport(
        kind=e.kind,
        reps=e.reps,
        empirical_mean=mean,
        empirical_var=var,
        ks_distance=ks,
        reference="gumbel",
        threshold=_ks_threshold(th),
        passed=passed,
        runtime_ms=0,
        seed=seed.master_seed,
        extras={"centering": q_n},
    )


def _run_spacings_clt(e: Experiment, th: Thresholds, seed: SeedSpec) -> McReport:
    """``hill_clt`` (identity weights, s = 1) and ``dh_clt``."""
    p = e.params
    gamma = p.gamma
    k = e.k
    weight, s = (WeightFunction.identity(), 1.0) if e.kind == "hill_clt" else (e.weight, e.s)
    diag = check_dh_conditions(weight, e.n, k, s)
    k1 = check_k1(e.n, k)

    if e.kind == "hill_clt":
        if k1 > th.k1_bound:
            raise ExperimentRefusedError(
                f"k grows too fast for the Hill CLT: k^(3/4)/log n = {k1:.3g} "
                f"exceeds {th.k1_bound:g} (n={e.n}, k={k})",
                diagnostics={"k1": k1, **diag},
            )
    else:
        if diag["ratio1"] > th.ratio1_bound:
            raise ExperimentRefusedError(
                f"weight normalization decays too slowly: s_n(f,1)/(s_n(f,s) log n) "
                f"= {diag['ratio1']:.3g} exceeds {th.ratio1_bound:g}",
                diagnostics={"k1": k1, **diag},
            )
        if diag["bn"] > th.bn_bound:
            raise ExperimentRefusedError(
                f"a single weight dominates the variance: max f(j)/j^s / s_n "
                f"= {diag['bn']:.3g} exceeds {th.bn_bound:g}",
                diagnostics={"k1": k1, **diag},
            )

    tops = top_order_statistics_rows(e.n, k, p, _replication_seeds(e, seed))
    ts = dh_statistic_rows(tops, weight, k, s)
    z_a, z_b = standardize_dh(ts, gamma)
    zs, mean, var, ks = _normal_summary(z_a / gamma**s)
    passed = _window_checks(mean, var, ks, th)

    extras: dict = {
        "k": k,
        "s": s,
        "weight": weight.label,
        "k1": k1,
        "mean_hill": float(np.mean(np.sort(ts.hill))),
        "replications": zs,
        **diag,
    }
    if diag["growth"] >= th.growth_min:
        _, zb_mean, zb_var, zb_ks = _normal_summary(z_b * s / gamma)
        extras["estimator_mean"] = zb_mean
        extras["estimator_var"] = zb_var
        extras["estimator_ks"] = zb_ks

    return McReport(
        kind=e.kind,
        reps=e.reps,
        empirical_mean=mean,
        empirical_var=var,
        ks_distance=ks,
        reference="std_normal",
        threshold=_ks_threshold(th),
        passed=passed,
        runtime_ms=0,
        seed=seed.master_seed,
        extras=extras,
    )


def _run_record_clt(e: Experiment, th: Thresholds, seed: SeedSpec) -> McReport:
    p = e.params
    n = e.n
    sqrt_n = math.sqrt(n)
    gamma = p.gamma
    g = np.array([record_log_tail(n, rs) for rs in _replication_seeds(e, seed)])
    x = np.array([record_value_from_log_tail(v, p) for v in g.tolist()])
    zs, mean, var, ks = _normal_summary((x - gamma * n) / (gamma * sqrt_n))
    _, ctrl_mean, ctrl_var, ctrl_ks = _normal_summary((g - n) / sqrt_n)
    passed = _window_checks(mean, var, ks, th)
    return McReport(
        kind=e.kind,
        reps=e.reps,
        empirical_mean=mean,
        empirical_var=var,
        ks_distance=ks,
        reference="std_normal",
        threshold=_ks_threshold(th),
        passed=passed,
        runtime_ms=0,
        seed=seed.master_seed,
        extras={
            "replications": zs,
            "control_mean": ctrl_mean,
            "control_var": ctrl_var,
            "control_ks": ctrl_ks,
        },
    )


def _run_sampler_gof(e: Experiment, th: Thresholds, seed: SeedSpec) -> McReport:
    p = e.params
    base = seed.stream_id
    mix = sample_mixture(e.n, p, seed.stream(base))
    ks_one = gof.ks_distance_sorted(mix.values, cdf(mix.values, p))
    crit_one = th.gof_factor / math.sqrt(e.n)

    inv = sample_inverse_cdf(e.n, p, seed.stream(base + 1))
    ks_two = gof.ks_two_sample(mix.values, inv.values)
    crit_two = th.gof_factor * math.sqrt(2.0 / e.n)

    passed = ks_one <= crit_one and ks_two <= crit_two
    return McReport(
        kind=e.kind,
        reps=1,
        empirical_mean=float(np.mean(mix.values)),
        empirical_var=float(np.var(mix.values, ddof=1)),
        ks_distance=ks_one,
        reference="pseudo_lindley",
        threshold=crit_one,
        passed=passed,
        runtime_ms=0,
        seed=seed.master_seed,
        extras={
            "two_sample_ks": ks_two,
            "two_sample_threshold": crit_two,
            "n": e.n,
        },
    )


#: u-grid for the tail-expansion error check: seven decades, 1e-2 .. 1e-14.
ERROR_ORDER_U_GRID = tuple(float(10.0**-d) for d in range(2, 15, 2))


def _run_quantile_error_order(e: Experiment, th: Thresholds, seed: SeedSpec) -> McReport:
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
    passed = ratio <= th.error_ratio_bound
    return McReport(
        kind=e.kind,
        reps=1,
        empirical_mean=float(np.mean(weighted_arr)),
        empirical_var=float(np.var(weighted_arr, ddof=1)),
        ks_distance=0.0,
        reference="none",
        threshold=float(th.error_ratio_bound),
        passed=passed,
        runtime_ms=0,
        seed=seed.master_seed,
        extras={
            "u_grid": list(ERROR_ORDER_U_GRID),
            "raw_errors": raw,
            "weighted_errors": weighted,
            "weighted_ratio": ratio,
            "raw_errors_decreasing": bool(np.all(np.diff(raw) < 0.0)),
        },
    )


_RUNNERS = {
    "max_gumbel": _run_max_gumbel,
    "hill_clt": _run_spacings_clt,
    "dh_clt": _run_spacings_clt,
    "record_clt": _run_record_clt,
    "sampler_gof": _run_sampler_gof,
    "quantile_error_order": _run_quantile_error_order,
}


def run_experiment(e: Experiment, workers: int = 1) -> McReport:
    """Run one experiment, including the single automatic re-run on a miss.

    Raises :class:`ExperimentRefusedError` when the configuration violates
    the growth conditions of the limit theorem (no sampling happens then).
    ``workers`` is accepted for compatibility and ignored: replications run
    serially (see the module docstring).
    """
    th = e.resolved_thresholds()
    runner = _RUNNERS[e.kind]
    t0 = time.perf_counter()
    report = runner(e, th, e.seed)
    attempts = 1
    if not report.passed and e.rerun_on_fail and e.kind in STOCHASTIC_KINDS:
        retry_seed = derived_rerun_seed(e.seed)
        first = {
            "seed": report.seed,
            "empirical_mean": report.empirical_mean,
            "empirical_var": report.empirical_var,
            "ks_distance": report.ks_distance,
        }
        report = runner(e, th, retry_seed)
        report.extras["first_attempt"] = first
        attempts = 2
    runtime_ms = int(round((time.perf_counter() - t0) * 1000.0))
    report.extras["attempts"] = attempts
    return replace(report, runtime_ms=runtime_ms)


def run_suite(
    experiments, workers: int = 1
) -> list[tuple[Experiment, McReport]]:
    """Run experiments in order; returns (experiment, report) pairs."""
    return [(e, run_experiment(e, workers=workers)) for e in experiments]


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
