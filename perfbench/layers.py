"""The traced run: per-layer metrics for every plevt module.

A warm-up and an untraced pass of the battery (one and two workers), then
a traced battery with one worker; an untraced and a traced pass of
cli_pipeline and of tail_numerics; and a few micro-timings on fixed inputs
made from the seed.  Layer names are plevt's module names.  Self time is a span's duration minus its
children's; the tracing overhead is the traced pass minus the untraced one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import plevt
import plevt.gof
from tracing import Tracer
from workloads import P, Battery, CliPipeline, TailNumerics, CUT_REPS_KINDS

#: Layers whose self time is reported as ``self.<workload>.<layer>_ms``.
#: Left out because another metric already equals them: the battery's
#: harness (``harness.self_ms``) and the cli_pipeline's records and
#: distribution (``records.extract_ms``, ``distribution.fit_ms``).
SELF_LAYERS = {
    "battery": ("sampling", "tail", "quantile", "records", "gof", "distribution"),
    "cli_pipeline": ("cli", "sampling", "tail"),
    "tail_numerics": ("quantile", "records", "distribution"),
}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _per_call(fn, calls: int, blocks: int = 5) -> float:
    """Median over ``blocks`` of the mean seconds per call."""
    out = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        out.append((time.perf_counter() - t0) / calls)
    return statistics.median(out)


def _traced(run):
    """Returns (seconds, tracer) of ``run(tracer)`` with the wrappers installed."""
    with Tracer() as tr:
        t0 = time.perf_counter()
        run(tr)
        traced_s = time.perf_counter() - t0
    return traced_s, tr


def traced_run(seed: int, sizes: dict, checks, workdir) -> tuple[dict, dict]:
    """Returns (per-layer metrics as name -> (value, unit), detail)."""
    m: dict[str, tuple[float, str]] = {}
    detail: dict = {"self_ms": {}, "overhead_ms": {}, "absent": []}

    def report_trace(name, untraced_s, traced_s, tr):
        overhead = (traced_s - untraced_s) * 1e3
        m[f"trace.{name}.overhead_ms"] = (overhead, "ms")
        detail["overhead_ms"][name] = overhead
        own = {k: v * 1e3 for k, v in tr.layer_self_seconds().items()}
        detail["self_ms"][name] = own
        for layer in SELF_LAYERS[name]:
            m[f"self.{name}.{layer}_ms"] = (own.get(layer, 0.0), "ms")
        detail["absent"] = sorted(set(detail["absent"]) | set(tr.absent))
        detail.setdefault("spans", {})[name] = tr.to_json()

    # -- battery -------------------------------------------------------
    battery = Battery(seed, sizes, checks)
    battery.warm_up()
    untraced = battery.run_pass()
    w1, w2 = untraced["battery_s"], untraced["battery_w2_s"]
    # spans nest per thread, so only the one-worker battery is traced
    traced_s, tr = _traced(lambda tr: battery.run(1, tr))
    report_trace("battery", w1, traced_s, tr)
    m["harness.w2_speedup"] = (w1 / w2, "ratio")
    m["harness.self_ms"] = (tr.layer_self_seconds().get("harness", 0.0) * 1e3, "ms")
    for e in battery.suite:
        spans = tr.durations("harness.run_experiment", tag=e.kind)
        total = sum(spans)
        m[f"harness.{e.kind}_s"] = (total, "s")
        if e.reps > 1:
            m[f"harness.{e.kind}.rep_us"] = (total / e.reps * 1e6, "us")
    m["sampling.mixture_values_ms"] = (_median(tr.durations("sampling.mixture_values", tag="max_gumbel")) * 1e3, "ms")
    m["sampling.sample_mixture_ms"] = (_median(
        tr.durations("sampling.sample_mixture", tag="hill_clt")
        + tr.durations("sampling.sample_mixture", tag="dh_clt")) * 1e3, "ms")
    m["sampling.inverse_cdf_ms"] = (_median(tr.durations("sampling.sample_inverse_cdf")) * 1e3, "ms")
    drawn = consumed = 0
    for e in battery.suite:
        if e.kind not in CUT_REPS_KINDS:
            continue
        calls = len(tr.durations("sampling.mixture_values", tag=e.kind)
                    + tr.durations("sampling.sample_mixture", tag=e.kind))
        drawn += calls * e.n
        consumed += e.reps * (1 if e.kind == "max_gumbel" else e.k + 1)
    m["sampling.values_used_share"] = (consumed / drawn if drawn else 0.0, "share")
    detail["battery_verdicts"] = dict(battery.verdicts)

    # -- cli_pipeline ----------------------------------------------------
    cli = CliPipeline(seed, sizes, checks, workdir)
    untraced = cli.run_pass()
    traced_s, tr = _traced(cli.run_pass)
    report_trace("cli_pipeline", untraced["cli_write_s"] + untraced["cli_read_s"], traced_s, tr)
    for name in ("sample", "fit", "hill", "dhill", "records"):
        m[f"cli.{name}_s"] = (untraced[f"cli.{name}_s"], "s")
    m["sampling.write_csv_s"] = (_median(tr.durations("sampling.write_values_csv")), "s")
    m["sampling.read_csv_s"] = (_median(tr.durations("sampling.read_values_csv")), "s")
    m["sampling.csv_bytes"] = (cli.draw.stat().st_size, "bytes")
    m["distribution.fit_ms"] = (_median(tr.durations("distribution.fit_method_of_moments")) * 1e3, "ms")
    m["records.extract_ms"] = (_median(tr.durations("records.extract_records")) * 1e3, "ms")
    m["records.count"] = (cli.records_count, "count")

    # -- tail_numerics ---------------------------------------------------
    tail = TailNumerics(seed, sizes, checks)
    untraced = tail.run_pass()
    traced_s, tr = _traced(tail.run_pass)
    report_trace("tail_numerics", sum(untraced[s] for s in tail.steps), traced_s, tr)
    n_vec, n_scalar = sizes["quantile_vec"], sizes["quantile_scalar"]
    m["quantile.values_ns"] = (untraced["tail.quantile_vec_s"] / n_vec * 1e9, "ns")
    m["quantile.exact_us"] = (untraced["tail.quantile_exact_s"] / n_scalar * 1e6, "us")
    m["quantile.log_tail_us"] = (untraced["tail.quantile_log_tail_s"] / n_scalar * 1e6, "us")
    m["quantile.iterations_mean"] = (float(np.mean(tail.iterations)), "count")
    m["quantile.iterations_max"] = (max(tail.iterations), "count")
    m["records.simulate_us"] = (untraced["tail.record_small_s"] / sizes["record_streams"] * 1e6, "us")
    m["records.simulate_ms"] = (untraced["tail.record_large_s"] * 1e3, "ms")
    for name in ("pdf", "survival", "cdf"):
        m[f"distribution.{name}_ns"] = (untraced[f"tail.{name}_s"] / sizes["density_points"] * 1e9, "ns")

    # -- micro-timings on fixed inputs -----------------------------------
    sample = plevt.sample_mixture(100_000, P, plevt.SeedSpec(seed, 1 << 40))
    ident, power = plevt.WeightFunction.identity(), plevt.WeightFunction.from_spec("pow:0.5")
    m["tail.hill_us"] = (_per_call(lambda: plevt.hill(sample, 7), 400) * 1e6, "us")
    m["tail.dh_statistic_us"] = (_per_call(lambda: plevt.dh_statistic(sample, ident, 20, 2.0), 400) * 1e6, "us")
    m["tail.dh_pow_us"] = (_per_call(lambda: plevt.dh_statistic(sample, power, 20, 2.0), 400) * 1e6, "us")
    m["tail.conditions_us"] = (_per_call(
        lambda: plevt.check_dh_conditions(ident, sample.n, 20, 2.0), 400) * 1e6, "us")
    reps = sizes["battery_reps"]
    rng = np.random.default_rng(seed)
    zs = np.sort(rng.standard_normal(reps))
    cdf_zs = plevt.gof.std_normal_cdf(zs)
    m["gof.ks_sorted_us"] = (_per_call(lambda: plevt.gof.ks_distance_sorted(zs, cdf_zs), 2000) * 1e6, "us")
    other = plevt.mixture_values(100_000, P, plevt.SeedSpec(seed, (1 << 40) + 1))
    m["gof.ks_two_sample_ms"] = (_per_call(lambda: plevt.gof.ks_two_sample(sample.values, other), 2) * 1e3, "ms")
    return m, detail
