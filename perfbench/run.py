"""plevt benchmark: end-to-end timings per workload, per-layer timings when traced.

Run from the root of a source checkout (plevt is imported from ``src/``):

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one is there):

* ``battery``       -- ``standard_suite`` at default n, reps cut, with one
                       worker and then with two
* ``cli_pipeline``  -- ``plevt sample`` of 1e6 rows, then fit/hill/dhill/records
* ``tail_numerics`` -- quantiles, record simulation and densities

With ``--trace 0`` the run measures, after one warm-up pass, whole passes
of the workload for ``--seconds`` seconds and reports the end-to-end
metrics: ``pass_s``, the median seconds of one pass, and ``setup_s``, the
median seconds of ``import plevt.cli`` in a fresh interpreter.  The imports
are spread over the run, between passes, so that both medians sample the
same stretch of machine time.  With
``--trace 1`` it makes the traced run of ``layers.py`` instead and reports
the per-layer metrics.  Every pass checks plevt's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (output checks) and ``metrics``.  A detail file with every
sample, the environment and, when traced, the spans is written under
``.bench_build/perfbench/``.  ``--smoke`` runs the same code on tiny inputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("battery", "cli_pipeline", "tail_numerics")
SETUP_RUNS = 5
MIN_PASSES = 3


def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "p": None, "p_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            out["p"], out["p_value"] = p, xs[rank - 1]
            break
    return out


def measure_setup(checks) -> float:
    """Wall seconds of ``import plevt.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import plevt.cli"], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    checks("setup.import_exit_code", proc.returncode == 0)
    return elapsed


def git_revision() -> str | None:
    """HEAD of the checkout's git directory, if there is one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_revision": git_revision(),
    }


def make_workload(name: str, seed: int, sizes: dict, checks):
    from workloads import Battery, CliPipeline, TailNumerics

    if name == "battery":
        return Battery(seed, sizes, checks)
    if name == "cli_pipeline":
        return CliPipeline(seed, sizes, checks, WORKDIR)
    return TailNumerics(seed, sizes, checks)


def timed_run(name: str, seed: int, seconds: float, sizes: dict, setup_runs: int,
              checks) -> tuple[dict, dict]:
    """Warm up, then whole passes for ``seconds``; returns (metrics, detail)."""
    wl = make_workload(name, seed, sizes, checks)
    wl.warm_up()
    passes, setup = [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
        passes.append(wl.run_pass())
        if time.perf_counter() >= t_start + len(setup) * seconds / setup_runs and len(setup) < setup_runs:
            setup.append(measure_setup(checks))
    while len(setup) < setup_runs:
        setup.append(measure_setup(checks))
    totals = [sum(p[s] for s in wl.steps) for p in passes]
    steps = {k: summarize([p[k] for p in passes]) for k in passes[0]}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(totals), "s"),
    }
    detail = {
        "sizes": wl.sizes(),
        "setup_s": summarize(setup),
        "pass_s": summarize(totals),
        "steps": steps,
        "samples": {"setup_s": setup, "pass_s": totals, "passes": passes},
    }
    if hasattr(wl, "verdicts"):
        detail["verdicts"] = wl.verdicts
    return metrics, detail


def print_report(args, metrics: dict, detail: dict, checks) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    if "sizes" in detail:
        print("sizes " + json.dumps(detail["sizes"], sort_keys=True))
    rows = [("metric", "median", "p_high", "n", "unit")]
    if args.trace:
        rows += [(k, f"{v:.6g}", "", "1", u) for k, (v, u) in metrics.items()]
    else:
        for key in ("setup_s", "pass_s"):
            rows.append(_row(key, detail[key], "s"))
        for key, summary in detail["steps"].items():
            rows.append(_row(key, summary, "s"))
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    rows.append(("failed_share", f"{share:.6g}", "", str(checks.attempted), "share"))
    width = max(len(r[0]) for r in rows)
    for r in rows:
        print(f"{r[0]:<{width}}  {r[1]:>12}  {r[2]:>18}  {r[3]:>5}  {r[4]}")
    if args.trace:
        print("self_ms " + json.dumps(detail["self_ms"], sort_keys=True))
        print("trace_overhead_ms " + json.dumps(detail["overhead_ms"], sort_keys=True))
        print("absent " + json.dumps(detail["absent"]))
    if "verdicts" in detail:
        print("verdicts (not gated) " + json.dumps(detail["verdicts"], sort_keys=True))
    if checks.failures:
        print("failed checks: " + ", ".join(checks.failures[:20]))


def _row(key: str, s: dict, unit: str) -> tuple:
    high = f"p{s['p']:g}={s['p_value']:.6g}" if s["p"] is not None else "-"
    return (key, f"{s['median']:.6g}", high, str(s["n"]), unit)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)

    if not (SRC / "plevt" / "__init__.py").is_file():
        print(f"perfbench: no plevt sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import plevt

    if Path(plevt.__file__).resolve().parent != SRC / "plevt":
        print(f"perfbench: imported plevt from {plevt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import SIZES, Checks

    WORKDIR.mkdir(parents=True, exist_ok=True)
    sizes = SIZES["smoke" if args.smoke else "full"]
    checks = Checks()
    if args.trace:
        from layers import traced_run

        metrics, detail = traced_run(args.seed, sizes, checks, WORKDIR)
    else:
        setup_runs = 1 if args.smoke else SETUP_RUNS
        metrics, detail = timed_run(args.workload, args.seed, args.seconds, sizes, setup_runs, checks)
    detail["env"] = environment()
    detail.setdefault("sizes", sizes)
    detail["seed"] = args.seed
    detail["workload"] = args.workload
    detail["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures}

    print_report(args, metrics, detail, checks)
    out = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, sort_keys=True, default=str) + "\n", encoding="utf-8")
    print(f"detail written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
