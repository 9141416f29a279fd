"""Workloads: inputs made from the seed, timed passes, and output checks.

Every workload calls plevt only through public names (the package
namespace and ``plevt.cli.main``), so internal rewrites of plevt do not
need a change here.  A pass returns the seconds of each of its steps; the
checks of its outputs are counted in a shared :class:`Checks`.

Parameters are (theta, beta) = (1, 2) throughout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import plevt
import plevt.cli

THETA, BETA = 1.0, 2.0
P = plevt.Params(THETA, BETA)

#: Sizes of one pass.  ``full`` is what the benchmark measures; ``smoke``
#: runs the same code on tiny inputs so the tests finish in seconds.
SIZES = {
    "full": {
        "battery_n": None,            # None keeps each kind's default n
        "battery_reps": 100,          # max_gumbel, hill_clt, dh_clt
        "record_clt_reps": None,      # None keeps the default (5000)
        "cli_rows": 1_000_000,
        "quantile_vec": 1_000_000,
        "quantile_scalar": 10_000,
        "record_streams": 2_000,
        "record_n": 400,
        "record_n_large": 1_000_000,
        "density_points": 1_000_000,
    },
    "smoke": {
        "battery_n": 20_000,
        "battery_reps": 100,
        "record_clt_reps": 100,
        "cli_rows": 5_000,
        "quantile_vec": 20_000,
        "quantile_scalar": 200,
        "record_streams": 50,
        "record_n": 400,
        "record_n_large": 20_000,
        "density_points": 20_000,
    },
}

#: Kinds whose replications each draw a full sample of n = 1e5; their reps
#: are cut so that one battery pass takes a few seconds.
CUT_REPS_KINDS = ("max_gumbel", "hill_clt", "dh_clt")

REPORT_FIELDS = 10
EULER_GAMMA = 0.5772156649015329
GUMBEL_VAR = math.pi**2 / 6.0


def raw_moment(k: int) -> float:
    """Raw moment k!(beta+k)/(theta^k beta) of the law, computed here."""
    return math.factorial(k) * (BETA + k) / (THETA**k * BETA)


class Checks:
    """Counts output checks; a failed one is remembered by name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _span(tracer, name, layer="bench"):
    return tracer.span(name, layer) if tracer is not None else nullcontext()


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# battery


class Battery:
    """The standard suite at default n, reps cut, rerun-on-fail off; one pass
    runs it with one worker and then with two."""

    steps = ("battery_s", "battery_w2_s")

    def __init__(self, seed: int, sizes: dict, checks: Checks):
        self.checks = checks
        self.suite = [self._cut(e, sizes) for e in plevt.standard_suite(P, plevt.SeedSpec(seed))]
        self.reference: list[str] | None = None
        self.verdicts: dict[str, bool] = {}

    @staticmethod
    def _cut(e, sizes):
        changes = {"rerun_on_fail": False}
        if e.kind in CUT_REPS_KINDS:
            changes["reps"] = sizes["battery_reps"]
        if e.kind == "record_clt" and sizes["record_clt_reps"] is not None:
            changes["reps"] = sizes["record_clt_reps"]
        if sizes["battery_n"] is not None and e.n is not None and e.kind != "record_clt":
            changes["n"] = sizes["battery_n"]
        return dataclasses.replace(e, **changes)

    def sizes(self) -> dict:
        return {e.kind: {"n": e.n, "reps": e.reps, "k": e.k} for e in self.suite}

    def run(self, workers: int, tracer=None) -> float:
        """One battery with ``workers`` threads; its stable JSON must match
        the first battery run byte for byte, whatever the worker count."""
        with _span(tracer, "bench.battery"):
            t0 = time.perf_counter()
            results = plevt.run_suite(self.suite, workers=workers)
            dt = time.perf_counter() - t0
        self.check(results)
        return dt

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self) -> dict:
        return {"battery_s": self.run(1), "battery_w2_s": self.run(2)}

    def check(self, results) -> None:
        c = self.checks
        c("battery.count", len(results) == len(self.suite))
        stable = []
        for e, r in results:
            d = json.loads(plevt.report_to_json(r))
            c(f"battery.{e.kind}.fields", len(d) == REPORT_FIELDS)
            c(f"battery.{e.kind}.finite", all(
                math.isfinite(d[f]) for f in ("empirical_mean", "empirical_var", "ks_distance", "threshold")
            ))
            c(f"battery.{e.kind}.sane", _sane(e, d))
            self.verdicts[e.kind] = bool(d["passed"])
            stable.append(plevt.report_to_json(r, stable=True))
        if self.reference is None:
            self.reference = stable
        else:
            c("battery.stable_json_identical", stable == self.reference)


def _sane(e, d) -> bool:
    """Loose windows any exact-in-law sampler meets; not acceptance thresholds."""
    mean, var, ks = d["empirical_mean"], d["empirical_var"], d["ks_distance"]
    if e.kind in ("hill_clt", "dh_clt", "record_clt"):
        return abs(mean) <= 1.0 and 0.25 <= var <= 4.0 and ks <= 0.5
    if e.kind == "max_gumbel":
        return abs(mean - EULER_GAMMA) <= 1.0 and 0.25 <= var / GUMBEL_VAR <= 4.0 and ks <= 0.5
    if e.kind == "sampler_gof":
        m1, m2, m4c = raw_moment(1), raw_moment(2), _central_moment4()
        sd_mean = math.sqrt((m2 - m1 * m1) / e.n)
        sd_var = math.sqrt((m4c - (m2 - m1 * m1) ** 2) / e.n)
        return (abs(mean - m1) <= 8 * sd_mean and abs(var - (m2 - m1 * m1)) <= 8 * sd_var
                and ks <= 6.0 / math.sqrt(e.n))
    if e.kind == "quantile_error_order":
        return mean > 0.0 and var >= 0.0 and ks == 0.0
    return True


def _central_moment4() -> float:
    m1, m2, m3, m4 = (raw_moment(k) for k in (1, 2, 3, 4))
    return m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4


# ---------------------------------------------------------------------------
# cli_pipeline

K_GRID = tuple(range(5, 51, 5))
DH_K, DH_A, DH_S = 20, 0.5, 2.0


class CliPipeline:
    """``plevt sample`` writes one file; fit, hill, dhill and records read it."""

    steps = ("cli_write_s", "cli_read_s")

    def __init__(self, seed: int, sizes: dict, checks: Checks, workdir: Path):
        self.checks = checks
        self.n = sizes["cli_rows"]
        self.draw = workdir / "draw.csv"
        self.out = {name: workdir / f"{name}.out" for name in ("fit", "hill", "dhill", "records")}
        self.reference = plevt.mixture_values(self.n, P, plevt.SeedSpec(seed))
        self.records_count = 0
        d = str(self.draw)
        self.commands = (
            ("sample", ["sample", "-n", str(self.n), "--seed", str(seed), "-o", d]),
            ("fit", ["fit", "-i", d, "-o", str(self.out["fit"])]),
            ("hill", ["hill", "-i", d, "--k-grid", "5:50:5", "-o", str(self.out["hill"])]),
            ("dhill", ["dhill", "-i", d, "--k", str(DH_K), "--f", f"pow:{DH_A}",
                       "--s", f"{DH_S:g}", "-o", str(self.out["dhill"])]),
            ("records", ["records", "-i", d, "-o", str(self.out["records"])]),
        )

    def sizes(self) -> dict:
        return {"rows": self.n, "k_grid": "5:50:5", "dhill": f"k={DH_K} f=pow:{DH_A} s={DH_S:g}"}

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self, tracer=None) -> dict:
        for path in (self.draw, *self.out.values()):
            path.unlink(missing_ok=True)
        times = {}
        for name, argv in self.commands:
            with _span(tracer, f"cli.{name}", "cli"):
                t0 = time.perf_counter()
                rc = plevt.cli.main(argv)
                times[f"cli.{name}_s"] = time.perf_counter() - t0
            self.checks(f"cli.{name}.exit_code", rc == 0)
        self.check_outputs()
        return {
            "cli_write_s": times["cli.sample_s"],
            "cli_read_s": sum(v for k, v in times.items() if k != "cli.sample_s"),
            **times,
        }

    def check_outputs(self) -> None:
        c = self.checks
        check_draw(self.draw, self.reference, c)
        x = self.reference
        top = np.sort(x)[-(max(K_GRID[-1], DH_K) + 1):]

        def top_spacings(k):
            return np.diff(top[-(k + 1):])[::-1]

        fit = _read_json(self.out["fit"])
        c("cli.fit.parsed", fit is not None)
        if fit is not None:
            n = x.size
            c("cli.fit.theta", abs(fit["theta"] - THETA) <= max(0.05, 14.0 / math.sqrt(n)))
            c("cli.fit.beta", abs(fit["beta"] - BETA) <= max(0.1, 85.0 / math.sqrt(n)))
            c("cli.fit.moments", _rel([fit["m1"], fit["m2"]], [np.mean(x), np.mean(x * x)]) <= 1e-12)
            c("cli.fit.n_obs", fit["n_obs"] == n)

        rows = _read_lines(self.out["hill"])
        ok = rows is not None and rows[0] == "k,hill,ci_low,ci_high" and len(rows) == 1 + len(K_GRID)
        c("cli.hill.shape", ok)
        if ok:
            for k, row in zip(K_GRID, rows[1:]):
                kk, h, lo, hi = row.split(",")
                expect = float(np.sum(np.arange(1, k + 1) * top_spacings(k)) / k)
                c(f"cli.hill.k{k}", int(kk) == k and _rel(float(h), expect) <= 1e-9
                  and float(lo) < float(h) < float(hi))

        dh = _read_json(self.out["dhill"])
        c("cli.dhill.parsed", dh is not None)
        if dh is not None:
            j = np.arange(1, DH_K + 1, dtype=np.float64)
            t_n = float(np.sum(j**DH_A * top_spacings(DH_K) ** DH_S))
            c("cli.dhill.t_n", dh["k"] == DH_K and dh["s"] == DH_S and _rel(dh["t_n"], t_n) <= 1e-9)
            c("cli.dhill.finite", all(math.isfinite(dh[f]) for f in ("hill", "a_n", "s_n", "b_n", "dh_estimate")))

        rows = _read_lines(self.out["records"])
        ok = rows is not None and rows[0] == "index,value"
        c("cli.records.shape", ok)
        if ok:
            idx = np.array([int(r.split(",")[0]) for r in rows[1:]], dtype=np.int64)
            val = np.array([float(r.split(",")[1]) for r in rows[1:]], dtype=np.float64)
            run_max = np.maximum.accumulate(x)
            is_rec = np.concatenate(([True], x[1:] > run_max[:-1]))
            c("cli.records.increasing", bool(np.all(np.diff(val) > 0.0)))
            c("cli.records.match", np.array_equal(idx, np.nonzero(is_rec)[0] + 1)
              and np.array_equal(val, x[is_rec]))
            self.records_count = int(val.size)


def check_draw(path: Path, reference: np.ndarray, checks: Checks) -> None:
    """The CSV must read back bit-equal to ``mixture_values`` at the same seed."""
    try:
        parsed = np.array(path.read_text(encoding="utf-8").split(), dtype=np.float64)
    except (OSError, ValueError):
        parsed = None
    checks("cli.sample.bit_equal", parsed is not None and parsed.shape == reference.shape
           and np.array_equal(parsed.view(np.uint64), reference.view(np.uint64)))


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _read_lines(path: Path):
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    return lines or None


# ---------------------------------------------------------------------------
# tail_numerics

L_RANGE = (0.1, 700.0)
X_RANGE = (0.0, 40.0)


class TailNumerics:
    """Quantiles, record simulation and densities: no sorting, I/O or harness."""

    steps = ("quantile_vec_s", "quantile_scalar_s", "record_sim_s", "density_s")

    def __init__(self, seed: int, sizes: dict, checks: Checks):
        self.checks = checks
        self.seed = seed
        self.sz = sizes
        rng = np.random.default_rng(seed)
        self.L_vec = rng.uniform(*L_RANGE, sizes["quantile_vec"])
        self.u_vec = np.exp(-self.L_vec)
        L_s = rng.uniform(*L_RANGE, sizes["quantile_scalar"])
        self.L_scalar = L_s.tolist()
        self.u_scalar = np.exp(-L_s).tolist()
        self.x = rng.uniform(*X_RANGE, sizes["density_points"])
        self.iterations: list[int] = []

    def sizes(self) -> dict:
        keys = ("quantile_vec", "quantile_scalar", "record_streams", "record_n",
                "record_n_large", "density_points")
        return {k: self.sz[k] for k in keys}

    def warm_up(self) -> None:
        self.run_pass()

    def run_pass(self, tracer=None) -> dict:
        t = {}

        def timed(name, fn):
            with _span(tracer, f"bench.{name}"):
                t0 = time.perf_counter()
                out = fn()
                t[name] = time.perf_counter() - t0
            return out

        seed, sz = self.seed, self.sz
        q_vec = timed("quantile_vec", lambda: plevt.quantile_values(self.u_vec, P))
        q_exact = timed("quantile_exact", lambda: [plevt.quantile_exact(u, P) for u in self.u_scalar])
        q_log = timed("quantile_log_tail",
                      lambda: [plevt.quantile_from_log_tail(L, P) for L in self.L_scalar])
        rec = timed("record_small", lambda: [
            plevt.simulate_record(sz["record_n"], P, plevt.SeedSpec(seed, s))
            for s in range(sz["record_streams"])])
        rec_large = timed("record_large", lambda: plevt.simulate_record(
            sz["record_n_large"], P, plevt.SeedSpec(seed, sz["record_streams"])))
        dens = {name: timed(name, lambda: getattr(plevt, name)(self.x, P))
                for name in ("pdf", "survival", "cdf")}

        self.iterations = [r.iterations for r in q_log]
        self.check(q_vec, q_exact, q_log, rec, rec_large, dens)
        return {
            "quantile_vec_s": t["quantile_vec"],
            "quantile_scalar_s": t["quantile_exact"] + t["quantile_log_tail"],
            "record_sim_s": t["record_small"] + t["record_large"],
            "density_s": t["pdf"] + t["survival"] + t["cdf"],
            **{f"tail.{k}_s": v for k, v in t.items()},
        }

    def check(self, q_vec, q_exact, q_log, rec, rec_large, dens) -> None:
        c = self.checks
        c("tail.quantile_vec.finite", bool(np.all(np.isfinite(q_vec))))
        c("tail.quantile_vec.round_trip", float(np.max(np.abs(_log_survival(q_vec) + self.L_vec))) <= 1e-10)

        L_s = np.asarray(self.L_scalar)
        exact = np.array([r.value for r in q_exact])
        log_tail = np.array([r.value for r in q_log])
        vec = plevt.quantile_values(np.asarray(self.u_scalar), P)
        c("tail.quantile_exact.vs_vector", _rel(exact, vec) <= 1e-12)
        c("tail.quantile_log_tail.vs_vector", _rel(log_tail, vec) <= 1e-12)
        c("tail.quantile_log_tail.round_trip", float(np.max(np.abs(_log_survival(log_tail) + L_s))) <= 1e-10)

        n, gamma = self.sz["record_n"], 1.0 / THETA
        z = (np.asarray(rec) - gamma * n) / (gamma * math.sqrt(n))
        c("tail.record.finite", bool(np.all(np.isfinite(z))))
        c("tail.record.sane", abs(float(np.mean(z))) <= 1.0 and 0.25 <= float(np.var(z)) <= 4.0)
        n_large = self.sz["record_n_large"]
        c("tail.record_large.sane", abs((rec_large - gamma * n_large) / (gamma * math.sqrt(n_large))) <= 8.0)

        tx = THETA * self.x
        surv = dens["survival"]
        c("tail.pdf.formula", _rel(dens["pdf"], THETA * (BETA - 1.0 + tx) * np.exp(-tx) / BETA) <= 1e-12)
        c("tail.survival.formula", _rel(surv, (BETA + tx) * np.exp(-tx) / BETA) <= 1e-12)
        c("tail.cdf_plus_survival",
          float(np.max(np.abs(dens["cdf"] + surv - 1.0))) <= 4.0 * np.finfo(float).eps)


def _log_survival(x) -> np.ndarray:
    """log S(x) = log(beta + theta x) - theta x - log(beta), computed here."""
    x = np.asarray(x, dtype=np.float64)
    return np.log(BETA + THETA * x) - THETA * x - math.log(BETA)
