"""Acceptance battery: ten numbered criteria, one PASS/FAIL line each.

Each criterion prints a single verdict line to the real stdout (bypassing
pytest capture) and then asserts its sub-checks, so a red criterion shows
both a FAIL line and a failing test.  Thresholds below are the acceptance
contract.

The theorems behind criteria 2, 5, 6 and 7 are limit statements, and at the
stated n their statistics still carry the bias the theory predicts: the
moment radius converges at rate log(n)/n, the spacing statistics at about
1/log(n/k), the record centering at log(n)/sqrt(n).  Those criteria
therefore check each finite-n number against its exact finite-n value,
computed by the independent references in ``oracles.py`` (exact
order-statistic representation, no plevt sampling, tail, harness or
quantile code), inside a band stated as a formula:

* means: 4 Monte Carlo standard errors, sqrt(var/reps) of the harness plus,
  for a simulated reference, sqrt(var/R) of the reference;
* KS distance to N(0, 1): the Kolmogorov 1.95/sqrt(reps) of the harness
  plus 1.95/sqrt(R) of the reference law's own KS distance;
* law: the two-sample KS distance between the harness's standardized
  replications (``extras["replications"]``) and R draws of the exact
  finite-n law, within 1.95*sqrt(1/reps + 1/R).

Seeds, n, k, reps, weights, powers and the harness thresholds are fixed.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

from oracles import (
    dh_naive,
    hill_naive,
    ks_critical_two_sample,
    record_mean_quadrature,
    record_statistic_law,
    spacing_mean_quadrature,
    spacing_statistic_law,
)
from plevt import (
    Params,
    cdf,
    extract_records,
    fit_method_of_moments,
    moment,
    moment_radius_sequence,
    pdf,
    quantile_values,
    simulate_record,
    survival,
)
from plevt.errors import DomainError, ExperimentRefusedError
from plevt.gof import ks_two_sample
import plevt.harness
from plevt.harness import (
    Experiment,
    report_to_json,
    run_experiment,
    run_suite,
)
from plevt.records import record_log_tails
from plevt.sampling import SeedSpec, SortedSample
from plevt.tail import WeightFunction, dh_statistic, hill

GRID = [Params(t, b) for t in (0.5, 1.0, 2.0) for b in (1.1, 2.0, 5.0)]
SEED = SeedSpec(7)

#: Replications and seed of the exact-in-law reference simulations.
REF_REPS = 100_000
REF_SEED = 2026
MC_SIGMAS = 4.0        # mean bands: 4 Monte Carlo standard errors
KS_FACTOR = 1.95       # KS bands: Kolmogorov 1.95/sqrt(N) per sample


def _mean_check(label, mean, var, reps, ref, ref_var=0.0, ref_reps=1):
    """Mean against its finite-n reference, within 4 standard errors."""
    band = MC_SIGMAS * math.sqrt(var / reps + ref_var / ref_reps)
    return (label, abs(mean - ref) <= band,
            f"{mean:.4f} vs finite-n {ref:.4f}+-{band:.3f}")


def _ks_check(label, ks, reps, ref_law):
    """KS to N(0,1) against the reference law's own KS to N(0,1)."""
    ref = kstest(ref_law, norm.cdf).statistic
    band = KS_FACTOR / math.sqrt(reps) + KS_FACTOR / math.sqrt(ref_law.size)
    return (label, abs(ks - ref) <= band,
            f"{ks:.4f} vs finite-n {ref:.4f}+-{band:.3f}")


def _law_check(label, replications, ref_law):
    """Two-sample KS of the harness replications against the exact law."""
    d = ks_two_sample(replications, ref_law)
    band = KS_FACTOR * math.sqrt(1.0 / replications.size + 1.0 / ref_law.size)
    return (label, d <= band, f"two-sample KS {d:.4f}<={band:.4f}")


def _verdict(capfd, num, title, checks):
    """Print '[criterion NN] PASS/FAIL  title: ...' on the real terminal."""
    bad = [(label, note) for label, ok, note in checks if not ok]
    status = "FAIL" if bad else "PASS"
    detail = "; ".join(f"{label} {note}" for label, _, note in checks)
    with capfd.disabled():
        print(f"[criterion {num:02d}] {status}  {title}: {detail}", flush=True)
    if bad:
        pytest.fail("; ".join(f"{label} {note}" for label, note in bad),
                    pytrace=False)


# ---------------------------------------------------------------------------


def test_criterion_01_distribution_correctness(capfd):
    t0 = time.perf_counter()
    worst_int = 0.0
    for p in GRID:
        total, _ = quad(lambda x: float(pdf(x, p)), 0.0, np.inf, limit=200)
        worst_int = max(worst_int, abs(total - 1.0))

    # -d/dx survival == pdf, central differences
    worst_der = 0.0
    h = 1e-6
    for p in GRID:
        for x in (0.3, 1.0, 2.7):
            num = -(float(survival(x + h, p)) - float(survival(x - h, p))) / (2 * h)
            worst_der = max(worst_der, abs(num - float(pdf(x, p))) / float(pdf(x, p)))

    # beta = 1 + theta collapses to the one-parameter Lindley density
    worst_lin = 0.0
    xs = np.linspace(0.0, 12.0, 241)
    for theta in (0.5, 1.0, 2.0):
        ours = pdf(xs, Params(theta, 1.0 + theta))
        lindley = theta**2 * (1.0 + xs) * np.exp(-theta * xs) / (1.0 + theta)
        worst_lin = max(worst_lin, float(np.max(np.abs(ours - lindley) / lindley)))

    dt = time.perf_counter() - t0
    _verdict(capfd, 1, "distribution correctness", [
        ("integral", worst_int <= 1e-10, f"max|I-1|={worst_int:.1e}<=1e-10"),
        ("derivative", worst_der <= 1e-6, f"max rel={worst_der:.1e}<=1e-6"),
        ("lindley", worst_lin <= 1e-14, f"max rel={worst_lin:.1e}<=1e-14"),
        ("runtime", dt < 5.0, f"{dt:.1f}s<5s"),
    ])


def test_criterion_02_moments(capfd):
    worst_q = 0.0
    for p in GRID:
        for n in range(7):
            ref, _ = quad(lambda x: x**n * float(pdf(x, p)), 0.0, np.inf, limit=400)
            worst_q = max(worst_q, abs(moment(n, p) - ref) / ref)

    # two-point sample realizing the exact (m1, m2), pushed back through the fit
    worst_fit = 0.0
    for p in GRID:
        m1, m2 = moment(1, p), moment(2, p)
        spread = math.sqrt(m2 - m1 * m1)
        fr = fit_method_of_moments([m1 - spread, m1 + spread])
        worst_fit = max(worst_fit,
                        abs(fr.params.theta - p.theta) / p.theta,
                        abs(fr.params.beta - p.beta) / p.beta)

    # radius estimate r_n = ((beta+n)/beta)^(1/n)/theta: it is (m_n/n!)^(1/n)
    # exactly, and its offset log(theta*r_n) = log(1+n/beta)/n decays to the
    # limit 1/theta at the documented log(n)/n rate, monotonically
    n_top = 10**6
    ns = np.arange(1, n_top + 1, dtype=np.float64)
    worst_def = 0.0
    n_def = n_top
    rate_ok = decreasing = True
    worst_top = 0.0
    for p in GRID:
        r = moment_radius_sequence(p, n_top)
        for n in range(1, n_top + 1):
            try:
                direct = (moment(n, p) / math.factorial(n)) ** (1.0 / n)
            except (DomainError, OverflowError):  # m_n, or n! as a float past n = 170
                n_def = min(n_def, n - 1)
                break
            worst_def = max(worst_def, abs(float(r[n - 1]) - direct) / direct)
        log_offset = np.log(p.theta * r)
        rate_ok = rate_ok and bool(np.all((log_offset > 0.0)
                                          & (log_offset <= np.log1p(ns) / ns)))
        offset = p.theta * r - 1.0
        decreasing = decreasing and bool(np.all(np.diff(offset) < 0.0))
        worst_top = max(worst_top, float(offset[-1]))

    _verdict(capfd, 2, "moments", [
        ("quadrature", worst_q <= 1e-8, f"max rel={worst_q:.1e}<=1e-8 (n<=6)"),
        ("mom-round-trip", worst_fit <= 1e-9, f"max rel={worst_fit:.1e}<=1e-9"),
        ("radius-definition", worst_def <= 1e-12,
         f"r_n vs (m_n/n!)^(1/n) max rel={worst_def:.1e}<=1e-12 (n<={n_def})"),
        ("radius-rate", rate_ok, "0<log(theta*r_n)<=log(1+n)/n for n<=1e6"),
        ("radius-monotone", decreasing, "offset theta*r_n-1 strictly decreasing"),
        ("radius@n=1e6", worst_top <= 1e-4, f"max offset={worst_top:.2e}<=1e-4"),
    ])


def test_criterion_03_quantile(capfd):
    worst_rt = 0.0
    us = 10.0 ** -np.arange(1, 13, dtype=float)
    for p in GRID:
        x = quantile_values(us, p)
        worst_rt = max(worst_rt, float(np.max(np.abs(survival(x, p) - us) / us)))

    rep = run_experiment(Experiment(kind="quantile_error_order"))
    ratio = rep.extras["weighted_ratio"]

    # slow-variation residual (Q(lam*u) - Q(u))/gamma + log(lam) at u = 1e-10
    worst_pi = 0.0
    u = 1e-10
    for p in GRID:
        gamma = 1.0 / p.theta
        qu = float(quantile_values(np.array([u]), p)[0])
        for lam in (0.5, 2.0):
            qlu = float(quantile_values(np.array([lam * u]), p)[0])
            worst_pi = max(worst_pi, abs((qlu - qu) / gamma + math.log(lam)))

    _verdict(capfd, 3, "quantile", [
        ("round-trip", worst_rt <= 1e-10, f"max rel={worst_rt:.1e}<=1e-10 (u>=1e-12)"),
        ("error-order", rep.passed and ratio <= 50.0, f"ratio={ratio:.2f}<=50"),
        ("pi-variation", worst_pi <= 0.05, f"max resid={worst_pi:.4f}<=0.05 @u=1e-10"),
    ])


def test_criterion_04_sampler(capfd):
    t0 = time.perf_counter()
    rep = run_experiment(Experiment(kind="sampler_gof", seed=SEED))  # n = 1e5
    dt = time.perf_counter() - t0
    _verdict(capfd, 4, "sampler goodness of fit", [
        ("one-sample-ks", rep.ks_distance <= rep.threshold,
         f"{rep.ks_distance:.4f}<={rep.threshold:.4f}"),
        ("two-sample-ks", rep.extras["two_sample_ks"] <= rep.extras["two_sample_threshold"],
         f"{rep.extras['two_sample_ks']:.4f}<={rep.extras['two_sample_threshold']:.4f}"),
        ("attempts", rep.extras["attempts"] <= 2, f"{rep.extras['attempts']}<=2"),
        ("runtime", dt < 10.0, f"{dt:.1f}s<10s"),
    ])


def test_criterion_05_hill_clt(capfd):
    t0 = time.perf_counter()
    # defaults are the criterion: n=1e5, k from the (K1) schedule, 3000 reps
    e = Experiment(kind="hill_clt", seed=SEED, rerun_on_fail=False)
    rep = run_experiment(e)
    dt = time.perf_counter() - t0
    # E[sqrt(k)(H-gamma)/gamma] at n=1e5 is the pseudo-Lindley bias, not 0
    weights = list(range(1, e.k + 1))
    ref = spacing_mean_quadrature(e.n, weights, e.params.theta, e.params.beta)
    law = spacing_statistic_law(e.n, weights, 1.0, e.params.theta, e.params.beta,
                                REF_REPS, REF_SEED)
    _verdict(capfd, 5, "Hill CLT", [
        ("k-schedule", e.k == 7 and rep.extras["k1"] <= 1.5,
         f"k={e.k}, k1={rep.extras['k1']:.3f}"),
        _mean_check("mean", rep.empirical_mean, rep.empirical_var, rep.reps, ref),
        ("var", abs(rep.empirical_var - 1.0) <= 0.30,
         f"|{rep.empirical_var:.4f}-1|<=0.30"),
        ("ks", rep.ks_distance <= 0.08, f"{rep.ks_distance:.4f}<=0.08"),
        _law_check("law", rep.extras["replications"], law),
        ("runtime", dt < 180.0, f"{dt:.0f}s<180s"),
    ])


def test_criterion_06_functional_hill_clt(capfd, monkeypatch):
    # (identity, s=2): f(j)/j^s = 1/j, so b_n -> (20*zeta(2))^(-1/2) and no
    # normal limit is promised; (pow:0.5, s=1): b_n -> 0 only like
    # (log k)^(-1/2).  Both are checked against their exact finite-n law.
    configs = [
        ("identity", 2.0, 20, None),
        ("identity", 2.0, 50, None),
        ("pow:0.5", 1.0, 20, 0.6),   # b_n = 0.53 > 0.3: guard must be overridden
        ("pow:0.5", 1.0, 50, 0.6),   # to run the required configuration at all
    ]
    exponents = {"identity": 1.0, "pow:0.5": 0.5}
    checks = []
    for spec, s, k, bn_override in configs:
        tag = f"({spec},s={s:g},k={k})"
        e = Experiment(kind="dh_clt", k=k, s=s, weight=WeightFunction.from_spec(spec),
                       seed=SEED, rerun_on_fail=False)
        with monkeypatch.context() as m:
            if bn_override is not None:
                # the default guard refuses, with b_n = max_j j^-0.5 / sqrt(H_k)
                expected_bn = 1.0 / math.sqrt(sum(1.0 / j for j in range(1, k + 1)))
                try:
                    run_experiment(e)
                    bn = None
                except ExperimentRefusedError as err:
                    bn = err.diagnostics.get("bn")
                shown = "not refused" if bn is None else f"refused, bn={bn:.3f}"
                checks.append((f"guard{tag}",
                               bn is not None and abs(bn - expected_bn) <= 1e-12,
                               f"bn bound {plevt.harness._BN_BOUND:g}: {shown} "
                               f"(1/sqrt(H_k)={expected_bn:.3f})"))
                m.setattr(plevt.harness, "_BN_BOUND", bn_override)
            rep = run_experiment(e)

        weights = [j ** exponents[spec] for j in range(1, k + 1)]
        law = spacing_statistic_law(e.n, weights, s, e.params.theta, e.params.beta,
                                    REF_REPS, REF_SEED)
        if s == 1.0:
            ref, ref_var = spacing_mean_quadrature(
                e.n, weights, e.params.theta, e.params.beta), 0.0
        else:
            ref, ref_var = float(np.mean(law)), float(np.var(law, ddof=1))
        checks.append(_mean_check(f"mean{tag}", rep.empirical_mean, rep.empirical_var,
                                  rep.reps, ref, ref_var, law.size))
        checks.append(_ks_check(f"ks{tag}", rep.ks_distance, rep.reps, law))
        checks.append(_law_check(f"law{tag}", rep.extras["replications"], law))

    # (identity, s=1) must reproduce the plain Hill pipeline bit for bit
    base = dict(n=5000, k=20, reps=200, seed=SeedSpec(99))
    dh_rep = run_experiment(Experiment(kind="dh_clt", s=1.0,
                                       weight=WeightFunction.identity(), **base))
    hill_rep = run_experiment(Experiment(kind="hill_clt", **base))
    same = (dh_rep.empirical_mean == hill_rep.empirical_mean
            and dh_rep.empirical_var == hill_rep.empirical_var
            and dh_rep.ks_distance == hill_rep.ks_distance)
    checks.append(("hill-equality", same, "(identity,1) == hill, matched seeds"))
    _verdict(capfd, 6, "functional Hill CLT", checks)


def test_criterion_07_record_clt(capfd):
    t0 = time.perf_counter()
    e = Experiment(kind="record_clt", seed=SEED, rerun_on_fail=False)  # n=400, 5000 reps
    rep = run_experiment(e)
    dt = time.perf_counter() - t0
    # the Gamma(n) control: the attempt's own log tails G_n, one block on its
    # seed's key, standardized as (G_n - n)/sqrt(n)
    control = (record_log_tails(e.n, e.seed, e.reps) - e.n) / math.sqrt(e.n)
    cm, cv = float(np.mean(control)), float(np.var(control, ddof=1))
    mc_mean = 4.0 / math.sqrt(rep.reps)            # 4 sigma of the MC noise
    mc_var = 4.0 * math.sqrt(2.0 / rep.reps)
    # centering at gamma*n leaves the documented log(n)/sqrt(n) offset
    ref = record_mean_quadrature(e.n, e.params.theta, e.params.beta)
    law = record_statistic_law(e.n, e.params.theta, e.params.beta, REF_REPS, REF_SEED)
    _verdict(capfd, 7, "record CLT", [
        _mean_check("mean", rep.empirical_mean, rep.empirical_var, rep.reps, ref),
        ("var", abs(rep.empirical_var - 1.0) <= 0.10, f"|{rep.empirical_var:.4f}-1|<=0.10"),
        _ks_check("ks", rep.ks_distance, rep.reps, law),
        _law_check("law", rep.extras["replications"], law),
        ("gamma-control", abs(cm) <= mc_mean and abs(cv - 1.0) <= mc_var,
         f"mean={cm:.4f} var={cv:.4f} within MC error"),
        ("runtime", dt < 60.0, f"{dt:.1f}s<60s"),
    ])


def test_law_rows_refuse_scaled_draws(monkeypatch):
    # the scaled-draw mutant: the harness's top order statistics and records
    # come out 1.1 times their law's, which the KS-to-N(0,1) rows alone did
    # not always catch; the law rows of criteria 5 and 7 must, at their own
    # seeds and sizes and against the same reference laws
    for name in ("top_order_statistics_rows", "_quantiles_at_log_tails"):
        draw = getattr(plevt.harness, name)
        monkeypatch.setattr(plevt.harness, name, lambda *a, draw=draw, **kw: 1.1 * draw(*a, **kw))
    hill_e = Experiment(kind="hill_clt", seed=SEED, rerun_on_fail=False)
    record_e = Experiment(kind="record_clt", seed=SEED, rerun_on_fail=False)
    p = hill_e.params
    laws = [
        (hill_e, spacing_statistic_law(hill_e.n, list(range(1, hill_e.k + 1)), 1.0,
                                       p.theta, p.beta, REF_REPS, REF_SEED)),
        (record_e, record_statistic_law(record_e.n, p.theta, p.beta, REF_REPS, REF_SEED)),
    ]
    for e, law in laws:
        _, passed, note = _law_check("law", run_experiment(e).extras["replications"], law)
        assert not passed, f"{e.kind} passes with scaled draws: {note}"


def test_criterion_08_gumbel_max(capfd):
    rep = run_experiment(Experiment(kind="max_gumbel", seed=SEED))
    _verdict(capfd, 8, "Gumbel max", [
        ("ks", rep.ks_distance <= 0.05,
         f"{rep.ks_distance:.4f}<=0.05 (n=1e5, 2000 reps)"),
    ])


def test_criterion_09_oracle_equivalence(capfd):
    rng = np.random.default_rng(2026)
    weights = [WeightFunction.identity(), WeightFunction.from_spec("pow:0.5"),
               WeightFunction.from_spec("log1p")]
    worst_h = 0.0
    worst_dh = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        sample = SortedSample(np.sort(np.exp(rng.normal(size=n))))
        k = int(rng.integers(1, n))
        worst_h = max(worst_h, abs(hill(sample, k) - hill_naive(sample.values, k))
                      / max(1.0, abs(hill_naive(sample.values, k))))
        f = weights[int(rng.integers(0, 3))]
        s = float(rng.choice([1.0, 1.5, 2.0]))
        ts = dh_statistic(sample, f, k, s)
        t_ref, a_ref, sn_ref, bn_ref = dh_naive(
            sample.values, [float(f.weights(k)[j]) for j in range(k)], k, s)
        for got, ref in ((ts.t_n, t_ref), (ts.a_n, a_ref),
                         (ts.s_n, sn_ref), (ts.b_n, bn_ref)):
            worst_dh = max(worst_dh, abs(got - ref) / max(1.0, abs(ref)))

    # record extraction from raw streams vs the gamma-sum simulation, n <= 3
    p = Params(1.0, 2.0)
    reps = 2000
    worst_ks = 0.0
    crit = ks_critical_two_sample(reps, reps)
    for n_rec in (1, 2, 3):
        extracted = np.empty(reps)
        for r in range(reps):
            gen = SeedSpec(7, stream_id=10_000 * n_rec + r).rng()
            chunk = 64
            stream = quantile_values(
                np.clip(1.0 - gen.random(chunk), 2.0**-53, 1.0 - 2.0**-53), p)
            recs = extract_records(stream)
            while recs.values.size < n_rec:
                more = quantile_values(
                    np.clip(1.0 - gen.random(chunk), 2.0**-53, 1.0 - 2.0**-53), p)
                stream = np.concatenate([stream, more])
                recs = extract_records(stream)
                chunk *= 2
            extracted[r] = recs.values[n_rec - 1]
        simulated = np.array([
            simulate_record(n_rec, p, SeedSpec(7, stream_id=50_000 * n_rec + r))
            for r in range(reps)
        ])
        worst_ks = max(worst_ks, ks_two_sample(np.sort(extracted), np.sort(simulated)))

    _verdict(capfd, 9, "brute-force oracle equivalence", [
        ("hill", worst_h <= 1e-12, f"max rel={worst_h:.1e}<=1e-12 (200 draws, n<=12)"),
        ("dh-statistic", worst_dh <= 1e-12, f"max rel={worst_dh:.1e}<=1e-12"),
        ("records-vs-sim", worst_ks <= crit,
         f"max two-sample KS={worst_ks:.4f}<={crit:.4f} (n<=3)"),
    ])


def _mini_battery():
    """The full experiment battery at desk scale (same code paths as the
    default suite: every kind, stream splitting, reruns)."""
    return [
        Experiment(kind="quantile_error_order", seed=SEED),
        Experiment(kind="sampler_gof", n=5000, seed=SEED),
        Experiment(kind="max_gumbel", n=2000, reps=200, seed=SEED),
        Experiment(kind="hill_clt", n=5000, k=5, reps=200, seed=SEED),
        Experiment(kind="dh_clt", n=5000, k=20, s=2.0,
                   weight=WeightFunction.identity(), reps=200, seed=SEED),
        Experiment(kind="record_clt", n=100, reps=200, seed=SEED),
    ]


def _stable(results):
    return [report_to_json(r, stable=True) for _, r in results]


def test_criterion_10_determinism(capfd):
    first = _stable(run_suite(_mini_battery()))
    second = _stable(run_suite(_mini_battery()))
    # an experiment's reports must not depend on what ran before it
    reversed_order = _stable(run_suite(_mini_battery()[::-1]))[::-1]
    hill = Experiment(kind="hill_clt", seed=SEED)  # its defaults: n = 1e5, 3000 reps, rerun
    single, single2 = (report_to_json(run_experiment(hill), stable=True) for _ in range(2))
    _verdict(capfd, 10, "determinism", [
        ("repeat", first == second, "byte-identical suite reports"),
        ("order", first == reversed_order, "suite run in reverse, byte-identical"),
        ("full-scale", single == single2, "default hill_clt twice, byte-identical"),
    ])
