"""Command-line surface.

Subcommands
-----------
eval     evaluate pdf / survival / cdf / quantile / moment at given points
sample   draw observations to CSV (raw draw order, or sorted)
fit      method-of-moments fit of (theta, beta) from CSV or stdin
hill     Hill estimates with plug-in confidence intervals over a k-grid
dhill    weighted spacing statistic with condition diagnostics (JSON)
records  extract records from a CSV stream, or simulate the n-th record
verify   run one Monte Carlo experiment, or the whole battery (--all)

Exit codes: 0 success (verify: passed), 1 verify tolerance failure,
2 usage (a size whose arrays the machine cannot allocate included), 3 output
I/O failure, 4 input parse failure, 5 mathematical precondition refused
(infeasible fit, degenerate spacings, condition-check refusal).

Every flag can also come from the environment as ``PLEVT_<DEST>`` (dest in
upper case, e.g. ``PLEVT_SEED=42``, ``PLEVT_THETA=2.5``; an on/off flag takes
1/true/yes/on or 0/false/no/off); an explicit flag wins over the environment.
Commands are deterministic given the full flag set, seed included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import asdict, replace
from statistics import NormalDist

import numpy as np

from . import __version__
from .distribution import Params, cdf, fit_method_of_moments, moment, pdf, survival
from .errors import (
    CsvFormatError,
    DegenerateSampleError,
    DomainError,
    ExperimentRefusedError,
    FitInfeasibleError,
    NotEvaluableError,
    ParameterError,
)
from .harness import (
    STOCHASTIC_KINDS,
    Experiment,
    default_thresholds,
    report_to_json,
    run_experiment,
    run_suite,
    standard_suite,
    suite_to_json,
    write_csv_summary,
)
from .quantile import quantile_values
from .records import extract_records, simulate_record, standardized_record
from .sampling import (
    SeedSpec,
    SortedSample,
    _read_values_bytes,
    mixture_values,
    read_values_csv,
    sample_mixture,
    write_values_csv,
)
from .tail import SpacingPlan, WeightFunction, _top_count, default_k, hill

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_OUTPUT_IO = 3
EXIT_PARSE = 4
EXIT_REFUSED = 5

_ENV_PREFIX = "PLEVT_"
DEFAULT_MASTER_SEED = 7

#: PLEVT_<DEST> values of an on/off flag, stripped and lower-cased.  An empty
#: value leaves the flag off, as an unset variable does; any other is refused.
_ENV_SWITCH = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False, "": False}


def _apply_env_defaults(parser: argparse.ArgumentParser) -> None:
    """Fill flag defaults from PLEVT_<DEST> environment variables."""
    for action in parser._actions:
        if not action.option_strings or action.dest in ("help", "version"):
            continue
        env_name = _ENV_PREFIX + action.dest.upper()
        raw = os.environ.get(env_name)
        if raw is None:
            continue
        conv = action.type or str
        try:
            if isinstance(action, argparse._StoreTrueAction):
                action.default = _ENV_SWITCH[raw.strip().lower()]
            elif action.nargs in ("+", "*"):
                action.default = [conv(tok) for tok in raw.split(",")]
            else:
                action.default = conv(raw)
        except (KeyError, ValueError):
            parser.error(f"invalid value in {env_name}: {raw!r}")
        action.required = False


def _resolve_seed(args: argparse.Namespace, draws: bool = True) -> SeedSpec:
    """The seed to run at; with none given, a run that ``draws`` warns of the default."""
    if args.seed is None and draws:
        print(
            f"warning: no --seed given (and no PLEVT_SEED); "
            f"using default master seed {DEFAULT_MASTER_SEED}",
            file=sys.stderr,
        )
    return SeedSpec(DEFAULT_MASTER_SEED if args.seed is None else args.seed, args.stream)


def _read_input_values(path: str | None) -> np.ndarray:
    """The values of the CSV at ``path``, or of stdin for none or ``-``, which
    is read as a file is, as bytes, whatever the locale's encoding."""
    if path in (None, "-"):
        return _read_values_bytes(sys.stdin.buffer.read(), "<stdin>")
    return _read_input(read_values_csv, path)


def _read_sample(path: str | None, command: str) -> SortedSample:
    """The input values sorted, for a command that needs at least 3 of them."""
    values = _read_input_values(path)
    if values.size < 3:
        raise ParameterError(f"{command} needs at least 3 observations, got {values.size}")
    return SortedSample(np.sort(values))


def _read_input(read, arg: str):
    """``read(arg)``, with a file it cannot open an input failure (exit 4)."""
    try:
        return read(arg)
    except OSError as exc:
        raise CsvFormatError(exc.filename or arg, 0, exc.strerror or str(exc)) from exc


def _write_outputs(*outputs) -> None:
    """Write each ``(path, content)`` of a command to the file at ``path``, or to
    stdout for none or ``-``; ``content`` is text, or a function that writes to the file.

    Two outputs on one sink raise ParameterError.  Every file is opened, for
    appending, before any is emptied or written, so a refused command, or one
    with a file it cannot open (OSError), writes no content anywhere: an old
    file keeps its bytes, and a file that the failed command created is removed.
    """
    sinks = ["-" if path in (None, "-") else os.path.realpath(path) for path, _ in outputs]
    for i, sink in enumerate(sinks):
        if sink in sinks[:i]:
            where = "stdout" if sink == "-" else repr(outputs[i][0])
            raise ParameterError(f"two outputs would go to {where}; give each its own path")
    fresh = [sink for sink in sinks if sink != "-" and not os.path.exists(sink)]
    with contextlib.ExitStack() as files:
        try:
            handles = [sys.stdout if sink == "-" else
                       files.enter_context(open(path, "a", encoding="utf-8"))
                       for sink, (path, _) in zip(sinks, outputs)]
        except OSError:
            for sink in fresh:
                if os.path.exists(sink):  # created by an open above
                    os.remove(sink)
            raise
        for fh in handles:  # all open: empty the regular files, as mode "w" would have
            if fh is not sys.stdout and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
        for fh, (_, content) in zip(handles, outputs):
            if callable(content):
                content(fh)
            else:
                fh.write(content)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args: argparse.Namespace) -> int:
    p = Params(args.theta, args.beta)
    if args.fn == "moment":
        if args.n is None:
            raise ParameterError("--fn moment requires --n (the moment order)")
        lines = [f"{args.n}\t{moment(args.n, p)!r}"]
    else:  # one value per point: x for the law's functions, u for the quantile
        flag = "u" if args.fn == "quantile" else "x"
        points = getattr(args, flag)
        if not points:
            raise ParameterError(f"--fn {args.fn} requires --{flag}")
        fn = {"pdf": pdf, "survival": survival, "cdf": cdf, "quantile": quantile_values}[args.fn]
        lines = [f"{float(x)!r}\t{float(v)!r}" for x, v in zip(points, fn(points, p))]
    _write_outputs((args.output, "\n".join(lines) + "\n"))
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ParameterError("sample requires -n/--n (or PLEVT_N)")
    p = Params(args.theta, args.beta)
    seed = _resolve_seed(args)
    if args.sorted:
        values = sample_mixture(args.n, p, seed).values
    else:
        values = mixture_values(args.n, p, seed)
    _write_outputs((args.output, lambda fh: write_values_csv(values, fh)))
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    values = _read_input_values(args.input)
    result = fit_method_of_moments(values)
    payload = {
        "theta": result.params.theta,
        "beta": result.params.beta,
        "gamma": result.params.gamma,
        "m1": result.m1,
        "m2": result.m2,
        "n_obs": int(values.size),
    }
    _write_outputs((args.output, json.dumps(payload, sort_keys=True) + "\n"))
    return EXIT_OK


def _parse_k_grid(spec: str, n: int) -> range:
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not all(s.strip() for s in parts):
        raise ParameterError(f"--k-grid expects MIN:MAX[:STEP], got {spec!r}")
    try:
        nums = [int(s) for s in parts]
    except ValueError:
        raise ParameterError(f"--k-grid expects integers MIN:MAX[:STEP], got {spec!r}") from None
    lo, hi = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or lo > hi:
        raise ParameterError(f"empty or descending --k-grid {spec!r}")
    ks = range(lo, hi + 1, step)
    for k in (ks[0], ks[-1]):  # the two ends, before the grid is walked
        _top_count(n, k)
    return ks


def _two_sided_z(level: float) -> float:
    """Normal quantile ``Phi^-1(1/2 + level/2)`` of a two-sided confidence level."""
    if not 0.0 < level < 1.0:
        raise ParameterError(f"--level must lie in (0, 1), got {level}")
    p = 0.5 + level / 2.0
    if p >= 1.0:
        raise ParameterError(f"--level {level!r} is too close to 1: 1/2 + level/2 rounds to 1")
    return NormalDist().inv_cdf(p)


def cmd_hill(args: argparse.Namespace) -> int:
    sample = _read_sample(args.input, "hill")
    if args.k is not None and args.k_grid is not None:
        raise ParameterError("--k and --k-grid are mutually exclusive")
    if args.k_grid is not None:
        ks = _parse_k_grid(args.k_grid, sample.n)
    elif args.k is not None:
        ks = [args.k]
    else:
        ks = [default_k(sample.n)]
    z = _two_sided_z(args.level)
    rows = ["k,hill,ci_low,ci_high"]
    for k in ks:
        h = hill(sample, k)
        half = z * h / math.sqrt(k)
        low, high = h - half, h + half
        if not (math.isfinite(low) and math.isfinite(high)):
            raise DomainError(f"confidence bounds of hill at k = {k} overflow float64")
        rows.append(f"{k},{h!r},{low!r},{high!r}")
    _write_outputs((args.output, "\n".join(rows) + "\n"))
    return EXIT_OK


def cmd_dhill(args: argparse.Namespace) -> int:
    sample = _read_sample(args.input, "dhill")
    weight = _read_input(WeightFunction.from_spec, args.f)
    k = args.k if args.k is not None else default_k(sample.n)
    plan = SpacingPlan.build(weight, sample.n, k, args.s)
    payload = {"n": sample.n, "weight": weight.label, "conditions": plan.conditions(),
               **asdict(plan.statistics(sample.values))}
    _write_outputs((args.output, json.dumps(payload, sort_keys=True) + "\n"))
    return EXIT_OK


def cmd_records(args: argparse.Namespace) -> int:
    if args.simulate:
        if args.n is None:
            raise ParameterError("records --simulate requires --n (record index)")
        p = Params(args.theta, args.beta)
        seed = _resolve_seed(args)
        value = simulate_record(args.n, p, seed)
        payload = {
            "n": args.n,
            "value": value,
            "standardized": standardized_record(value, args.n, p),
        }
        _write_outputs((args.output, json.dumps(payload, sort_keys=True) + "\n"))
        return EXIT_OK
    values = _read_input_values(args.input)
    rec = extract_records(values)
    rows = ["index,value"]
    for idx, val in zip(rec.indices, rec.values):
        rows.append(f"{int(idx)},{float(val)!r}")
    _write_outputs((args.output, "\n".join(rows) + "\n"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p = Params(args.theta, args.beta)
    if args.all:
        if args.kind is not None:
            raise ParameterError("--all and --kind are mutually exclusive")
        single_kind = {
            "--n": args.n, "--k": args.k, "--f": args.f, "--s": args.s,
            "--reps": args.reps, "--ks": args.ks, "--mean-window": args.mean_window,
            "--var-window": args.var_window, "--no-rerun": args.no_rerun or None,
        }
        given = [flag for flag, value in single_kind.items() if value is not None]
        if given:
            raise ParameterError(
                f"--all runs the standard suite at its defaults and takes no "
                f"{', '.join(given)} (as a flag or a PLEVT_* variable)"
            )
        results = run_suite(standard_suite(p, _resolve_seed(args)))
        text = suite_to_json(results, stable=args.stable_json)
    elif args.kind is None:
        raise ParameterError("verify requires --kind (or --all)")
    else:
        overrides = {"ks": args.ks, "mean_window": args.mean_window, "var_window": args.var_window}
        overrides = {name: value for name, value in overrides.items() if value is not None}
        thresholds = (
            replace(default_thresholds(args.kind), **overrides) if overrides else None
        )
        experiment = Experiment(
            kind=args.kind,
            params=p,
            n=args.n,
            k=args.k,
            weight=None if args.f is None else _read_input(WeightFunction.from_spec, args.f),
            s=args.s,
            reps=args.reps,
            seed=_resolve_seed(args, draws=args.kind in STOCHASTIC_KINDS),
            thresholds=thresholds,
            rerun_on_fail=not args.no_rerun,
        )
        report = run_experiment(experiment)
        results = [(experiment, report)]
        text = report_to_json(report, stable=args.stable_json)
    outputs = [(args.output, text + "\n")]
    if args.csv is not None:
        outputs.append((args.csv, lambda fh: write_csv_summary(results, fh)))
    _write_outputs(*outputs)
    return EXIT_OK if all(r.passed for _, r in results) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--theta", type=float, default=1.0, help="rate parameter theta > 0")
    sub.add_argument("--beta", type=float, default=2.0, help="shape parameter beta > 1")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    sub.add_argument("--stream", type=int, default=0, help="base stream id (default 0)")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-i", "--input", default=None, help="input CSV path (default stdin)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plevt",
        description="Pseudo-Lindley distribution toolkit: evaluation, sampling, "
        "tail estimation, records, and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"plevt {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("eval", help="evaluate distribution functions")
    sub.add_argument(
        "--fn",
        required=True,
        choices=("pdf", "survival", "cdf", "quantile", "moment"),
        help="function to evaluate",
    )
    _add_params(sub)
    sub.add_argument("--x", type=float, nargs="+", help="evaluation points (pdf/survival/cdf)")
    sub.add_argument("--u", type=float, nargs="+", help="tail masses in (0,1) (quantile)")
    sub.add_argument("--n", type=int, default=None, help="moment order (moment)")
    _add_output(sub)
    sub.set_defaults(func=cmd_eval)

    sub = subs.add_parser("sample", help="draw observations to CSV")
    sub.add_argument("-n", "--n", dest="n", type=int, default=None, help="sample size")
    _add_params(sub)
    _add_seed(sub)
    sub.add_argument("--sorted", action="store_true", help="emit sorted ascending")
    _add_output(sub)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("fit", help="method-of-moments fit from CSV/stdin")
    _add_input(sub)
    _add_output(sub)
    sub.set_defaults(func=cmd_fit)

    sub = subs.add_parser("hill", help="Hill estimates with confidence intervals")
    _add_input(sub)
    sub.add_argument("--k", type=int, default=None, help="number of top spacings")
    sub.add_argument("--k-grid", default=None, help="k grid MIN:MAX[:STEP]")
    sub.add_argument("--level", type=float, default=0.95, help="confidence level")
    _add_output(sub)
    sub.set_defaults(func=cmd_hill)

    sub = subs.add_parser("dhill", help="weighted spacing statistic (JSON)")
    _add_input(sub)
    sub.add_argument("--k", type=int, default=None, help="number of top spacings")
    sub.add_argument("--f", default="identity", help="weight spec: identity | pow:<a> | log1p | table:<path>")
    sub.add_argument("--s", type=float, default=1.0, help="spacing power s >= 1")
    _add_output(sub)
    sub.set_defaults(func=cmd_dhill)

    sub = subs.add_parser("records", help="extract records from CSV, or simulate one")
    _add_input(sub)
    sub.add_argument("--simulate", action="store_true", help="simulate the n-th record instead")
    sub.add_argument("--n", type=int, default=None, help="record index (with --simulate)")
    _add_params(sub)
    _add_seed(sub)
    _add_output(sub)
    sub.set_defaults(func=cmd_records)

    sub = subs.add_parser("verify", help="run Monte Carlo verification experiments")
    sub.add_argument("--kind", default=None, help="experiment kind")
    sub.add_argument("--all", action="store_true", help="run the whole battery")
    _add_params(sub)
    sub.add_argument("--n", type=int, default=None, help="sample size / record index")
    sub.add_argument("--k", type=int, default=None, help="top-spacings count")
    sub.add_argument("--f", default=None, help="weight spec (dh_clt)")
    sub.add_argument("--s", type=float, default=None, help="spacing power (dh_clt)")
    sub.add_argument("--reps", type=int, default=None, help="replications")
    _add_seed(sub)
    sub.add_argument("--workers", type=int, default=1, help="ignored: replications run serially")
    sub.add_argument("--ks", type=float, default=None, help="override KS threshold")
    sub.add_argument("--mean-window", type=float, default=None, help="override mean window")
    sub.add_argument("--var-window", type=float, default=None, help="override variance window")
    sub.add_argument("--no-rerun", action="store_true", help="disable the automatic re-run")
    sub.add_argument(
        "--stable-json",
        action="store_true",
        help="zero the runtime_ms field for byte-identical comparisons",
    )
    sub.add_argument("--csv", default=None,
                     help="also write a CSV summary to this path (- for stdout)")
    _add_output(sub)
    sub.set_defaults(func=cmd_verify)

    for sub_parser in subs.choices.values():
        _apply_env_defaults(sub_parser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError, NotEvaluableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExperimentRefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, sort_keys=True), file=sys.stderr)
        return EXIT_REFUSED
    except (FitInfeasibleError, DegenerateSampleError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_IO
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
