"""End-to-end CLI tests driving plevt.cli.main with in-process argv lists."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import plevt
import plevt.cli
import plevt.harness
from plevt import Params, hill, pdf, quantile_values
from plevt.cli import _two_sided_z, main
from plevt.sampling import SeedSpec, SortedSample, read_values_csv, sample_mixture

CANON = "x\n0.1\n0.5\n1.2\n2.0\n3.5\n"


@pytest.fixture
def canon_csv(tmp_path):
    p = tmp_path / "canon.csv"
    p.write_text(CANON)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_pdf_matches_library(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "pdf", "--x", "0", "1.5", "--theta", "1", "--beta", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0.0\t0.5"
    x, v = lines[1].split("\t")
    expect = float(pdf(np.array([1.5]), Params(1.0, 2.0))[0])
    assert float(v) == expect and float(x) == 1.5


def test_eval_quantile(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "quantile", "--u", "0.5")
    assert code == 0
    u, v = out.strip().split("\t")
    assert float(v) == quantile_values(np.array([0.5]), Params(1.0, 2.0))[0]


def test_eval_moment(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "moment", "--n", "2")
    assert code == 0
    assert out.startswith("2\t")
    assert float(out.split("\t")[1]) == pytest.approx(4.0, rel=1e-12)


def test_eval_moment_overflow_is_a_usage_error(capsys):
    # the library raises DomainError, which the command reports as exit 2
    code, out, err = run(capsys, "eval", "--fn", "moment", "--n", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "overflows" in err


def test_eval_moment_without_its_order_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--fn", "moment")
    assert code == 2 and out == ""
    assert err == "error: --fn moment requires --n (the moment order)\n"


def test_eval_survival_cdf_complement(capsys):
    _, s_out, _ = run(capsys, "eval", "--fn", "survival", "--x", "1.0")
    _, c_out, _ = run(capsys, "eval", "--fn", "cdf", "--x", "1.0")
    s = float(s_out.split("\t")[1])
    c = float(c_out.split("\t")[1])
    assert s + c == pytest.approx(1.0, abs=1e-15)


def test_eval_requires_matching_inputs(capsys):
    code, _, err = run(capsys, "eval", "--fn", "pdf")  # no --x given
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "eval", "--fn", "quantile", "--u", "1.5")
    assert code == 2


def test_eval_bad_theta(capsys):
    code, _, err = run(capsys, "eval", "--fn", "pdf", "--x", "1", "--theta", "-3")
    assert code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "pdf", "--x", "1", "--frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "-n", "500", "--seed", "42", "-o", str(a)]) == 0
    assert main(["sample", "-n", "500", "--seed", "42", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert read_values_csv(str(a)).size == 500


def test_sample_sorted_flag(tmp_path, capsys):
    p = tmp_path / "s.csv"
    assert main(["sample", "-n", "100", "--seed", "1", "--sorted", "-o", str(p)]) == 0
    capsys.readouterr()
    vals = [float(t) for t in p.read_text().split()]
    assert vals == sorted(vals)


def test_sample_rejects_nonpositive_n(capsys):
    code, _, err = run(capsys, "sample", "-n", "0", "--seed", "1")
    assert code == 2
    assert "error:" in err


def test_sample_unwritable_output(capsys):
    code, _, err = run(capsys, "sample", "-n", "10", "--seed", "1",
                       "-o", "/nonexistent-dir/out.csv")
    assert code == 3


def test_sample_stdout_and_file_are_the_same_bytes(tmp_path, capsys):
    p = tmp_path / "s.csv"
    code, out, _ = run(capsys, "sample", "-n", "300", "--seed", "4")
    assert code == 0
    assert main(["sample", "-n", "300", "--seed", "4", "-o", str(p)]) == 0
    assert p.read_text(encoding="utf-8") == out


def test_sample_past_the_double_range_is_one_usage_error_line(capsys):
    # theta = 5e-324 is a valid rate, but every draw / theta overflows
    code, out, err = run(capsys, "sample", "-n", "5", "--theta", "5e-324", "--seed", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: a draw overflows float64 for Params(theta=5e-324, beta=2.0)"]


def test_sample_seed_warning_on_stderr(capsys, monkeypatch):
    monkeypatch.delenv("PLEVT_SEED", raising=False)
    code, out, err = run(capsys, "sample", "-n", "3")
    assert code == 0
    assert "seed" in err.lower()
    code, out, err = run(capsys, "sample", "-n", "3", "--seed", "9")
    assert err == ""


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_sample_then_fit_pipeline(tmp_path, capsys):
    p = tmp_path / "draw.csv"
    assert main(["sample", "-n", "20000", "--seed", "7", "--theta", "1.0",
                 "--beta", "2.0", "-o", str(p)]) == 0
    code, out, _ = run(capsys, "fit", "-i", str(p))
    assert code == 0
    fit = json.loads(out)
    assert set(fit) == {"theta", "beta", "gamma", "m1", "m2", "n_obs"}
    assert fit["n_obs"] == 20000
    assert fit["theta"] == pytest.approx(1.0, abs=0.08)
    assert fit["beta"] == pytest.approx(2.0, abs=0.6)
    assert fit["gamma"] == pytest.approx(1.0 / fit["theta"], rel=1e-12)


def test_fit_infeasible_moments(tmp_path, capsys):
    # mean 2 with m2 = 5 sits outside the reachable (m1, m2) region
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n3.0\n")
    code, out, err = run(capsys, "fit", "-i", str(p))
    assert code == 5
    assert "refused:" in err


@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_fit_moments_past_the_double_range(tmp_path, capsys, scale):
    # the canonical values scaled: m2 overflows, or underflows to 0, although
    # the moment ratio, which does not depend on scale, is admissible
    p = tmp_path / "scaled.csv"
    p.write_text("".join(f"{v * scale!r}\n" for v in (0.1, 0.5, 1.2, 2.0, 3.5)))
    code, out, err = run(capsys, "fit", "-i", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "double range" in err


def test_fit_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"0.2\n0.5\n1.0\n2.0\n4.0\n")))
    code, out, _ = run(capsys, "fit")
    assert code == 0
    json.loads(out)


def test_fit_rejects_unreadable_file(capsys, tmp_path):
    code, _, err = run(capsys, "fit", "-i", str(tmp_path / "missing.csv"))
    assert code == 4


def _plevt_process(argv, stdin: bytes, **env) -> subprocess.CompletedProcess:
    """``plevt argv`` in a child process fed the bytes ``stdin``."""
    src = os.path.dirname(os.path.dirname(plevt.__file__))
    return subprocess.run([sys.executable, "-m", "plevt.cli", *argv], input=stdin,
                          env=dict(os.environ, PYTHONPATH=src, **env), capture_output=True,
                          timeout=120)


def test_stdin_is_strict_utf8_as_a_file_is(tmp_path):
    # stdin was decoded with the locale's encoding and surrogateescape, so a
    # byte that is not UTF-8 became a line that is not a number; the offset
    # is the input's, where a byte order mark and each \r count
    for data, offset in [(b"1\n2\n\xff\n3\n", 4), (b"\xef\xbb\xbf1\n2\n\xff\n3\n", 7),
                         (b"1\r\n2\r\n\xff\r\n3\r\n", 6)]:
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        piped = _plevt_process(["hill"], data)
        from_file = _plevt_process(["hill", "-i", str(path)], b"")
        assert piped.returncode == from_file.returncode == 4
        assert piped.stderr == b"error: <stdin>: unreadable input: not UTF-8 text at byte %d\n" % offset
        assert from_file.stderr == piped.stderr.replace(b"<stdin>", os.fsencode(path))


def test_stdin_ignores_the_locale_encoding(tmp_path):
    # UTF-8 digits that a Latin-1 stdin would have read as mojibake
    path = tmp_path / "ar.csv"
    path.write_bytes("1.5\n\u0661\u0662\n3\n4\n".encode("utf-8"))
    piped = _plevt_process(["fit"], path.read_bytes(), PYTHONIOENCODING="latin-1")
    from_file = _plevt_process(["fit", "-i", str(path)], b"", PYTHONIOENCODING="latin-1")
    assert piped.returncode == from_file.returncode == 0, piped.stderr
    assert piped.stdout == from_file.stdout


# ---------------------------------------------------------------------------
# hill / dhill
# ---------------------------------------------------------------------------

def test_hill_canonical_value(canon_csv, capsys):
    code, out, _ = run(capsys, "hill", "-i", canon_csv, "--k", "3")
    assert code == 0
    header, row = out.splitlines()
    assert header == "k,hill,ci_low,ci_high"
    k, h, lo, hi = row.split(",")
    assert k == "3"
    assert float(h) == pytest.approx(5.2 / 3.0, rel=1e-12)
    assert float(lo) < float(h) < float(hi)


def test_hill_k_grid_rows_and_ci_formula(tmp_path, capsys):
    p = tmp_path / "big.csv"
    s = sample_mixture(5000, Params(1.0, 2.0), SeedSpec(17))
    p.write_text("\n".join(repr(float(v)) for v in s.values) + "\n")
    code, out, _ = run(capsys, "hill", "-i", str(p), "--k-grid", "10:40:10")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["10", "20", "30", "40"]
    z = 1.959963984540054  # two-sided 95% normal quantile
    for k_s, h_s, lo_s, hi_s in rows:
        k, h = int(k_s), float(h_s)
        half = z * h / math.sqrt(k)
        assert float(lo_s) == pytest.approx(h - half, rel=1e-12)
        assert float(hi_s) == pytest.approx(h + half, rel=1e-12)


def test_hill_matches_library(canon_csv, capsys):
    _, out, _ = run(capsys, "hill", "-i", canon_csv, "--k", "2")
    h = float(out.splitlines()[1].split(",")[1])
    sample = SortedSample(np.sort(read_values_csv(canon_csv)))
    assert h == hill(sample, 2)


@pytest.mark.parametrize("command", ["hill", "dhill"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_default_k_on_a_small_file_is_n_minus_one(tmp_path, capsys, command, n):
    # with no --k the default is capped at n - 1, so a tiny file is accepted
    p = tmp_path / "small.csv"
    p.write_text("".join(f"{v}\n" for v in (0.1, 0.5, 1.2, 2.0, 3.5)[:n]))
    code, out, err = run(capsys, command, "-i", str(p))
    assert (code, err) == (0, "")
    if command == "hill":
        assert out.splitlines()[1].split(",")[0] == str(n - 1)
    else:
        assert json.loads(out)["k"] == n - 1


@pytest.mark.parametrize("command", ["hill", "dhill"])
@pytest.mark.parametrize("n", [1, 2])
def test_fewer_than_three_values_is_a_usage_error(tmp_path, capsys, command, n):
    # the library takes 2 values at k = 1; the CLI asks for 3
    p = tmp_path / "tiny.csv"
    p.write_text("".join(f"{v}\n" for v in (0.5, 1.2)[:n]))
    code, out, err = run(capsys, command, "-i", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: {command} needs at least 3 observations, got {n}\n"


def test_hill_k_out_of_range(canon_csv, capsys):
    code, _, err = run(capsys, "hill", "-i", canon_csv, "--k", "5")
    assert code == 2


def test_hill_bad_level(canon_csv, capsys):
    code, _, _ = run(capsys, "hill", "-i", canon_csv, "--k", "2", "--level", "1.2")
    assert code == 2


def test_hill_level_that_rounds_to_one(canon_csv, capsys):
    # 1/2 + level/2 rounds to 1.0, so the bounds would be infinite
    code, out, err = run(
        capsys, "hill", "-i", canon_csv, "--k", "2", "--level", "0.9999999999999999"
    )
    assert code == 2 and out == "" and err.startswith("error:")
    assert math.isfinite(_two_sided_z(0.9999999999999998))


@pytest.mark.parametrize("data, options, k", [
    ("-1e308\n0\n1e308\n", ["--k", "1"], 1),
    ("0\n1e300\n1.7e308\n", ["--k", "2", "--level", "0.9999"], 2),
    # k = 1 has finite bounds; the grid's later k overflows, so no row is written
    ("0\n8e307\n8.00000001e307\n", ["--k-grid", "1:2"], 2),
])
def test_hill_infinite_bounds_are_a_usage_error(tmp_path, capsys, data, options, k):
    # a finite estimate whose bounds h -+ z*h/sqrt(k) leave the double range
    p = tmp_path / "wide.csv"
    p.write_text(data)
    code, out, err = run(capsys, "hill", "-i", str(p), *options)
    assert (code, out) == (2, "")
    assert err == f"error: confidence bounds of hill at k = {k} overflow float64\n"


def test_hill_z_matches_ndtri():
    # NormalDist.inv_cdf and ndtri are each within 5 ulp of the exact
    # quantile (mpmath, 2e4 levels); they differ by at most 7 ulp over 1e6
    # levels in [0.5, 0.999], by more than 2 at 6% of them
    for level in np.linspace(0.5, 0.999, 2000).tolist():
        ref = float(ndtri(0.5 + level / 2.0))
        assert abs(_two_sided_z(level) - ref) <= 8 * math.ulp(ref), level


def test_hill_bad_csv_reports_line(tmp_path, capsys):
    p = tmp_path / "mangled.csv"
    p.write_text("0.3\n1.1\nnot-a-number\n2.2\n")
    code, _, err = run(capsys, "hill", "-i", str(p), "--k", "2")
    assert code == 4
    assert ":3:" in err  # offending line number in path:line: style


def test_hill_degenerate_sample(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    p.write_text("2.0\n2.0\n2.0\n2.0\n")
    code, out, err = run(capsys, "hill", "-i", str(p), "--k", "3")
    assert code == 5
    assert "refused:" in err
    assert out == ""


def test_hill_bad_k_grid_spec(canon_csv, capsys):
    code, _, _ = run(capsys, "hill", "-i", canon_csv, "--k-grid", "3:1")
    assert code == 2
    code, _, _ = run(capsys, "hill", "-i", canon_csv, "--k-grid", "a:b")
    assert code == 2
    for spec in ("5", "1:2:3:4", "1::2"):  # one part, four, an empty one
        code, out, err = run(capsys, "hill", "-i", canon_csv, "--k-grid", spec)
        assert code == 2 and out == ""
        assert err == f"error: --k-grid expects MIN:MAX[:STEP], got {spec!r}\n"


def test_hill_k_grid_ends_are_checked_before_the_grid_is_built(canon_csv, capsys):
    # a grid of 1e20 values is refused by its upper end, not built first
    code, out, err = run(capsys, "hill", "-i", canon_csv, "--k-grid", "1:99999999999999999999")
    assert code == 2 and out == ""
    assert err == "error: k must lie in [1, n-1] = [1, 4], got 99999999999999999999\n"
    # the upper end is the grid's last value, which the step may leave below MAX
    code, out, _ = run(capsys, "hill", "-i", canon_csv, "--k-grid", "1:6:3")
    assert code == 0 and [row[0] for row in out.splitlines()[1:]] == ["1", "4"]


def test_dhill_k_past_the_sample_builds_no_weights(canon_csv, capsys, monkeypatch):
    def weights(self, k):
        raise AssertionError(f"built {k} weights before k was compared with n")

    monkeypatch.setattr(plevt.tail.WeightFunction, "weights", weights)
    code, out, err = run(capsys, "dhill", "-i", canon_csv, "--k", "1000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: k must lie in [1, n-1]")


def test_dhill_json_contract(canon_csv, capsys):
    code, out, _ = run(capsys, "dhill", "-i", canon_csv, "--k", "3", "--f",
                       "pow:0.5", "--s", "2")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"n", "k", "s", "weight", "hill", "t_n", "a_n", "s_n",
                      "b_n", "dh_estimate", "conditions"}
    assert set(d["conditions"]) == {"ratio1", "bn", "growth", "k1"}
    assert d["weight"] == "pow:0.5"
    assert d["hill"] == pytest.approx(5.2 / 3.0, rel=1e-12)
    assert d["dh_estimate"] == pytest.approx((d["t_n"] / d["a_n"]) ** 0.5, rel=1e-12)


def test_dhill_identity_s1_equals_hill(canon_csv, capsys):
    _, out, _ = run(capsys, "dhill", "-i", canon_csv, "--k", "3")
    d = json.loads(out)
    assert d["t_n"] / d["k"] == d["hill"]


def test_dhill_degenerate_sample(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    p.write_text("2.0\n2.0\n2.0\n2.0\n")
    code, _, err = run(capsys, "dhill", "-i", str(p), "--k", "3")
    assert code == 5
    assert "refused:" in err


def test_dhill_underflowing_sum_is_usage_error(tmp_path, capsys):
    # spacings of 1e-200 are not zero, but t_n at s = 2 underflows: a result
    # past the double range (exit 2), not a degenerate sample (exit 5)
    p = tmp_path / "tiny.csv"
    p.write_text("0.0\n1e-200\n2e-200\n")
    code, out, err = run(capsys, "dhill", "-i", str(p), "--k", "2", "--s", "2")
    assert code == 2 and out == ""
    assert err == "error: weighted spacing sum underflows float64 at s = 2.0\n"


def test_dhill_bad_weight_spec(canon_csv, capsys):
    code, _, _ = run(capsys, "dhill", "-i", canon_csv, "--k", "3", "--f", "cube")
    assert code == 2
    # power weights j**a that are NaN, inf or overflow: refused, never printed
    for spec in ("pow:nan", "pow:inf", "pow:1e308"):
        code, out, err = run(capsys, "dhill", "-i", canon_csv, "--k", "3", "--f", spec)
        assert code == 2 and out == "", spec
        assert "finite and > 0" in err
    # a non-finite exponent is refused at k = 1 too, where 1**a == 1
    for spec in ("pow:nan", "pow:inf", "pow:-inf"):
        code, out, err = run(capsys, "dhill", "-i", canon_csv, "--k", "1", "--f", spec)
        assert code == 2 and out == "", spec
        assert "finite and > 0" in err


def test_dhill_overflow_is_usage_error(tmp_path, capsys):
    # t_n (s = 70), s_n (pow:160), Gamma(2s+1) (s = 86) or Gamma(s+1)
    # (s = 171, 1e300) past the double range: refused with exit 2, never
    # printed as Infinity or NaN, never a traceback
    p = tmp_path / "wide.csv"
    p.write_text("".join(f"{v!r}\n" for v in (np.arange(1.0, 101.0) * 1e5).tolist()))
    for extra in (["--s", "70"], ["--f", "pow:160"], ["--s", "86"], ["--s", "171"],
                  ["--s", "1e300"]):
        code, out, err = run(capsys, "dhill", "-i", str(p), "--k", "20", *extra)
        assert code == 2 and out == "", extra
        assert err.startswith("error:") and "Traceback" not in err, extra


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("dhill") / "small.csv"
    p.write_text("".join(f"{v!r}\n" for v in [0.02, 0.3, 0.5, 0.9, 1.4, 2.2, 3.5, 5.0, 8.0, 13.0]))
    return str(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(s=st.floats(1.0, 1e308), a=st.floats(-400.0, 400.0), k=st.integers(1, 9))
def test_dhill_never_escapes_with_a_traceback(small_csv, s, a, k):
    # whatever (s, pow:a, k) leaves the double range must be a usage error
    # (2) or a refusal (5), never an uncaught exception or a RuntimeWarning
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["dhill", "-i", small_csv, "--k", str(k), "--f", f"pow:{a!r}",
                     "--s", repr(s)])
    assert code in (0, 2, 5), err.getvalue()
    assert (code == 0) == (out.getvalue() != "")


#: Inputs the file-reading subcommands draw from: good, tied, wide, short,
#: empty, malformed and non-finite files, and one that does not exist.
CLI_FILES = {
    "small.csv": "".join(f"{v!r}\n" for v in [0.02, 0.3, 0.5, 0.9, 1.4, 2.2, 3.5, 5.0, 8.0, 13.0]),
    "header.csv": CANON,
    "ties.csv": "1.0\n" * 8,
    "wide.csv": "".join(f"{v!r}\n" for v in [-1e308, 1e-300, 1.0, 1e154, 1e300, 1e308]),
    "one.csv": "2.5\n",
    "empty.csv": "",
    "bad.csv": "1.0\nabc\n2.0\n",
    "nan.csv": "1.0\nnan\n2.0\n",
}

REAL_TEXT = ["0", "-0.0", "1", "2.5", "0.95", "5e-324", "1e308", "-1e308", "nan", "inf",
             "-inf", "abc", ""]
COUNT_TEXT = ["-1", "0", "1", "2", "3", "5", "1.5", "abc", "", "99999999999999999999"]
SMALL_TEXT = ["-1", "0", "1", "3", "20", "1.5", "abc", ""]  # a count that sizes an allocation
SPEC_TEXT = ["identity", "log1p", "pow:0.5", "pow:160", "pow:nan", "bogus",
             "table:/nonexistent/w.csv"]
FILE_TEXT = sorted(CLI_FILES) + ["missing.csv"]
REALS, COUNTS, SMALL, SPECS = map(st.sampled_from, (REAL_TEXT, COUNT_TEXT, SMALL_TEXT, SPEC_TEXT))
SWITCH = "<switch>"


def _flags(**options):
    """argv tokens for a drawn subset of ``options`` (flag -> strategy of its
    text), as ``--flag=value`` so that a value such as ``-inf`` is not read as
    a flag."""
    drawn = st.fixed_dictionaries({flag.replace("_", "-"): st.none() | strategy
                                   for flag, strategy in options.items()})
    return drawn.map(lambda d: [f"--{flag}" if value == SWITCH else f"--{flag}={value}"
                                for flag, value in d.items() if value is not None])


_input = st.sampled_from(FILE_TEXT)
_params = {"theta": REALS, "beta": REALS}
_seed = {"seed": COUNTS, "stream": COUNTS}
_switch = st.just(SWITCH)

#: The argv strategy of each subcommand; every count that sizes a draw or a
#: replication loop stays small, so each example runs in milliseconds.
SUBCOMMAND_ARGV = {
    "eval": st.tuples(st.sampled_from(["pdf", "survival", "cdf", "quantile", "moment"]),
                      _flags(x=REALS, u=REALS, n=COUNTS, **_params))
    .map(lambda t: ["--fn", t[0], *t[1]]),
    "sample": _flags(n=SMALL, sorted=_switch, **_params, **_seed),
    "fit": st.tuples(_input, _flags()).map(lambda t: ["-i", t[0]]),
    "hill": st.tuples(_input, _flags(k=COUNTS, level=REALS, k_grid=st.sampled_from(
        ["1:3", "3:1", "1:2:0", "a:b", "2", "1:99"]))).map(lambda t: ["-i", t[0], *t[1]]),
    "dhill": st.tuples(_input, _flags(k=COUNTS, f=SPECS, s=REALS))
    .map(lambda t: ["-i", t[0], *t[1]]),
    "records": st.one_of(
        _input.map(lambda name: ["-i", name]),
        _flags(n=COUNTS, **_params, **_seed).map(lambda argv: ["--simulate", *argv])),
    "verify": st.tuples(
        st.sampled_from(["max_gumbel", "hill_clt", "dh_clt", "record_clt", "sampler_gof",
                         "quantile_error_order", "bogus"]),
        st.sampled_from(["100", "1", "99", "abc"]),
        _flags(n=st.sampled_from(["50", "2", "0", "abc"]), k=SMALL, f=SPECS, s=REALS,
               ks=REALS, mean_window=REALS, var_window=REALS, no_rerun=_switch, **_params))
    .map(lambda t: ["--kind", t[0], "--reps", t[1], "--seed", "7", *t[2]]),
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("cli_inputs")
    for name, text in CLI_FILES.items():
        (folder / name).write_text(text)
    return folder


def _exits_cleanly(argv, folder) -> int:
    """Run ``argv`` and check the contract: one of the README's exit codes
    (argparse's usage errors included), no traceback on stderr and no NaN
    or Infinity on stdout.  Returns the exit code."""
    argv = [str(folder / tok) if tok in FILE_TEXT else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in range(6), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert not re.search(r"NaN|Infinity", out.getvalue()), (argv, out.getvalue())
    return code


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_no_subcommand_escapes_with_a_traceback(command, cli_files):
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(argv=SUBCOMMAND_ARGV[command])
    def check(argv):
        _exits_cleanly([command, *argv], cli_files)

    check()


_VERIFY = ["verify", "--reps", "100", "--seed", "7", "--kind"]

#: A command that exits 0 or 1, and the flags to sweep through their values.
CLI_SWEEPS = [
    (["eval", "--fn", "pdf", "--x", "1.0"], {"--x": REAL_TEXT, "--theta": REAL_TEXT,
                                             "--beta": REAL_TEXT}),
    (["eval", "--fn", "cdf", "--x", "1.0"], {"--x": REAL_TEXT}),
    (["eval", "--fn", "quantile", "--u", "0.5"], {"--u": REAL_TEXT, "--theta": REAL_TEXT}),
    (["eval", "--fn", "moment", "--n", "2"], {"--n": COUNT_TEXT, "--theta": REAL_TEXT}),
    (["sample", "-n", "3", "--seed", "1"], {"-n": SMALL_TEXT, "--seed": COUNT_TEXT,
                                            "--stream": COUNT_TEXT, "--theta": REAL_TEXT,
                                            "--beta": REAL_TEXT}),
    (["fit", "-i", "header.csv"], {"-i": FILE_TEXT}),
    (["hill", "-i", "small.csv"], {"-i": FILE_TEXT, "--k": COUNT_TEXT, "--level": REAL_TEXT,
                                   "--k-grid": ["1:3", "3:1", "0:3", "1:2:0", "a:b", "1:99",
                                                "1:99999999999999999999"]}),
    (["dhill", "-i", "small.csv", "--k", "3"], {"-i": FILE_TEXT, "--k": COUNT_TEXT,
                                                "--f": SPEC_TEXT, "--s": REAL_TEXT}),
    (["records", "-i", "small.csv"], {"-i": FILE_TEXT}),
    (["records", "--simulate", "--n", "3", "--seed", "1"], {"--n": COUNT_TEXT,
                                                            "--theta": REAL_TEXT,
                                                            "--beta": REAL_TEXT}),
    (_VERIFY + ["record_clt", "--n", "50"], {"--n": SMALL_TEXT, "--reps": SMALL_TEXT,
                                             "--ks": REAL_TEXT, "--mean-window": REAL_TEXT,
                                             "--var-window": REAL_TEXT, "--stream": COUNT_TEXT,
                                             "--theta": REAL_TEXT}),
    (_VERIFY + ["dh_clt", "--n", "100000", "--k", "20", "--s", "2"],
     {"--k": SMALL_TEXT, "--f": SPEC_TEXT, "--s": REAL_TEXT}),
    (_VERIFY + ["max_gumbel", "--n", "1000"], {"--ks": REAL_TEXT}),
    (["verify", "--kind", "quantile_error_order"], {"--theta": REAL_TEXT + ["1e-160"],
                                                    "--beta": REAL_TEXT}),
    # at theta = 1e-200 the draws are finite but their variance is not
    (["verify", "--kind", "sampler_gof", "--n", "50", "--seed", "7"],
     {"--theta": REAL_TEXT + ["1e-200"]}),
]


@pytest.mark.parametrize("base, sweep", CLI_SWEEPS, ids=["_".join(b) for b, _ in CLI_SWEEPS])
def test_every_flag_value_exits_cleanly(base, sweep, cli_files):
    # each flag through each of its values, the rest of the command held valid;
    # a long flag takes its value as --flag=value, so -inf is not read as a flag
    assert _exits_cleanly(base, cli_files) in (0, 1)
    for flag, values in sweep.items():
        for value in values:
            argv = list(base)
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
            argv += [f"{flag}={value}"] if flag.startswith("--") else [flag, value]
            _exits_cleanly(argv, cli_files)


def test_dhill_estimate_overflow_is_usage_error(tmp_path, capsys):
    # t_n = 1.44e308 and a_n = 0.005 are finite, but t_n / a_n is not
    p = tmp_path / "far.csv"
    p.write_text("0.0\n" + "1.2e154\n" * 20)
    w = tmp_path / "w.csv"
    w.write_text("1e-300\n" * 19 + "1\n")
    code, out, err = run(capsys, "dhill", "-i", str(p), "--k", "20",
                         "--f", f"table:{w}", "--s", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "t_n / a_n" in err


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_records_extract(tmp_path, capsys):
    p = tmp_path / "stream.csv"
    p.write_text("1.0\n0.5\n2.0\n1.5\n3.0\n")
    code, out, _ = run(capsys, "records", "-i", str(p))
    assert code == 0
    assert out.splitlines() == ["index,value", "1,1.0", "3,2.0", "5,3.0"]


def test_records_simulate_json(capsys):
    code, out, _ = run(capsys, "records", "--simulate", "--n", "3", "--seed", "5")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"n", "value", "standardized"}
    assert d["value"] > 0.0


def test_records_simulate_deterministic(capsys):
    _, out1, _ = run(capsys, "records", "--simulate", "--n", "4", "--seed", "8")
    _, out2, _ = run(capsys, "records", "--simulate", "--n", "4", "--seed", "8")
    assert out1 == out2


def test_records_simulate_needs_positive_n(capsys):
    code, _, _ = run(capsys, "records", "--simulate", "--n", "0", "--seed", "5")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_kind_passes(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "sampler_gof", "--n", "2000",
                       "--seed", "7", "--stable-json")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True and d["runtime_ms"] == 0


def test_verify_refuses_a_report_field_past_the_double_range(capsys):
    # the draws near 1e160 are finite, their variance is not: no "Infinity" is printed
    code, out, err = run(capsys, "verify", "--kind", "sampler_gof", "--n", "50",
                         "--theta", "1e-160", "--seed", "7")
    assert code == 2 and out == ""
    assert err.startswith("error: empirical_var = inf ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("kind, theta", [
    (["dh_clt", "--n", "20000", "--k", "20", "--s", "2"], "1e-160"),
    (["max_gumbel", "--n", "20000"], "5e-324"),
], ids=["dh_clt", "max_gumbel"])
def test_verify_replicated_kind_prints_the_theta_1_report(capsys, kind, theta):
    # a replicated kind runs in theta*x, so its report does not read theta;
    # in data units these thetas take t_n (dh_clt) or the quantile past the range
    argv = ["verify", "--kind", *kind, "--reps", "500", "--seed", "3", "--stable-json"]
    at_one = run(capsys, *argv, "--theta", "1")
    assert at_one[0] in (0, 1) and at_one[1] and at_one[2] == ""
    assert run(capsys, *argv, "--theta", theta) == at_one


def test_verify_stable_json_byte_identical(capsys):
    argv = ["verify", "--kind", "hill_clt", "--n", "4000", "--k", "5",
            "--reps", "100", "--seed", "3", "--stable-json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_verify_workers_match_serial(capsys, monkeypatch):
    # --workers is ignored, kept so that scripts passing it still exit 0;
    # neither the flag nor its PLEVT_WORKERS variable changes a byte
    base = ["verify", "--kind", "hill_clt", "--n", "4000", "--k", "5",
            "--reps", "100", "--seed", "7", "--stable-json"]
    serial = run(capsys, *base)
    assert serial[0] == 0
    assert run(capsys, *base, "--workers", "4") == serial
    monkeypatch.setenv("PLEVT_WORKERS", "4")
    assert run(capsys, *base) == serial


def test_verify_failed_threshold_exits_one(capsys):
    # sampler_gof refuses --ks (its band is the distribution-free critical
    # value), so use a replicated kind to exercise the failure exit path
    code, out, _ = run(capsys, "verify", "--kind", "max_gumbel", "--n", "2000",
                       "--reps", "100", "--seed", "7", "--ks", "1e-6", "--no-rerun")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_refused_config_exits_five(capsys):
    code, _, err = run(capsys, "verify", "--kind", "dh_clt", "--n", "5000",
                       "--k", "10", "--reps", "100", "--seed", "7")
    assert code == 5
    assert "refused:" in err
    diag = json.loads(err.splitlines()[-1])
    assert diag["bn"] == pytest.approx(1.0 / math.sqrt(10), rel=1e-12)


def test_verify_refuses_slow_normalization_exits_five(capsys):
    # ratio1 = 1/log 100 = 0.217 > 0.2 refuses; b_n = 1/sqrt(20) = 0.224 passes
    code, out, err = run(capsys, "verify", "--kind", "dh_clt", "--n", "100", "--k", "20",
                         "--s", "1", "--reps", "100", "--seed", "7")
    assert code == 5 and out == ""
    assert err.startswith("refused: weight normalization decays too slowly")
    diag = json.loads(err.splitlines()[-1])
    assert diag["ratio1"] == pytest.approx(1.0 / math.log(100), rel=1e-12)
    assert diag["bn"] == pytest.approx(1.0 / math.sqrt(20), rel=1e-12)


def test_verify_dh_clt_overflow_is_usage_error(capsys):
    # normalizers past the double range are an input error (exit 2), not a
    # failed verification (exit 1)
    for extra in (["--f", "pow:160"], ["--s", "86"], ["--s", "171"]):
        code, out, err = run(capsys, "verify", "--kind", "dh_clt", "--k", "20",
                             "--reps", "100", "--seed", "7", *extra)
        assert code == 2 and out == "", extra
        assert err.startswith("error:") and "Traceback" not in err, extra


@pytest.mark.parametrize("argv", [
    ["sample", "-n", str(10**15)],
    ["verify", "--kind", "max_gumbel", "--reps", str(10**15)],
    ["verify", "--kind", "hill_clt", "--reps", str(10**15)],
    ["verify", "--kind", "dh_clt", "--k", "20", "--s", "2", "--reps", str(10**15)],
    ["verify", "--kind", "record_clt", "--reps", str(10**15)],
], ids=["sample", "max_gumbel", "hill_clt", "dh_clt", "record_clt"])
def test_unallocatable_size_is_usage_error(capsys, tmp_path, argv):
    # 10**15 doubles, 8 PB, pass the 128 TiB user address space, so the
    # allocation fails under any overcommit setting; a replicated kind fails
    # before its first block, where its one output for every replication is
    # allocated
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--seed", "7", "-o", str(out))
    assert code == 2 and not out.exists()
    assert err.startswith("error: not enough memory: ") and err.count("\n") == 1


def test_verify_refuses_streams_past_2_64_before_running(capsys, monkeypatch):
    # the refusal names the --stream as given, not the first stream id past
    # 2**64, and --all refuses before its first experiment runs
    runs = []
    for module in (plevt.cli, plevt.harness):
        monkeypatch.setattr(module, "run_experiment", lambda e: runs.append(e))
    for argv in (["--kind", "max_gumbel", "--reps", "100", "--stream", str(2**64 - 16)],
                 ["--kind", "sampler_gof", "--stream", str(2**64 - 1)],
                 ["--all", "--stream", str(2**64 - 1)],
                 ["--all", "--stream", str(2**64 - 100)]):
        code, out, err = run(capsys, "verify", "--seed", "7", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and f"streams {argv[-1]} to" in err, argv
    assert runs == []


def test_unreadable_weight_table_is_input_error(tmp_path, canon_csv, capsys):
    # a table: weight file that cannot be opened is an input failure (exit 4),
    # as for a missing -i file, not an output failure (exit 3); the line names
    # the file and the reason, not a line that is not a number
    missing, binary = tmp_path / "missing.csv", tmp_path / "binary.csv"
    binary.write_bytes(b"1.5\n\xd0\x00\n")
    spec = f"table:{missing}"
    for argv, path in ((["dhill", "-i", canon_csv, "--k", "3", "--f", spec], missing),
                       (["verify", "--kind", "dh_clt", "--reps", "100", "--seed", "7",
                         "--f", spec], missing),
                       (["dhill", "-i", canon_csv, "--k", "3", "--f", f"table:{binary}"], binary),
                       (["hill", "-i", str(missing)], missing),
                       (["hill", "-i", str(binary)], binary),
                       (["fit", "-i", str(tmp_path)], tmp_path)):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == "", argv[0]
        assert err.startswith(f"error: {path}: unreadable input: "), err
        assert "not a number" not in err and err.count("\n") == 1, err


def test_weights_evaluated_once_per_attempt_and_command(canon_csv, capsys, monkeypatch):
    # the spacing plan evaluates f(1..k) once; the statistic and the
    # condition check both read it
    calls = []
    weights = plevt.WeightFunction.weights

    def counted(self, k):
        calls.append(k)
        return weights(self, k)

    monkeypatch.setattr(plevt.WeightFunction, "weights", counted)
    for extra in (dict(kind="hill_clt", n=4000, k=5),
                  dict(kind="dh_clt", n=5000, k=20, s=2.0)):
        calls.clear()
        plevt.run_experiment(plevt.Experiment(reps=100, seed=SeedSpec(4),
                                              rerun_on_fail=False, **extra))
        assert calls == [extra["k"]], extra["kind"]
    calls.clear()
    code, _, _ = run(capsys, "dhill", "-i", canon_csv, "--k", "3", "--f", "pow:0.5", "--s", "2")
    assert code == 0 and calls == [3]


def test_verify_all_writes_the_suite_json_and_csv(tmp_path, capsys):
    out, csv = tmp_path / "suite.json", tmp_path / "suite.csv"
    code, stdout, _ = run(capsys, "verify", "--all", "--seed", "7", "--stable-json",
                          "-o", str(out), "--csv", str(csv))
    results = plevt.run_suite(plevt.standard_suite(Params(1.0, 2.0), SeedSpec(7)))
    assert stdout == ""
    assert out.read_text() == plevt.harness.suite_to_json(results, stable=True) + "\n"
    summary = io.StringIO()
    plevt.harness.write_csv_summary(results, summary)
    assert csv.read_text() == summary.getvalue()
    assert code == (0 if all(r.passed for _, r in results) else 1)


def test_verify_all_and_kind_are_exclusive(capsys):
    code, _, _ = run(capsys, "verify", "--all", "--kind", "sampler_gof")
    assert code == 2
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_verify_threshold_overrides_require_single_kind(capsys, monkeypatch):
    code, _, _ = run(capsys, "verify", "--all", "--ks", "0.5")
    assert code == 2
    # every per-experiment flag is refused with --all, not silently ignored
    for flag in (["--reps", "100"], ["--n", "5000"], ["--k", "9"], ["--s", "2"],
                 ["--f", "log1p"], ["--no-rerun"], ["--mean-window", "1"],
                 ["--var-window", "1"]):
        code, out, err = run(capsys, "verify", "--all", "--seed", "7", *flag)
        assert code == 2 and out == "", flag
        assert flag[0] in err
    monkeypatch.setenv("PLEVT_REPS", "100")  # an environment flag counts too
    code, _, err = run(capsys, "verify", "--all", "--seed", "7")
    assert code == 2 and "--reps" in err


@pytest.mark.parametrize("kind, flag", [("sampler_gof", "--ks"),
                                        ("quantile_error_order", "--mean-window")])
def test_single_shot_kind_refuses_tolerance_flags(capsys, monkeypatch, kind, flag):
    # these kinds check fixed bounds: a tolerance they would not read is refused
    code, out, err = run(capsys, "verify", "--kind", kind, "--seed", "7", flag, "1e-9")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    monkeypatch.setenv("PLEVT_" + flag[2:].replace("-", "_").upper(), "1e-9")
    assert run(capsys, "verify", "--kind", kind, "--seed", "7")[0] == 2


def test_verify_unknown_kind(capsys):
    code, _, _ = run(capsys, "verify", "--kind", "bogus")
    assert code == 2


def test_verify_csv_summary(tmp_path, capsys):
    p = tmp_path / "summary.csv"
    code, _, _ = run(capsys, "verify", "--kind", "sampler_gof", "--n", "2000",
                     "--seed", "7", "--csv", str(p))
    assert code == 0
    lines = p.read_text().splitlines()
    assert lines[0].startswith("kind,n,k,reps,")
    assert lines[1].split(",")[0] == "sampler_gof"


def test_verify_csv_to_stdout_beside_the_report_is_refused(tmp_path, capsys, monkeypatch):
    # "-" is stdout for --csv as for -o, so two outputs would share one sink
    monkeypatch.chdir(tmp_path)
    for argv in (["--csv", "-"], ["--csv", "-", "-o", "-"]):
        code, out, err = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                             *argv)
        assert (code, out) == (2, "")
        assert err == "error: two outputs would go to stdout; give each its own path\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_csv_to_stdout_and_report_to_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                       "--stable-json", "-o", str(report), "--csv", "-")
    code_alone, alone, _ = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                               "--stable-json")
    assert code == code_alone == 0
    assert report.read_text(encoding="utf-8") == alone
    assert out.splitlines()[0].startswith("kind,n,k,reps,")
    assert out.splitlines()[1].split(",")[0] == "quantile_error_order"
    assert list(tmp_path.iterdir()) == [report]


def test_verify_report_and_csv_on_one_path_are_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for csv in ("x", "./x", str(tmp_path / "x")):  # one file, spelled three ways
        code, out, err = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                             "-o", "x", "--csv", csv)
        assert (code, out) == (2, "")
        assert err == "error: two outputs would go to " + repr(csv) + "; give each its own path\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_unwritable_csv_writes_no_report(tmp_path, capsys):
    # every output is opened before any is written, so the report is not printed
    code, out, err = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                         "--csv", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "x.csv" in err
    report = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                       "-o", str(report), "--csv", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (3, "")
    assert not report.exists() or report.read_text() == ""  # nothing written


@pytest.mark.parametrize("old", [None, "an old report\n"], ids=["new", "existing"])
def test_verify_unwritable_csv_leaves_the_report_file_as_it_was(tmp_path, capsys, old):
    # the report opens first: an old file keeps its bytes, and a file the
    # failed command created is removed
    report = tmp_path / "r.json"
    if old is not None:
        report.write_text(old, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                         "-o", str(report), "--csv", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (3, "") and "x.csv" in err
    if old is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert report.read_text(encoding="utf-8") == old
    # once both open, the old report is replaced, not appended to
    code, _, _ = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                     "--stable-json", "-o", str(report), "--csv", str(tmp_path / "x.csv"))
    _, alone, _ = run(capsys, "verify", "--kind", "quantile_error_order", "--seed", "7",
                      "--stable-json")
    assert code == 0 and report.read_text(encoding="utf-8") == alone


SEED_WARNING = "warning: no --seed given (and no PLEVT_SEED); using default master seed 7\n"


@pytest.mark.parametrize("argv, warns", [
    (["verify", "--kind", "quantile_error_order"], False),  # draws nothing
    (["verify", "--kind", "sampler_gof", "--n", "50"], True),
    (["verify", "--all"], True),
    (["sample", "-n", "3"], True),
    (["records", "--simulate", "--n", "3"], True),
], ids=lambda v: "_".join(v) if isinstance(v, list) else str(v))
def test_only_a_run_that_draws_warns_about_its_seed(capsys, monkeypatch, argv, warns):
    monkeypatch.delenv("PLEVT_SEED", raising=False)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1)
    assert err == (SEED_WARNING if warns else "")


def sink_sites(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each place in ``source`` that writes
    output: a call of ``open``, a mention of ``sys.stdout``, or a ``print``
    with no ``file=``, which prints to stdout."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        called = node.func.id if call else None
        if (called == "open"
                or called == "print" and not any(kw.arg == "file" for kw in node.keywords)
                or isinstance(node, ast.Attribute) and node.attr == "stdout"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_sink_sites_are_found():
    source = ("def f(p):\n    with open(p) as fh:\n        print(1, file=fh)\n"
              "def g():\n    print('x')\n    sys.stderr.write('y')\nh(sys.stdout)\n")
    assert sink_sites(source) == [("f", 2), ("g", 5), (None, 7)]


def test_one_function_owns_every_output_sink():
    # stdout and every output file of every subcommand go through one function,
    # which maps "-" to stdout and refuses two outputs on one sink
    source = Path(plevt.cli.__file__).read_text(encoding="utf-8")
    assert {function for function, _ in sink_sites(source)} == {"_write_outputs"}


# ---------------------------------------------------------------------------
# environment overrides
# ---------------------------------------------------------------------------

def test_env_seed_override(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("PLEVT_SEED", "42")
    code, _, err = run(capsys, "sample", "-n", "50", "-o", str(a))
    assert code == 0
    assert err == ""  # env seed silences the unseeded warning
    monkeypatch.delenv("PLEVT_SEED")
    assert main(["sample", "-n", "50", "--seed", "42", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_explicit_flag_beats_env(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("PLEVT_SEED", "1")
    assert main(["sample", "-n", "50", "--seed", "2", "-o", str(a)]) == 0
    monkeypatch.delenv("PLEVT_SEED")
    assert main(["sample", "-n", "50", "--seed", "2", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_env_numeric_override(capsys, monkeypatch):
    monkeypatch.setenv("PLEVT_N", "4")
    code, out, _ = run(capsys, "sample", "--seed", "1")
    assert code == 0
    assert len(out.split()) == 4


def test_env_store_true_and_list_flags(capsys, monkeypatch):
    # PLEVT_SORTED=1 acts as --sorted, PLEVT_X=0.5,1.0 as --x 0.5 1.0
    plain = run(capsys, "sample", "-n", "20", "--seed", "3")
    flagged = run(capsys, "sample", "-n", "20", "--seed", "3", "--sorted")
    assert flagged[0] == 0 and flagged != plain
    for on, off in [("1", "0"), (" On ", "OFF"), ("yes", "no"), ("TRUE", "false"), ("on", "")]:
        monkeypatch.setenv("PLEVT_SORTED", on)
        assert run(capsys, "sample", "-n", "20", "--seed", "3") == flagged
        monkeypatch.setenv("PLEVT_SORTED", off)  # an empty value leaves the flag off
        assert run(capsys, "sample", "-n", "20", "--seed", "3") == plain
    listed = run(capsys, "eval", "--fn", "pdf", "--x", "0.5", "1.0")
    assert listed[0] == 0 and len(listed[1].splitlines()) == 2
    monkeypatch.setenv("PLEVT_X", "0.5,1.0")
    assert run(capsys, "eval", "--fn", "pdf") == listed


@pytest.mark.parametrize("name, value", [
    ("PLEVT_N", "many"),
    ("PLEVT_SORTED", "ture"),  # an on/off flag takes 1/true/yes/on or 0/false/no/off only
    ("PLEVT_SORTED", "2"),
])
def test_env_bad_value_is_usage_error(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--seed", "1"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"plevt {plevt.__version__}\n"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == plevt.__version__


# ---------------------------------------------------------------------------
# dependencies: numpy only; scipy is the tests' reference
# ---------------------------------------------------------------------------

_NO_SCIPY_PROBE = """
import json, sys


class NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import plevt.cli

out, commands = sys.argv[1], json.loads(sys.argv[2])
codes = [plevt.cli.main(argv + ["-o", out]) for argv in commands]
print(json.dumps([codes, "scipy" in sys.modules]))
"""


def test_runs_without_scipy(canon_csv, tmp_path):
    src = os.path.dirname(os.path.dirname(plevt.__file__))
    commands = [
        ["eval", "--fn", "pdf", "--x", "1"],
        ["fit", "-i", canon_csv],
        ["hill", "-i", canon_csv, "--k", "2"],
        ["dhill", "-i", canon_csv, "--k", "2"],
        ["records", "--simulate", "--n", "10", "--seed", "7"],
        ["verify", "--kind", "record_clt", "--n", "50", "--reps", "100",
         "--no-rerun", "--seed", "7"],
        ["verify", "--kind", "hill_clt", "--n", "2000", "--reps", "100",
         "--no-rerun", "--seed", "7"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(tmp_path / "out.txt"),
         json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    codes, scipy_loaded = json.loads(proc.stdout)
    assert codes[:5] == [0] * 5 and set(codes[5:]) <= {0, 1}
    assert not scipy_loaded


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]


@pytest.fixture
def expo_csv(tmp_path):
    """The exponential quantiles ``log(n / (i + 1/2))`` of HILL_PINNED, n = 200."""
    p = tmp_path / "expo.csv"
    p.write_text("".join(f"{math.log(200 / (i + 0.5))!r}\n" for i in range(200)))
    return str(p)


HILL_PINNED = """\
k,hill,ci_low,ci_high
5,1.0276582872996218,0.12689263447117893,1.9284239401280647
10,1.0145492295155711,0.3857366570333999,1.6433618019977425
15,1.0098700540458065,0.4988146845633846,1.5209254235282286
20,1.0074680845640578,0.5659338420481028,1.4490023270800128
25,1.0060063441325708,0.6116591035888417,1.4003535846763
30,1.0050231422385423,0.6453868381598593,1.3646594463172252
35,1.0043165443986932,0.6715921173680891,1.3370409714292975
40,1.0037842209589765,0.6927139841309375,1.3148544577870154
45,1.0033687763860817,0.7102103267150337,1.2965272260571297
50,1.0030355253253955,0.7250133712239848,1.2810576794268063
"""


def test_hill_k_grid_output_is_pinned(expo_csv, capsys):
    # exponential quantiles log(n / (i + 1/2)); every byte is pinned, and
    # every bound lies within 4 ulp of h -/+ ndtri(0.975) h / sqrt(k), in
    # ulp of h, since the low bound cancels
    code, out, _ = run(capsys, "hill", "-i", expo_csv, "--k-grid", "5:50:5")
    assert code == 0 and out == HILL_PINNED
    z = float(ndtri(0.975))
    for row in out.splitlines()[1:]:
        k, h, low, high = (float(v) for v in row.split(","))
        half = z * h / math.sqrt(k)
        assert abs(low - (h - half)) <= 4 * math.ulp(h)
        assert abs(high - (h + half)) <= 4 * math.ulp(h)


DHILL_PINNED = {
    ("identity", "1", None): (
        '{"a_n": 5.0, "b_n": 0.4472135954999581, '
        '"conditions": {"bn": 0.4472135954999581, "growth": 2.2360679774997907, '
        '"k1": 0.6310874365498043, "ratio1": 0.18873916581775485}, '
        '"dh_estimate": 1.0276582872996218, "hill": 1.0276582872996218, "k": 5, '
        '"n": 200, "s": 1.0, "s_n": 2.236067977499789, "t_n": 5.138291436498109, '
        '"weight": "identity"}\n'
    ),
    ("pow:0.5", "2", "20"): (
        '{"a_n": 4.341364142887198, "b_n": 0.20405037378575935, '
        '"conditions": {"bn": 0.20405037378575935, "growth": 0.8858569760962255, '
        '"k1": 1.7849848236240067, "ratio1": 0.0730490029453039}, '
        '"dh_estimate": 0.7434521731263013, "hill": 1.0074680845640578, "k": 20, '
        '"n": 200, "s": 2.0, "s_n": 4.900750640378341, "t_n": 2.3995637109749706, '
        '"weight": "pow:0.5"}\n'
    ),
    ("log1p", "3", "9"): (
        '{"a_n": 5.662925145805988, "b_n": 0.03737169365897888, '
        '"conditions": {"bn": 0.03737169365897888, "growth": 0.30532202928651614, '
        '"k1": 0.9807174737235556, "ratio1": 0.01295341117857665}, '
        '"dh_estimate": 0.5930218165948319, "hill": 1.0160730788428767, "k": 9, '
        '"n": 200, "s": 3.0, "s_n": 18.547384736827695, "t_n": 1.1810079840128531, '
        '"weight": "log1p"}\n'
    ),
}


@pytest.mark.parametrize("f, s, k", sorted(DHILL_PINNED, key=str), ids=str)
def test_dhill_output_is_pinned(expo_csv, capsys, f, s, k):
    """Every byte of the dhill JSON on HILL_PINNED's file, recorded on
    numpy 2.4, x86-64 with AVX-512; the last bits depend on the platform's
    vector math, so another platform may need the figures re-recorded."""
    flags = ["--f", f, "--s", s] + ([] if k is None else ["--k", k])
    code, out, err = run(capsys, "dhill", "-i", expo_csv, *flags)
    assert (code, out, err) == (0, DHILL_PINNED[f, s, k], "")


def test_verify_all_output_is_pinned(capsys):
    """SHA-256 of ``verify --all --seed 7 --stable-json``, which misses on
    correct code (exit 1); recorded on numpy 2.4, x86-64 with AVX-512, with
    the same platform caveat as ``test_report_bits_pinned``."""
    code, out, _ = run(capsys, "verify", "--all", "--seed", "7", "--stable-json")
    assert code == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "006e37ad30bb67d6830436ac6929cda57fc236856a612cedb73f5b04e1e4e7dc"


def test_sample_output_is_pinned(capsys):
    """SHA-256 of ``sample -n 100000 --seed 7``: the mixture draw's bits,
    in the CSV as written; recorded on numpy 2.4, x86-64 with AVX-512, with
    the same platform caveat as ``test_verify_all_output_is_pinned``."""
    code, out, err = run(capsys, "sample", "-n", "100000", "--seed", "7")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "621b31afd15296886ccc793c1044e5347c43120da1b9039bf452577a299526a9"
