"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import plevt.harness  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SIZES, Battery, Checks, CliPipeline, TailNumerics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = SIZES["smoke"]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                       "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    res = _result(_run("--workload", "battery", "--seed", "5", "--seconds", "0.1",
                       "--trace", "1", "--smoke"))
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_altered_csv_value_is_counted(tmp_path):
    checks = Checks()
    cli = CliPipeline(3, SMOKE, checks, tmp_path)
    cli.run_pass()
    assert checks.failed == 0
    lines = cli.draw.read_text().splitlines()
    lines[17] = repr(float(lines[17]) * (1.0 + 2.0**-40))
    cli.draw.write_text("\n".join(lines) + "\n")
    before = checks.attempted
    cli.check_outputs()
    assert checks.attempted > before
    assert checks.failures == ["cli.sample.bit_equal"]


def test_stable_json_mismatch_is_counted():
    checks = Checks()
    battery = Battery(3, SMOKE, checks)
    battery.run(1)
    battery.reference[0] = battery.reference[0].replace('"reps": 1', '"reps": 2')
    battery.run(2)
    assert checks.failures == ["battery.stable_json_identical"]


def test_perturbed_quantile_is_counted():
    checks = Checks()
    tail = TailNumerics(3, SMOKE, checks)
    tail.run_pass()
    assert checks.failed == 0
    real = plevt.quantile_values
    try:
        plevt.quantile_values = lambda u, p: real(u, p) * (1.0 + 1e-9)
        tail.run_pass()
    finally:
        plevt.quantile_values = real
    assert "tail.quantile_vec.round_trip" in checks.failures


def test_tracer_self_time_and_restore():
    original = plevt.harness.run_experiment
    wrapped = (("plevt.harness", ("run_experiment", "no_such_function")),)
    with Tracer(wrapped) as tr:
        assert plevt.harness.run_experiment is not original
        with tr.span("outer", "bench"):
            with tr.span("inner", "sampling"):
                sum(range(10000))
    assert plevt.harness.run_experiment is original
    assert tr.absent == ["plevt.harness.no_such_function"]
    outer, inner = tr.spans
    own = tr.layer_self_seconds()
    assert own["sampling"] == pytest.approx(inner.seconds)
    assert own["bench"] == pytest.approx(outer.seconds - inner.seconds)
    assert tr.durations("inner") == [inner.seconds]


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(SPEC["workloads"]) <= 8
