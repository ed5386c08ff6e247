"""Smoke tests of the benchmark at tiny n.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
Each workload runs once per trace mode on the ``smoke`` profile; the test
checks that every metric BENCHMARK.json names is reported with its unit and
that every iteration passed the reference check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402 - needs the two paths above

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args, timeout=170):
    argv = [sys.executable, "bench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    done = run_bench(ROOT, "--profile", "smoke", "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_call_counts_repeat():
    counts = []
    for _ in range(2):
        done = run_bench(ROOT, "--profile", "smoke", "--workload", "fitted_cli", "--seed", "1",
                         "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["estimators.cox_survival_curve.calls"] > 0


def test_tracer_restores_what_it_wraps():
    from survmae import core, harness  # noqa: PLC0415
    from tracer import Tracer  # noqa: PLC0415

    def lookups():
        return (harness.run_experiment, harness.km_fit, core.StepCurve.__dict__["value"],
                core.SurvivalDataset.__dict__["from_arrays"])

    before = lookups()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(lookups(), before))
        core.StepCurve(knots=[1.0, 2.0], values=[0.5, 0.2]).value(1.5)
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(lookups(), before))
    snap = tracer.take()
    assert snap["calls"] == {"core.StepCurve.__post_init__": 1, "core.StepCurve.value": 1}
    assert set(snap["busy"]) == {"core.StepCurve.__post_init__", "core.StepCurve.value",
                                 "core.StepCurve"}


def test_reference_check_catches_a_changed_score():
    reference = json.loads((BENCH / "reference" / "smoke-eval_file.json").read_text())
    expected = reference["outputs"][0]
    changed = dict(expected, mae_po=expected["mae_po"] * (1 + 1e-9))
    assert workloads.mismatch(expected, expected) is None
    assert "mae_po" in workloads.mismatch(expected, changed)
    missing = dict(expected, c_index=None)
    assert "c_index" in workloads.mismatch(expected, missing)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                     "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout



@pytest.mark.parametrize("workload", WORKLOADS)
def test_baseline_matches_the_reference(workload, tmp_path):
    """The frozen baseline the paired timing runs must still give the stored outputs."""
    reference = json.loads((BENCH / "reference" / f"smoke-{workload}.json").read_text())
    wl = workloads.build(workload, "smoke", 0, tmp_path, package="survmae_baseline")
    for inst in wl.instances:
        assert workloads.mismatch(reference["outputs"][inst.index], inst.run()) is None
