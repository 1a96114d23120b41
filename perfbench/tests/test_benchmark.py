"""Tests of the benchmark itself: tiny runs report every declared metric,
and the correctness gate rejects damaged output.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import workloads
import wienerid as w
from conftest import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [wl["name"] for wl in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "tables", "--seconds", "1", "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def tiny_result():
    config = workloads.build("tables", seed=11, size="tiny").configs["gaussian"]
    return config, w.run_experiment(config)


def test_gate_accepts_intact_report(tiny_result, tmp_path):
    config, result = tiny_result
    assert gate.check_round_trip(result, tmp_path) == []
    assert gate.check_failures_recorded(result) == []
    assert gate.check_means(config, result) == []
    assert gate.check_replay(config, result, 1) == []


def test_gate_rejects_corrupted_raw_file(tiny_result, tmp_path):
    _, result = tiny_result
    raw = w.emit_report(result, "csv", tmp_path)["raw"]
    lines = raw.read_text().splitlines()
    r, method, value = lines[3].split(",")
    lines[3] = f"{r},{method},{np.nextafter(float(value), np.inf):.17g}"  # one ulp off
    raw.write_text("\n".join(lines) + "\n")
    problems = gate.check_raw_file(result, raw)
    assert problems and "differs" in problems[0]


def test_gate_rejects_truncated_raw_file(tiny_result, tmp_path):
    _, result = tiny_result
    raw = w.emit_report(result, "csv", tmp_path)["raw"]
    raw.write_text("\n".join(raw.read_text().splitlines()[:-1]) + "\n")
    assert gate.check_raw_file(result, raw)


def test_gate_rejects_unrecorded_nonfinite_estimate(tiny_result):
    _, result = tiny_result
    estimates = {m: v.copy() for m, v in result.estimates.items()}
    estimates["II0"][0] = np.nan
    damaged = w.ExperimentResult(result.config, estimates, result.predicted_stds,
                                 result.failures, result.wall_times, result.seed_ledger)
    assert gate.check_failures_recorded(damaged)
    assert gate.check_repeat(result, damaged)


def test_gate_rejects_biased_mean(tiny_result):
    config, result = tiny_result
    shifted = {m: v + 1.0 for m, v in result.estimates.items()}
    damaged = w.ExperimentResult(result.config, shifted, result.predicted_stds,
                                 result.failures, result.wall_times, result.seed_ledger)
    assert len(gate.check_means(config, damaged)) == len(result.estimates)
