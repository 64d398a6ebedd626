"""The benchmark's own tests: tiny-size runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q

Each smoke run starts real servers on tiny inputs, so the whole file
takes about a minute on two CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3",
                            "--seconds", "2", "--trace", "0", "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3",
                            "--seconds", "2", "--trace", "1", "--smoke"))
    assert result["correct"] is True
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    assert result["metrics"]["http.server_ms"]["value"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "mixed-distinct", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_self_time_subtracts_child_cover():
    spans = [
        [1, None, "parent", 0.0, 10.0, 1, None],
        [2, 1, "child", 2.0, 5.0, 1, None],
        [3, 1, "child", 4.0, 6.0, 1, None],
    ]
    table = bench.self_times(spans)
    assert table["parent"]["self_ms"] == pytest.approx(6000.0)
    assert table["child"]["calls"] == 2


def test_quantile_interpolates():
    assert bench.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert bench.quantile([], 0.9) == 0.0
