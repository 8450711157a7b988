"""Smoke test of the benchmark at tiny size.

Runs run.py in child processes on a handful of ops per workload.  Asserts
the result format, correct outputs, and that the per-layer counts repeat
exactly for a fixed seed.  No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"], proc.stdout
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    doc = result(bench(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    runs = [result(bench(workload, trace=1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for doc in runs:
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    counts = [{k: v["value"] for k, v in doc["metrics"].items() if v["unit"] == "count"}
              for doc in runs]
    assert counts[0] == counts[1]
    assert counts[0]["cli.ops_per_round"] > 0


def test_fails_without_sources(tmp_path):
    """In a directory with only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
