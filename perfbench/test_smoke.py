"""Smoke test of the benchmark itself: tiny inputs and one timed epoch
for every workload, untraced and traced.

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit_and_checks_pass(workload, trace):
    proc = run(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert math.isfinite(result["metrics"][m["name"]]["value"])
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} (" in line
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)
    assert lines[0].startswith("manifest ")


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
