"""Tiny-size smoke run of the benchmark.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that a corrupted reference digest turns into failed ops.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, digests: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", "0",
        "--seconds", "1",
        "--trace", str(trace),
        "--tiny",
    ]
    if digests is not None:
        cmd += ["--digests", str(digests)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in specs} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_printed_with_units(workload):
    result = run_tiny(workload, trace=0)
    assert_metrics(result, BENCH["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["sweep-eigen", "graph-queries"])
def test_per_layer_metrics_printed_with_units(workload):
    result = run_tiny(workload, trace=1)
    assert_metrics(result, BENCH["per_layer"])
    assert result["correct"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", ["tree-queries", "sweep-eigen"])
def test_corrupted_digest_counts_as_failure(workload, tmp_path):
    digests = json.loads((HERE / "digests.json").read_text())
    key = workload + ":tiny"
    if isinstance(digests[key], list):
        digests[key][0] = "0" * 16
    else:
        digests[key]["gallai"] = "0" * 16
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests))
    result = run_tiny(workload, trace=0, digests=corrupted)
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
