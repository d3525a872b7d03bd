"""Self-check of the benchmark, at small size.

    python3 -m pytest perfbench/test_selfcheck.py -q

Every metric that BENCHMARK.json names is printed with its unit, no check
fails, the exact counts of the traced run repeat between two runs, and the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, root: Path = ROOT,
          seconds: int = 1) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def result_of(workload: str, trace: int, spec: list[dict]) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(workload, 0, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bits")]
    first = result_of(workload, 1, SPEC["per_layer"])
    second = result_of(workload, 1, SPEC["per_layer"])
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}


def test_attempted_does_not_depend_on_run_length():
    counts = []
    for seconds in (1, 3):
        proc = bench(WORKLOADS[0], 0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout.splitlines()[-2].removeprefix("summary "))
        result = json.loads(proc.stdout.splitlines()[-1])
        counts.append((len(summary["walls_s"]), result["attempted"], result["failed"]))
    assert counts[0][0] < counts[1][0], counts
    assert counts[0][1:] == counts[1][1:], counts


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
