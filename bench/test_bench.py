"""Tests of the benchmark itself, in smoke mode.

    python3 -m pytest -q bench/test_bench.py

Each case runs bench/run.py in a subprocess and reads the JSON result on
its last output line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def run(workload, trace=0, *extra, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    code, result = run(workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_is_reported(workload):
    code, result = run(workload, 0, "--corrupt")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["sweep_tree", "design"])
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        code, result = run(workload, 1)
        assert code == 0
        counts.append({m: result["metrics"][m]["value"] for m in COUNT_METRICS})
    assert counts[0] == counts[1]


def test_bypass_counts():
    by_workload = {w: run(w, 1)[1]["metrics"] for w in WORKLOADS}
    assert by_workload["sweep_single"]["multistage.tree_run.calls"]["value"] == 0
    for w in ("sweep_single", "sweep_tree", "decode"):
        assert by_workload[w]["grouping.propose.calls"]["value"] == 0
    assert by_workload["sweep_tree"]["multistage.tree_run.calls"]["value"] > 0
    assert by_workload["design"]["grouping.propose.calls"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run("decode", 0, cwd=tmp_path)
    assert code != 0 and result is None
