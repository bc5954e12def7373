"""Smoke test: every workload at its smallest size, untraced and traced,
with output checks on; the per-op budget; and the refusal to run without
library sources.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout + proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "rs_certify", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_op_past_budget_fails_and_run_continues(monkeypatch):
    import run  # sets the thread variables, which no longer matter here
    from workloads import Op

    def spin():
        while True:
            pass

    monkeypatch.setattr(run, "OP_BUDGET_S", 0.5)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        runner = run.Runner(deadline=time.perf_counter() + 60)
        walls, _ = runner.run_pass([Op("spin", 1, spin, lambda r: None),
                                    Op("next", 1, lambda: 7, lambda r: None if r == 7 else "bad")],
                                   "test")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert runner.attempted == 2 and runner.failed == 1
    assert not runner.check_failed
    assert walls[0] < 5
