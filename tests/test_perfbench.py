"""Smoke test of the benchmark's traced runs: each workload's shortest
traced run exits cleanly and ends with its result line, correct, with every
metric finite and none absent (a renamed or retyped public name that the
tracer wraps shows up as an absent metric)."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["oracle_grid", "phase_space_figs", "tomography_loop"])
def test_traced_run_ends_with_its_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert info["absent_metrics"] == []
    values = [metric["value"] for metric in result["metrics"].values()]
    assert values
    assert all(math.isfinite(v) for v in values)
