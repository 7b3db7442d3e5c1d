"""The benchmark's output contract: perfbench/run.py ends its standard output
with one JSON result line, and that result is correct and carries every
end-to-end metric that BENCHMARK.json declares.

A run at --seconds 0 does the fewest iterations the harness allows, so each
workload here takes a few seconds. s1_detect covers the detect path (null
curves, pings, detector); mesh_sim covers the sim path with a mesh obstacle.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["s1_detect", "mesh_sim"])
def test_run_prints_a_correct_result_line(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
