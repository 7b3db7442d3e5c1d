"""The benchmark's output contract: perfbench/run.py ends its standard output
with one JSON result line, and that result is correct and carries every
metric that BENCHMARK.json declares for the run: the end-to-end metrics at
--trace 0, the per-layer metrics at --trace 1.

A run at --seconds 0 does the fewest iterations the harness allows, so each
case here takes a few seconds. s1_detect covers the detect path (null
curves, pings, detector); s2_detect does too, over steered beams and the
step bottom; mesh_sim covers the sim path with a mesh obstacle; big_ping
traces 10^6 rays in one ping, streamed in fixed-size chunks, and requires
that no bin is flagged.
A traced run times every layer, so a layer that a ping stops reaching
leaves a metric missing or not finite; it runs on every workload that CI
runs traced: both detect workloads and mesh_sim.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload, trace", [
    pytest.param("s1_detect", 0, id="s1_detect"),
    pytest.param("s2_detect", 0, id="s2_detect"),
    pytest.param("mesh_sim", 0, id="mesh_sim"),
    pytest.param("big_ping", 0, id="big_ping"),
    pytest.param("s1_detect", 1, id="s1_detect-trace"),
    pytest.param("s2_detect", 1, id="s2_detect-trace"),
    pytest.param("mesh_sim", 1, id="mesh_sim-trace"),
])
def test_run_prints_a_correct_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
