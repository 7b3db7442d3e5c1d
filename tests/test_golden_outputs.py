"""Byte identity of the command outputs against committed golden files.

Each case reruns one command of the bundled scenarios into a temporary
directory and compares every file it writes, by name and exact text, with
the copy under tests/golden/<case>/. This is the behaviour contract of
acceptance criterion 9 (same scenario and seed, same files byte for byte)
kept across changes to the code, not only across reruns of one version.

The null goldens change only when the null model is meant to move its
curves. The sim goldens also depend on the random streams: a change to how
pings draw their random numbers (ROADMAP item 2) must regenerate them,

    PYTHONPATH=src python -m flsim.cli sim --scenario scenario1 \
        --rays 5000 --pings 2 --out tests/golden/sim_scenario1

(and likewise for every case below), and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from flsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "null_scenario1": ["null", "--scenario", "scenario1"],
    "null_scenario2": ["null", "--scenario", "scenario2"],
    "sim_scenario1": ["sim", "--scenario", "scenario1", "--rays", "5000",
                      "--pings", "2"],
    "sim_scenario2": ["sim", "--scenario", "scenario2", "--rays", "2000",
                      "--pings", "1"],
    "detect_scenario2": ["detect", "--scenario", "scenario2", "--rays", "2000",
                         "--pings", "1"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    assert main([*CASES[case], "--out", str(tmp_path)]) == 0
    want = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        got = (tmp_path / name).read_text(encoding="utf-8")
        assert got == (GOLDEN / case / name).read_text(encoding="utf-8"), name
