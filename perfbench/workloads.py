"""The benchmark's workloads: seeded scenario documents, the flsim command
each one runs, and the checks on its outputs.

The seed given to the benchmark sets the scenario's run seed, the run
seeds of the iterations (as `flsim --seed` would) and, on mesh_sim, where
the obstacle sits. flsim itself only ever sees the generated scenario
document and that override.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "flsim" / "scenarios"
REFERENCE = Path(__file__).resolve().parent / "reference"

# Null curves must match the stored reference to the null model's own
# quadrature tolerance.
NULL_TOLERANCE_DB = 0.01
# scenario2's bottom rises at 35 m.
STEP_WINDOW_M = (34.0, 37.0)
# check_compare runs on the mean over all pings of a run, and a run goes on
# until that mean holds this many rays per beam (16 pings of 20k rays).
# With 12 pings or fewer, the Monte-Carlo spread on top of the 2.3 dB
# near-range gap of scenario2's steered beams can exceed its 3 dB limit.
COMPARE_RAYS = 16 * 20_000
# mesh_sim's obstacle: an icosphere of 320 faces, 1 m radius, centred 15 m
# ahead at 10 m depth, moved by up to these amounts by the seed.
MESH_SUBDIVISIONS = 2
MESH_RADIUS_M = 1.0
MESH_CENTER_M = (15.0, 0.0, 10.0)
MESH_JITTER_M = (1.0, 0.5, 0.5)


@dataclass(frozen=True)
class Workload:
    """flags says what the detector must report on every ping: "step" (a
    flagged bin on the bottom step), "obstacle" (a flagged bin at the mesh's
    range), "none" (no flagged bin at all) or None (no check)."""

    name: str
    base: str
    command: str
    overrides: dict = field(default_factory=dict)
    mesh: bool = False
    flags: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("s1_detect", "scenario1", "detect"),
        # Eight pings per iteration: a run makes at least two iterations, to
        # pool COMPARE_RAYS.
        Workload("s2_detect", "scenario2", "detect", {"pings": 8}, flags="step"),
        Workload("mesh_sim", "scenario1", "sim", {"pings": 1}, mesh=True,
                 flags="obstacle"),
        Workload("big_ping", "scenario1", "sim", {"pings": 1, "rays": 1_000_000},
                 flags="none"),
    )
}


def import_flsim():
    """Import flsim from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import flsim

    origin = Path(flsim.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"flsim was imported from {origin}, not from {SRC}")
    return flsim


def iteration_seed(seed: int, index: int) -> int:
    """Run seed of a run's index-th iteration: every iteration simulates
    other pings, so that the run's pings can be pooled."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def icosphere(subdivisions: int) -> tuple:
    """Unit icosphere: vertices (n, 3) and faces (20 * 4**subdivisions, 3)."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
        (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
        (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        midpoints = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoints[key] = len(verts) - 1
            return midpoints[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            refined += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = refined
    return np.array(verts), np.array(faces, dtype=int)


def mesh_center(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x6D657368])
    jitter = rng.uniform(-1.0, 1.0, 3) * np.array(MESH_JITTER_M)
    return np.array(MESH_CENTER_M) + jitter


def document(workload: Workload, seed: int, center=None) -> dict:
    """The scenario document a workload hands to flsim for this seed;
    center overrides where mesh_sim's obstacle is placed."""
    doc = yaml.safe_load((BUNDLED / f"{workload.base}.yaml").read_text("utf-8"))
    doc["run"]["seed"] = int(seed)
    if workload.mesh:
        c = mesh_center(seed) if center is None else np.asarray(center, float)
        verts, faces = icosphere(MESH_SUBDIVISIONS)
        doc["scene"]["objects"] = [
            {
                "type": "mesh",
                "vertices": (c + MESH_RADIUS_M * verts).tolist(),
                "faces": faces.tolist(),
            }
        ]
    return doc


def load_reference(base: str) -> dict:
    """Stored null curves (total dB per bin, None for no response) by beam."""
    with open(REFERENCE / f"null_{base}.json", encoding="utf-8") as handle:
        return json.load(handle)["total_db"]


def reference_curves(nulls: dict) -> dict:
    return {
        name: [float(v) if math.isfinite(v) else None for v in null.total_db]
        for name, null in nulls.items()
    }


def expected_files(workload: Workload, beams: int, pings: int) -> int:
    if workload.command == "detect":
        return beams * pings + 2
    return beams * pings + beams + 1


class Checks:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        self.failures.append(what)


def check_null(checks: Checks, nulls: dict, reference: dict) -> None:
    """One operation per beam: its null curve matches the reference."""
    for name, ref in reference.items():
        null = nulls.get(name)
        ok = null is not None and len(null.total_db) == len(ref)
        if ok:
            got = np.asarray(null.total_db, dtype=float)
            want = np.array([-np.inf if v is None else v for v in ref])
            same_mask = np.array_equal(np.isfinite(got), np.isfinite(want))
            live = np.isfinite(want)
            ok = same_mask and bool(
                np.all(np.abs(got[live] - want[live]) <= NULL_TOLERANCE_DB)
            )
        checks.record(ok, f"null curve of beam {name} differs from the reference")


def check_pings(checks: Checks, results: dict, beams, pings: int) -> None:
    """One operation per (beam, ping): it exists with finite, non-negative
    intensities."""
    for beam in beams:
        got = results.get(beam.name, {}).get("pings", [])
        for k in range(pings):
            ok = k < len(got)
            if ok:
                total = got[k].total
                ok = bool(np.all(np.isfinite(total)) and np.all(total >= 0.0))
            checks.record(ok, f"ping {k + 1} of beam {beam.name} is missing or bad")


def check_compare(checks: Checks, runner, scenario, nulls: dict, results: dict) -> None:
    """One operation per beam: the simulated mean (results[beam]["mean_linear"])
    stays within the scenario's comparison window and gap."""
    params = scenario.compare_params
    for beam in scenario.sonar.beams:
        _, _, passed = runner.compare_beam(
            nulls[beam.name],
            results[beam.name]["mean_linear"],
            window_m=params["window_m"],
            max_gap_db=params["max_gap_db"],
            min_expected_db=params["min_expected_db"],
        )
        checks.record(passed, f"beam {beam.name} fails compare_beam")


def check_flags(checks: Checks, detections: dict, centers, window) -> None:
    """One operation per (beam, ping): some bin within window is flagged,
    or, with no window, no bin at all is."""
    for name, per_ping in detections.items():
        for k, det in enumerate(per_ping):
            decisions = np.asarray(det.decisions, dtype=bool)
            if window is None:
                ok, want = not decisions.any(), "flags a bin"
            else:
                inside = (centers >= window[0]) & (centers <= window[1])
                ok = bool(decisions[inside].any())
                want = f"flags nothing at {window[0]:.2f}-{window[1]:.2f} m"
            checks.record(ok, f"ping {k + 1} of beam {name} {want}")


def object_window(center, sonar_depth_m: float, bin_length_m: float) -> tuple:
    """Ranges at which direct hits on the obstacle can land, one bin of
    slack either side: from its nearest point to its centre, which lies
    beyond the circle where rays graze it."""
    d = float(np.linalg.norm(np.asarray(center) - np.array([0.0, 0.0, sonar_depth_m])))
    return d - MESH_RADIUS_M - bin_length_m, d + bin_length_m


def flag_window(workload: Workload, seed: int, scenario):
    """Where check_flags looks for a flagged bin (None: nowhere)."""
    if workload.flags == "step":
        return STEP_WINDOW_M
    if workload.flags == "obstacle":
        return object_window(mesh_center(seed), scenario.pose.depth_m,
                             scenario.sonar.bin_length_m)
    return None


def check_object(checks: Checks, results: dict, window: tuple) -> None:
    """One operation per ping: object echo lands in the obstacle's range
    window and nowhere else."""
    lo, hi = window
    for name, beam_result in results.items():
        for k, p in enumerate(beam_result["pings"]):
            centers = p.bin_centers
            inside = (centers >= lo) & (centers <= hi)
            ok = bool(np.any(p.object_[inside] > 0.0)) and not np.any(
                p.object_[~inside] > 0.0
            )
            checks.record(ok, f"ping {k + 1} of beam {name}: no object echo at "
                              f"{lo:.2f}-{hi:.2f} m, or echo elsewhere")


def check_files(checks: Checks, out_dir: Path, expected: int) -> int:
    """One operation: the command wrote the expected number of non-empty
    files. Returns the bytes written."""
    files = [f for f in out_dir.iterdir() if f.is_file()]
    sizes = [f.stat().st_size for f in files]
    ok = len(files) == expected and all(sizes)
    checks.record(ok, f"{len(files)} files written to {out_dir.name}, "
                      f"expected {expected} non-empty")
    return sum(sizes)
