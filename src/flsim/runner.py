"""Scenario execution: expected returns, simulated pings, comparison and
detection, with CSV and JSON outputs.

Every output is deterministic for a given scenario: per-ping generators are
spawned from the scenario seed keyed by (beam index, ping index), rows are
written in a fixed order and metadata carries no timestamps, so rerunning a
command reproduces its files byte for byte.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from .acoustics import absorption_coeff, max_range, range_resolution
from .db import is_response, to_db
from .detect import detect_ping
from .geometry import layout_for
from .nullmodel import NullModelReturn, expected_null
from .raysim import add_noise, ping
from .scenario import Scenario, _beam_slug, _build, build_scene, normalize


def with_overrides(
    scenario: Scenario,
    *,
    seed: int | None = None,
    rays: int | None = None,
    pings: int | None = None,
    gamma: float | None = None,
    no_noise: bool = False,
) -> Scenario:
    """A copy of the scenario with command-line overrides applied."""
    raw = copy.deepcopy(scenario.raw)
    if seed is not None:
        raw["run"]["seed"] = int(seed)
    if rays is not None:
        raw["sonar"]["num_rays"] = int(rays)
    if pings is not None:
        raw["run"]["num_pings"] = int(pings)
    if gamma is not None:
        raw["detect"]["gamma"] = float(gamma)
    if no_noise:
        raw["run"]["noise_enabled"] = False
    return _build(normalize(raw))


def _fmt_db(value: float) -> str:
    if not is_response(value) or not math.isfinite(value):
        return "null"
    return f"{value:.6f}"


def _fmt_lambda(value: float) -> str:
    if math.isnan(value):
        return "null"
    return f"{value:.6g}"


def _ping_rng(seed: int, beam_idx: int, ping_idx: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(beam_idx, ping_idx))
    return np.random.default_rng(seq)


def _write_csv(out_dir: str, name: str, header: list, rows) -> None:
    """Write a CSV table: the header line, then one line per row of
    already formatted fields."""
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _write_bins(out_dir: str, name: str, centers, columns: dict) -> None:
    """Per-bin CSV table: bin number and centre, then the named columns of
    formatted fields."""
    rows = (
        [str(i + 1), f"{d:.6f}", *fields]
        for i, (d, *fields) in enumerate(zip(centers, *columns.values()))
    )
    _write_csv(out_dir, name, ["bin", "d_center_m", *columns], rows)


def _write_meta(out_dir: str, name: str, scenario: Scenario, command: str) -> None:
    c = scenario.env.sound_speed()
    sonar = scenario.sonar
    layout = layout_for(scenario.env, sonar)
    meta = {
        "command": command,
        "scenario": scenario.raw,
        "resolved": {
            "sound_speed_m_s": c,
            "absorption_db_per_km": absorption_coeff(sonar.frequency_khz,
                                                     scenario.env),
            "range_resolution_m": range_resolution(c, sonar.bandwidth_hz),
            "max_range_m": max_range(c, sonar.ping_rate_hz),
            "num_bins": layout.num_bins,
            "binned_range_m": layout.end_m,
            "beams": [b.name for b in sonar.beams],
        },
    }
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _null_includes(scenario: Scenario) -> dict:
    scene_spec = scenario.raw["scene"]
    return {
        "include_bottom": scene_spec["bottom"]["type"] != "none",
        "include_surface": scene_spec["surface"],
        "include_volume": scene_spec["volume"],
    }


def compute_null(scenario: Scenario) -> dict:
    """Expected returns per beam, keyed by beam name."""
    layout = layout_for(scenario.env, scenario.sonar)
    out = {}
    for beam in scenario.sonar.beams:
        out[beam.name] = expected_null(
            scenario.env,
            scenario.sonar,
            scenario.pose,
            beam,
            layout,
            transmit_beam=scenario.transmitter,
            **_null_includes(scenario),
        )
    return out


def run_null(scenario: Scenario, out_dir: str) -> dict:
    """Compute and write the expected no-obstacle return for every beam."""
    os.makedirs(out_dir, exist_ok=True)
    nulls = compute_null(scenario)
    for beam in scenario.sonar.beams:
        null = nulls[beam.name]
        _write_bins(
            out_dir, f"null_{_beam_slug(beam.name)}.csv", null.bin_centers,
            {
                "total_db": map(_fmt_db, null.total_db),
                "bottom_db": map(_fmt_db, null.bottom_db),
                "surface_db": map(_fmt_db, null.surface_db),
                "volume_db": map(_fmt_db, null.volume_db),
            },
        )
    _write_meta(out_dir, "null_meta.json", scenario, "null")
    return nulls


def simulate(scenario: Scenario) -> dict:
    """Simulate every ping of every beam. Returns, per beam name, the list
    of PingReturn objects and the linear mean over pings."""
    scene = build_scene(scenario)
    results = {}
    for beam_idx, beam in enumerate(scenario.sonar.beams):
        pings = []
        for ping_idx in range(scenario.num_pings):
            rng = _ping_rng(scenario.seed, beam_idx, ping_idx)
            result = ping(
                scene,
                scenario.sonar,
                scenario.pose,
                beam,
                transmit_beam=scenario.transmitter,
                seed=rng,
            )
            result = add_noise(
                result,
                scenario.sonar,
                scenario.env,
                seed=rng,
                enabled=scenario.noise_enabled,
            )
            pings.append(result)
        mean_linear = np.mean([p.total for p in pings], axis=0)
        results[beam.name] = {"pings": pings, "mean_linear": mean_linear}
    return results


def run_sim(scenario: Scenario, out_dir: str) -> dict:
    """Simulate and write every ping of every beam plus per-beam means."""
    os.makedirs(out_dir, exist_ok=True)
    results = simulate(scenario)
    for beam in scenario.sonar.beams:
        slug = _beam_slug(beam.name)
        beam_result = results[beam.name]
        for ping_idx, p in enumerate(beam_result["pings"]):
            _write_bins(
                out_dir, f"sim_{slug}_ping{ping_idx + 1}.csv", p.bin_centers,
                {
                    "intensity_db": map(_fmt_db, p.total_db),
                    "bottom_db": map(_fmt_db, p.bottom_db),
                    "surface_db": map(_fmt_db, p.surface_db),
                    "object_db": map(_fmt_db, p.object_db),
                    "volume_db": map(_fmt_db, p.volume_db),
                    "multipath_db": map(_fmt_db, p.multipath_db),
                },
            )
        mean_db = to_db(beam_result["mean_linear"])
        _write_bins(
            out_dir, f"sim_{slug}_mean.csv", beam_result["pings"][0].bin_centers,
            {"mean_db": map(_fmt_db, mean_db)},
        )
    _write_meta(out_dir, "sim_meta.json", scenario, "sim")
    return results


def compare_beam(
    null: NullModelReturn,
    mean_linear: np.ndarray,
    *,
    window_m,
    max_gap_db: float,
    min_expected_db: float,
) -> tuple:
    """Per-bin gaps between the simulated mean and the expectation, and the
    verdict over the comparison window. Returns (gaps_db, eligible, passed):
    gaps are nan where either side has no response."""
    expected = null.total_db
    mean_db = to_db(mean_linear)
    centers = null.bin_centers
    gaps = np.full(expected.shape, np.nan)
    both = is_response(expected) & is_response(mean_db)
    gaps[both] = mean_db[both] - expected[both]
    eligible = (
        (centers >= window_m[0])
        & (centers <= window_m[1])
        & is_response(expected)
        & (expected >= min_expected_db)
    )
    ok = np.abs(np.where(np.isnan(gaps), np.inf, gaps)) <= max_gap_db
    passed = bool(np.all(ok[eligible])) if np.any(eligible) else True
    return gaps, eligible, passed


def run_compare(scenario: Scenario, out_dir: str) -> bool:
    """Expected vs simulated mean per beam; True when every beam stays
    within the configured gap over the comparison window."""
    os.makedirs(out_dir, exist_ok=True)
    nulls = compute_null(scenario)
    results = simulate(scenario)
    params = scenario.compare_params
    all_passed = True
    for beam in scenario.sonar.beams:
        null = nulls[beam.name]
        mean_linear = results[beam.name]["mean_linear"]
        gaps, eligible, passed = compare_beam(
            null,
            mean_linear,
            window_m=params["window_m"],
            max_gap_db=params["max_gap_db"],
            min_expected_db=params["min_expected_db"],
        )
        all_passed = all_passed and passed
        _write_bins(
            out_dir, f"compare_{_beam_slug(beam.name)}.csv", null.bin_centers,
            {
                "expected_db": map(_fmt_db, null.total_db),
                "sim_mean_db": map(_fmt_db, to_db(mean_linear)),
                "gap_db": ("null" if np.isnan(g) else f"{g:.6f}" for g in gaps),
                "evaluated": (str(int(e)) for e in eligible),
            },
        )
    _write_meta(out_dir, "compare_meta.json", scenario, "compare")
    return all_passed


def run_detect(scenario: Scenario, out_dir: str) -> dict:
    """Run the likelihood-ratio detector on every simulated ping and write
    per-ping decisions plus a summary."""
    os.makedirs(out_dir, exist_ok=True)
    nulls = compute_null(scenario)
    results = simulate(scenario)
    params = scenario.detect_params
    summary_rows = []
    detections = {}
    for beam in scenario.sonar.beams:
        slug = _beam_slug(beam.name)
        null = nulls[beam.name]
        beam_detections = []
        for ping_idx, p in enumerate(results[beam.name]["pings"]):
            detection = detect_ping(
                p,
                null,
                gamma=params["gamma"],
                sigma_db=params["sigma_db"],
                alt_offset_db=params["alt_offset_db"],
            )
            beam_detections.append(detection)
            decisions = [
                "excluded" if excluded else str(int(decision))
                for excluded, decision in zip(detection.excluded, detection.decisions)
            ]
            _write_bins(
                out_dir, f"detect_{slug}_ping{ping_idx + 1}.csv", p.bin_centers,
                {
                    "z_db": map(_fmt_db, detection.z_db),
                    "lambda": map(_fmt_lambda, detection.lambdas),
                    "decision": decisions,
                },
            )
            summary_rows.append(
                [
                    beam.name,
                    str(ping_idx + 1),
                    f"{params['gamma']:.6g}",
                    f"{detection.pd:.6g}",
                    f"{detection.pfa:.6g}",
                    str(int(detection.decisions.sum())),
                ]
            )
        detections[beam.name] = beam_detections
    _write_csv(
        out_dir, "detect_summary.csv",
        ["beam", "ping", "gamma", "pd", "pfa", "num_detections"], summary_rows,
    )
    _write_meta(out_dir, "detect_meta.json", scenario, "detect")
    return detections
