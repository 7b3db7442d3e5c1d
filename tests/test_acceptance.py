"""End-to-end acceptance checks.

Each test covers one committed behavior of the package: agreement between
the Monte-Carlo simulation and the analytic expectation, the qualitative
structure of the step-obstacle scenario, bookkeeping identities, exact
reference values, sampling isotropy, detector operating points,
reproducibility and throughput. Run with -s to see one summary line per
criterion.
"""

import filecmp
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from flsim import (
    BeamOrientation,
    BinLayout,
    FlatBottom,
    HypothesisModel,
    Scene,
    build_scene,
    expected_null,
    likelihood_ratios,
    max_range,
    pd_pfa,
    ping,
    power_sum_db,
    range_resolution,
    sample_ray_directions,
    sound_speed,
    spread_loss,
    to_db,
)
from flsim.acoustics import noise_thermal
from flsim.cli import main
from flsim.db import is_response
from flsim.geometry import ring_areas, ring_radius, shell_volume_between
from flsim.runner import compute_null, simulate
from one_beam import ping_beam

CHI2_CRITICAL_7DF_P001 = 24.322


@pytest.fixture(scope="module")
def s1run(scenario1):
    """Expected return and the full 50-ping flat-bottom run, timed."""
    start = time.perf_counter()
    nulls = compute_null(scenario1)
    results = simulate(scenario1)
    elapsed = time.perf_counter() - start
    beam = results["forward"]
    return {
        "null": nulls["forward"],
        "pings": beam["pings"],
        "mean": beam["mean_linear"],
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def s2run(scenario2):
    """Expected returns and the 20-ping step-obstacle run for all beams."""
    nulls = compute_null(scenario2)
    results = simulate(scenario2)
    return {"nulls": nulls, "results": results}


def _window_peak(values_db, centers, lo, hi):
    masked = np.where((centers >= lo) & (centers <= hi), values_db, -np.inf)
    idx = int(np.argmax(masked))
    return float(values_db[idx]), float(centers[idx])


def _window_level(linear, centers, lo, hi):
    mask = (centers >= lo) & (centers <= hi)
    return float(to_db(float(np.mean(linear[mask]))))


def test_01_flat_scenario_mean_tracks_expectation(s1run, s1_layout):
    null = s1run["null"]
    mean_db = to_db(s1run["mean"])
    eligible = (to_db(null.total) >= -120.0) & (s1_layout.centers <= 20.0)
    assert int(eligible.sum()) >= 60
    gaps = mean_db[eligible] - to_db(null.total)[eligible]
    assert np.all(np.isfinite(gaps))
    worst = float(np.max(np.abs(gaps)))
    assert worst <= 3.0
    assert s1run["elapsed"] < 300.0
    print(f"criterion 1 PASS: 50-ping mean within {worst:.2f} dB of the "
          f"expectation on {int(eligible.sum())} bins inside 20 m, "
          f"run took {s1run['elapsed']:.1f} s")


def test_02_ping_spread_grows_with_range(s1run, s1_layout):
    totals = np.stack([p.total for p in s1run["pings"]])
    mean = totals.mean(axis=0)
    std = totals.std(axis=0)
    ratio = np.divide(std, mean, out=np.zeros_like(std), where=mean > 0)
    centers = s1_layout.centers
    near = float(ratio[(centers >= 5.0) & (centers <= 15.0)].mean())
    far = float(ratio[(centers >= 30.0) & (centers <= 40.0)].mean())
    assert far > near
    print(f"criterion 2 PASS: normalized per-bin spread rises from "
          f"{near:.3f} (5-15 m) to {far:.3f} (30-40 m)")


def test_03a_bottom_echo_strongest_for_level_and_down_beams(s2run, s1_layout):
    centers = s1_layout.centers
    peaks = {}
    for name in ("forward", "down20", "up20"):
        mean_db = to_db(s2run["results"][name]["mean_linear"])
        peaks[name], _ = _window_peak(mean_db, centers, 4.8, 6.0)
    assert peaks["down20"] > peaks["up20"]
    assert peaks["forward"] > peaks["up20"]
    print(f"criterion 3a PASS: first bottom echo peaks at "
          f"{peaks['down20']:.1f} dB (down), {peaks['forward']:.1f} dB "
          f"(level), {peaks['up20']:.1f} dB (up)")


def test_03b_surface_echo_strongest_for_level_and_up_beams(s2run, s1_layout):
    centers = s1_layout.centers
    peaks = {}
    for name in ("forward", "down20", "up20"):
        pings = s2run["results"][name]["pings"]
        surface_mean = np.mean([p.surface for p in pings], axis=0)
        peaks[name], _ = _window_peak(to_db(surface_mean), centers, 6.8, 8.0)
    assert peaks["up20"] > peaks["down20"]
    assert peaks["forward"] > peaks["down20"]
    print(f"criterion 3b PASS: first surface echo peaks at "
          f"{peaks['up20']:.1f} dB (up), {peaks['forward']:.1f} dB (level), "
          f"{peaks['down20']:.1f} dB (down)")


def test_03c_step_rise_stands_ten_db_above_expectation(s2run, s1_layout):
    centers = s1_layout.centers
    excesses = {}
    for name in ("forward", "down20", "up20"):
        mean_db = to_db(s2run["results"][name]["mean_linear"])
        null_db = to_db(s2run["nulls"][name].total)
        gap = np.where(is_response(null_db), mean_db - null_db, -np.inf)
        excesses[name], where = _window_peak(gap, centers, 34.0, 37.0)
        assert excesses[name] >= 10.0, (name, excesses[name], where)
    strongest = ", ".join(f"{name} +{excesses[name]:.1f} dB"
                          for name in excesses)
    print(f"criterion 3c PASS: step echo exceeds the flat-water "
          f"expectation near 35 m ({strongest})")


def test_03d_steered_beams_lose_near_range_level(s2run, s1_layout):
    centers = s1_layout.centers
    levels = {
        name: _window_level(s2run["results"][name]["mean_linear"],
                            centers, 1.0, 4.5)
        for name in ("forward", "down20", "up20")
    }
    assert levels["forward"] > levels["down20"]
    assert levels["forward"] > levels["up20"]
    print(f"criterion 3d PASS: near-range level {levels['forward']:.1f} dB "
          f"(level beam) vs {levels['down20']:.1f} dB (down) and "
          f"{levels['up20']:.1f} dB (up)")


def test_04_bottom_energy_matches_analytic_per_meter_bin(scenario1):
    env = scenario1.env
    c = env.sound_speed()
    sonar = replace(scenario1.sonar, bin_length_m=1.0, num_rays=100000)
    beam = sonar.beams[0]
    layout = BinLayout.from_range(max_range(c, sonar.ping_rate_hz), 1.0)
    scene = Scene(env=env, bottom=FlatBottom(depth_m=12.0),
                  surface_enabled=False, volume_enabled=False)
    null = expected_null(scene, sonar, scenario1.pose, beam)
    acc = np.zeros(layout.num_bins)
    for k in range(10):
        acc += ping_beam(scene, sonar, scenario1.pose, beam, seed=4242 + k).bottom
    mean_db = to_db(acc / 10.0)
    gaps = mean_db[5:40] - to_db(null.bottom)[5:40]
    assert np.all(np.isfinite(gaps))
    worst = float(np.max(np.abs(gaps)))
    assert worst < 1.0
    print(f"criterion 4 PASS: bottom-only Monte-Carlo mean within "
          f"{worst:.2f} dB of the analytic curve on bins 6-40")


def test_05_energy_bookkeeping_identities(s1run, s1_layout, scenario1):
    # component power sum reproduces the total
    null = s1run["null"]
    worst = 0.0
    for n in range(s1_layout.num_bins):
        want = power_sum_db([to_db(null.bottom)[n], to_db(null.surface)[n],
                             to_db(null.volume)[n]])
        assert is_response(want) == is_response(to_db(null.total)[n])
        if is_response(want):
            worst = max(worst, abs(float(to_db(null.total)[n] - want)))
    assert worst < 1e-9

    # ring areas telescope to the full disc
    areas = ring_areas(s1_layout, 5.0)
    discs = np.cumsum(areas)
    radii = np.array([ring_radius(s1_layout.edge(n), 5.0)
                      for n in range(1, s1_layout.num_bins + 1)])
    np.testing.assert_allclose(discs, math.pi * radii**2, rtol=1e-12)

    # closed-form shell volume against a Monte-Carlo oracle
    d_inner, d_outer, h, h_d = 5.0, 6.5, 3.0, 4.0
    rng = np.random.default_rng(31415)
    pts = rng.uniform(-d_outer, d_outer, size=(2_000_000, 3))
    r = np.linalg.norm(pts, axis=1)
    inside = (r > d_inner) & (r <= d_outer) & (pts[:, 2] > -h_d) & (pts[:, 2] < h)
    mc = float(inside.mean()) * (2.0 * d_outer) ** 3
    exact = shell_volume_between(d_inner, d_outer, h, h_d)
    assert mc == pytest.approx(exact, rel=0.01)

    # halving the resolution cell leaves the expectation in place
    fine_sonar = replace(scenario1.sonar, bandwidth_hz=40000.0)
    fine = expected_null(build_scene(scenario1), fine_sonar, scenario1.pose,
                         scenario1.sonar.beams[0])
    both = is_response(to_db(null.total)) & is_response(to_db(fine.total))
    drift = float(np.max(np.abs(to_db(fine.total)[both]
                                - to_db(null.total)[both])))
    assert drift < 0.2
    print(f"criterion 5 PASS: power sums exact to {worst:.1e} dB, ring "
          f"areas telescope, shell volume within 1% of Monte-Carlo, "
          f"refinement drift {drift:.3f} dB")


def test_06_exact_reference_values():
    assert spread_loss(10.0) == 40.0
    assert range_resolution(1500.0, 50000.0) == 0.015
    assert max_range(1500.0, 15.0) == 50.0
    assert sound_speed(0.0, 35.0, 0.0) == 1449.2
    assert noise_thermal(1.0) == -15.0
    print("criterion 6 PASS: spreading, resolution, range, sound speed and "
          "thermal noise reproduce their reference values exactly")


def test_07_ray_directions_are_isotropic():
    rng = np.random.default_rng(2026)
    dirs = sample_ray_directions(80000, rng)
    octant = ((dirs[:, 0] > 0).astype(int) * 4
              + (dirs[:, 1] > 0).astype(int) * 2
              + (dirs[:, 2] > 0).astype(int))
    counts = np.bincount(octant, minlength=8)
    expected = dirs.shape[0] / 8.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < CHI2_CRITICAL_7DF_P001
    means = np.abs(dirs.mean(axis=0))
    assert np.all(means < 0.02)
    print(f"criterion 7 PASS: octant chi-square {chi2:.2f} < "
          f"{CHI2_CRITICAL_7DF_P001} and |mean| <= {means.max():.4f}")


def test_08_detector_operating_points_match_simulation():
    gamma = 4.0
    n = 1_000_000
    model = HypothesisModel(
        null_mean_db=np.full(n, -100.0), sigma_db=3.0, alt_offset_db=6.0)
    pd, pfa = pd_pfa(gamma, model)
    rng = np.random.default_rng(808)
    z0 = -100.0 + 3.0 * rng.standard_normal(n)
    z1 = -94.0 + 3.0 * rng.standard_normal(n)
    lam0 = likelihood_ratios(z0, model)
    lam1 = likelihood_ratios(z1, model)
    mc_pfa = float((lam0 >= gamma).mean())
    mc_pd = float((lam1 >= gamma).mean())
    se_pfa = math.sqrt(pfa * (1.0 - pfa) / n)
    se_pd = math.sqrt(pd * (1.0 - pd) / n)
    assert abs(mc_pfa - pfa) <= 3.0 * se_pfa
    assert abs(mc_pd - pd) <= 3.0 * se_pd

    grid = np.logspace(-3.0, 5.0, 50)
    points = [pd_pfa(float(g), model) for g in grid]
    pds = np.array([p[0] for p in points])
    pfas = np.array([p[1] for p in points])
    assert np.all(np.diff(pds) <= 1e-12)
    assert np.all(np.diff(pfas) <= 1e-12)
    assert np.all(pds >= pfas - 1e-12)
    print(f"criterion 8 PASS: closed-form (pd, pfa) = ({pd:.4f}, {pfa:.4f}) "
          f"vs Monte-Carlo ({mc_pd:.4f}, {mc_pfa:.4f}); both monotone over "
          f"50 thresholds")


def test_09_simulation_reruns_are_byte_identical(tmp_path):
    args = ["sim", "--scenario", "scenario1", "--rays", "5000",
            "--pings", "3"]
    a = tmp_path / "first"
    b = tmp_path / "second"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    print(f"criterion 9 PASS: two sim runs produced {len(names)} "
          f"byte-identical files")


def test_10_six_beam_ping_under_a_second(scenario1):
    beams = tuple(
        BeamOrientation(yaw_rad=math.radians(yaw), name=f"b{i}")
        for i, yaw in enumerate((-25.0, -15.0, -5.0, 5.0, 15.0, 25.0))
    )
    sonar = replace(scenario1.sonar, beams=beams)
    scene = Scene(env=scenario1.env, bottom=FlatBottom(depth_m=12.0))
    pose = scenario1.pose
    start = time.perf_counter()
    ping(scene, sonar, pose, seed=66)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 10 PASS: six 20000-ray beams simulated in "
          f"{elapsed * 1000.0:.0f} ms")
