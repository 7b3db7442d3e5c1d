import math
from dataclasses import replace

import numpy as np
import pytest

import flsim.nullmodel as nullmodel
from flsim import (
    BeamOrientation,
    BinLayout,
    FlatBottom,
    NO_RESPONSE,
    NullModelReturn,
    QuadratureError,
    SonarConfig,
    SonarPose,
    beam_gain,
    bottom_return_bins,
    build_scene,
    expected_null,
    power_sum_db,
    surface_return_bins,
    transmission_loss,
    volume_return_bins,
    wavelength,
)
from flsim.acoustics import absorption_coeff, range_resolution
from flsim.db import to_db, to_linear
from flsim.geometry import (
    beam_angles_surface,
    beam_orientations,
    grazing_between,
    layout_for,
    ring_radius,
    rotate_to_sonar_frame,
)
from flsim.nullmodel import (
    TOLERANCE_DB,
    _nested_trapezoid,
    _ring_averages,
    _shell_averages,
)
from flsim.scatter import bottom_coeff, surface_coeff
from one_beam import ping_beam

POSE = SonarPose(altitude_m=5.0, depth_m=7.0)
FORWARD = BeamOrientation(name="forward")
LEVEL = beam_orientations(POSE, FORWARD, FORWARD)


def make_sonar(**overrides):
    params = dict(
        frequency_khz=450.0,
        bandwidth_hz=20000.0,
        source_level_db=0.0,
        ping_rate_hz=18.5,
        horizontal_len_m=0.005,
        vertical_len_m=0.010,
        bin_length_m=0.25,
    )
    params.update(overrides)
    return SonarConfig(**params)


def omni_sonar(c):
    lam = wavelength(c, 450.0)
    return make_sonar(horizontal_len_m=lam * 1e-6, vertical_len_m=lam * 1e-6)


# --- adaptive quadrature --------------------------------------------------------


def test_adaptive_trapezoid_smooth_integral():
    # converges to the 0.01 dB ratio tolerance, not machine precision
    (got,), _ = _nested_trapezoid(lambda rows, x, u: np.sin(x), [0.0],
                                  [math.pi], 1)
    assert got == pytest.approx(2.0, abs=1e-3)


def test_adaptive_trapezoid_raises_on_divergent_integrand():
    """A non-integrable singularity keeps growing with every panel doubling
    and must surface as a diagnostic, not a silent wrong answer."""
    def f(rows, x, u):
        return 1.0 / np.abs(x - 1.0 / math.pi)

    with pytest.raises(QuadratureError):
        _nested_trapezoid(f, [0.0], [1.0], 1)


def test_quadrature_error_names_beam_component_and_bin(scenario1, monkeypatch):
    """With a panel cap no integral can meet, the first cell to integrate
    fails: the bottom's first wet bin, 21 at 5 m altitude, the surface's, 29
    at 7 m depth, or the first volume bin."""
    monkeypatch.setattr("flsim.nullmodel.MAX_PANELS", 16)
    scene = build_scene(scenario1)
    with pytest.raises(QuadratureError) as exc:
        expected_null(scene, scenario1.sonar, POSE, FORWARD)
    message = str(exc.value)
    assert "'forward'" in message
    assert "bottom bin 21" in message
    with pytest.raises(QuadratureError) as exc:
        expected_null(replace(scene, bottom=None, volume_enabled=False),
                      scenario1.sonar, POSE, FORWARD)
    assert "'forward'" in str(exc.value)
    assert "surface bin 29," in str(exc.value)
    with pytest.raises(QuadratureError) as exc:
        expected_null(replace(scene, bottom=None, surface_enabled=False),
                      scenario1.sonar, POSE, FORWARD)
    assert "'forward'" in str(exc.value)
    assert "volume bin 1," in str(exc.value)


# --- ring averages ----------------------------------------------------------------


def test_ring_directly_below_is_no_response(scenario1):
    """A degenerate ring at the nadir lies on the open hemisphere boundary
    of a level beam."""
    c = scenario1.env.sound_speed()
    (got,) = _ring_averages([0.0], POSE.altitude_m, LEVEL, scenario1.sonar, c)
    assert to_db(got) == NO_RESPONSE


def test_ring_average_omni_limit(scenario1):
    """With vanishing apertures the ring average reduces to the visible
    fraction of the ring: half of it, a 3.01 dB reduction."""
    c = scenario1.env.sound_speed()
    sonar = omni_sonar(c)
    (got,) = _ring_averages([10.0], 5.0, LEVEL, sonar, c)
    assert to_db(got) == pytest.approx(10.0 * math.log10(0.5), abs=0.02)


def test_ring_average_reference_quadrature(scenario1, s1_layout):
    """Arc-gated adaptive integration against a brute-force fixed grid over
    the whole ring, within 0.05 dB."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    h = POSE.altitude_m
    r_outer = ring_radius(s1_layout.edge(41), h)
    r_inner = ring_radius(s1_layout.edge(40), h)
    rho = (r_outer + r_inner) / 2.0

    theta = np.linspace(-math.pi, math.pi, 2**21 + 1)
    v = np.stack([rho * np.cos(theta), rho * np.sin(theta),
                  np.full_like(theta, h)], axis=-1)
    th = np.arctan2(v[:, 1], v[:, 0])
    ps = np.arctan2(v[:, 2], np.hypot(v[:, 0], v[:, 1]))
    gain = beam_gain(th, ps, sonar, c)
    ref = to_db(float(np.trapezoid(gain * gain, theta)) / (2.0 * math.pi))

    (got,) = _ring_averages([rho], h, LEVEL, sonar, c)
    assert to_db(got) == pytest.approx(ref, abs=0.05)


def test_ring_average_transmit_receive_coupling(scenario1, s1_layout):
    """The bin-41 ring lies about 30 degrees below horizontal, so against a
    level transmitter a down-pitched receive beam overlaps it more and an
    up-pitched one less."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    h = POSE.altitude_m
    rho = (ring_radius(s1_layout.edge(41), h)
           + ring_radius(s1_layout.edge(40), h)) / 2.0
    def average(beam, transmitter):
        orientations = beam_orientations(POSE, beam, transmitter)
        return _ring_averages([rho], h, orientations, sonar, c)[0]

    same = average(FORWARD, FORWARD)
    down = average(BeamOrientation(pitch_rad=math.radians(20.0)), FORWARD)
    up = average(BeamOrientation(pitch_rad=math.radians(-20.0)), FORWARD)
    assert up < same < down


def test_ring_average_at_a_hemisphere_edge_is_decided_exactly(scenario2):
    """up20's bottom arcs end on hemisphere edges, where the uncut pattern
    is continuous, so an end node's value does not hang on which side of
    the edge it rounds to: one ulp of the radius moves the average by
    rounding only (it moved it by 2.5e-3 relative with the cut gain)."""
    up20 = next(b for b in scenario2.sonar.beams if b.name == "up20")
    orientations = beam_orientations(scenario2.pose, up20,
                                     scenario2.sonar.transmitter)
    c = scenario2.env.sound_speed()
    rho = 2.2403359783572636
    at, below, above = _ring_averages(
        [rho, np.nextafter(rho, 0.0), np.nextafter(rho, math.inf)], 5.0,
        orientations, scenario2.sonar, c)
    assert below == pytest.approx(at, rel=1e-11)
    assert above == pytest.approx(at, rel=1e-11)


def _ring_midpoint_reference(rho, z, orientations, sonar, c, nodes=2**16):
    """Ring average of the cut gain product by the midpoint rule over
    (-pi, pi], every node evaluated pointwise; no node lies on an edge."""
    theta = -math.pi + (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    v = np.stack(np.broadcast_arrays(
        rho * np.cos(theta), rho * np.sin(theta), z), axis=-1)
    gain = np.ones(nodes)
    for pitch, yaw in orientations:
        vb = rotate_to_sonar_frame(v, pitch, yaw)
        gain *= beam_gain(*beam_angles_surface(vb), sonar, c)
    return gain.mean()


def test_ring_averages_match_a_fine_midpoint_grid(scenario2, monkeypatch):
    """Every 25th wet ring of each scenario2 bottom and surface, and the
    rings of up20's bottom bins 22 and 25, against a 2^16-node midpoint
    reference. Once a row's ends are right the trapezoid converges as
    O(h^2), so a doubling that changes it by at most TOLERANCE_DB leaves
    about a third of that: each ring within TOLERANCE_DB / 2, and each
    component's mean gap, a bias, within 0.001 dB."""
    rings = []

    def recording(rho, z, orientations, sonar, c):
        averages = _ring_averages(rho, z, orientations, sonar, c)
        rings.append((np.asarray(rho), z, orientations, averages))
        return averages

    monkeypatch.setattr(nullmodel, "_ring_averages", recording)
    args = (scenario2.env, scenario2.sonar, scenario2.pose)
    layout = layout_for(scenario2.env, scenario2.sonar)
    c = scenario2.env.sound_speed()
    h = scenario2.pose.altitude_m
    for beam in scenario2.sonar.beams:
        for component in (bottom_return_bins, surface_return_bins):
            component(*args, beam, layout)
            rho, z, orientations, averages = rings[-1]
            picked = np.arange(0, rho.size, 25)
            if beam.name == "up20" and component is bottom_return_bins:
                in_bins = np.zeros(rho.size, bool)
                for n in (22, 25):
                    in_bins |= ((rho > ring_radius(layout.edge(n - 1), h))
                                & (rho < ring_radius(layout.edge(n), h)))
                assert np.count_nonzero(in_bins) >= 2
                picked = np.union1d(picked, np.flatnonzero(in_bins))
            gaps = []
            for i in picked:
                ref = _ring_midpoint_reference(rho[i], z, orientations,
                                               scenario2.sonar, c)
                assert (averages[i] > 0.0) == (ref > 0.0)
                if ref > 0.0:
                    gaps.append(to_db(averages[i]) - to_db(ref))
            gaps = np.array(gaps)
            where = f"{beam.name} {component.__name__}"
            assert gaps.size >= 20, where
            assert np.max(np.abs(gaps)) <= TOLERANCE_DB / 2.0, where
            assert abs(np.mean(gaps)) <= 0.001, where


@pytest.mark.parametrize("name,beam_name", [("scenario1", "forward"),
                                            ("scenario2", "up20")])
def test_ring_bins_are_invariant_under_a_common_yaw(request, name, beam_name):
    """Yawing the receive and the transmit beam alike turns the rings'
    gated arcs with them, so the bottom and surface curves stay the level
    beam's. (The volume's in-plane angle convention is not yaw-invariant.)"""
    scenario = request.getfixturevalue(name)
    beam = next(b for b in scenario.sonar.beams if b.name == beam_name)
    layout = layout_for(scenario.env, scenario.sonar)
    for component in (bottom_return_bins, surface_return_bins):
        def curve(yaw):
            transmitter = replace(scenario.sonar.transmitter, yaw_rad=yaw)
            return to_db(component(
                scenario.env, replace(scenario.sonar, transmitter=transmitter),
                scenario.pose, replace(beam, yaw_rad=yaw), layout))

        level = curve(0.0)
        live = level != NO_RESPONSE
        for degrees in (10.0, 37.0, -120.0):
            turned = curve(math.radians(degrees))
            np.testing.assert_array_equal(turned == NO_RESPONSE, ~live)
            np.testing.assert_allclose(turned[live], level[live], rtol=0.0,
                                       atol=1e-9)


# --- shell averages -----------------------------------------------------------------


def test_sphere_average_empty_gate(scenario1):
    """Explicit zero cutoffs leave no admitted band."""
    c = scenario1.env.sound_speed()
    (got,) = _shell_averages(np.zeros(1), np.zeros(1), LEVEL, scenario1.sonar, c)
    assert to_db(got) == NO_RESPONSE


def _sphere_reference(sonar, c, theta_ha, theta_hd, n_h=4096, n_v=8192):
    """Brute-force tensor-grid average of the coupled pattern over the full
    direction square, gated on the elevation band."""
    theta_h = np.linspace(-math.pi, math.pi, n_h + 1)
    theta_v = np.linspace(-math.pi, math.pi, n_v + 1)
    cos_v = np.cos(theta_v)
    sin_v = np.sin(theta_v)
    acc = 0.0
    weights_h = np.ones(n_h + 1)
    weights_h[0] = weights_h[-1] = 0.5
    for i in range(0, n_h + 1, 512):
        sl = slice(i, min(i + 512, n_h + 1))
        th = theta_h[sl]
        vx = np.cos(th)[:, None] * cos_v[None, :]
        vy = np.broadcast_to(np.sin(th)[:, None], (th.size, n_v + 1))
        vz = np.broadcast_to(sin_v[None, :], (th.size, n_v + 1))
        t_ang = np.arctan2(vy, vx)
        p_ang = np.arctan2(vz, vx)
        gain = beam_gain(t_ang, p_ang, sonar, c)
        gate = (p_ang > -theta_ha) & (p_ang < theta_hd)
        vals = np.where(gate, gain * gain, 0.0)
        vals[:, 0] *= 0.5
        vals[:, -1] *= 0.5
        acc += float(np.sum(weights_h[sl][:, None] * vals))
    dx = 2.0 * math.pi / n_h
    dv = 2.0 * math.pi / n_v
    return to_db(acc * dx * dv / (4.0 * math.pi**2))


def test_sphere_average_reference_quadrature(scenario1, s1_layout):
    """Strip-reduced gated integration against a brute-force grid over the
    full angle square, within 0.05 dB."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    a, b = s1_layout.edge(80), s1_layout.edge(81)
    theta_ha = math.asin(2.0 * POSE.altitude_m / (a + b))
    theta_hd = math.asin(2.0 * POSE.depth_m / (a + b))
    ref = _sphere_reference(sonar, c, theta_ha, theta_hd)
    (got,) = _shell_averages(np.array([theta_ha]), np.array([theta_hd]), LEVEL,
                             sonar, c)
    assert to_db(got) == pytest.approx(ref, abs=0.05)


def test_sphere_average_open_water_reference(scenario1):
    """With both cutoffs wide open only the front-hemisphere gate remains."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    ref = _sphere_reference(sonar, c, math.pi / 2, math.pi / 2,
                            n_h=2048, n_v=4096)
    open_gate = np.array([math.pi / 2])
    (got,) = _shell_averages(open_gate, open_gate, LEVEL, sonar, c)
    assert to_db(got) == pytest.approx(ref, abs=0.05)


def test_sphere_average_yawed_fallback_matches_fast_path(scenario1, s1_layout):
    """A vanishing yaw forces the pointwise-gated fallback, which must agree
    with the aligned-gate integration."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    a, b = s1_layout.edge(80), s1_layout.edge(81)
    theta_ha = np.array([math.asin(2.0 * POSE.altitude_m / (a + b))])
    theta_hd = np.array([math.asin(2.0 * POSE.depth_m / (a + b))])
    (fast,) = _shell_averages(theta_ha, theta_hd, LEVEL, sonar, c)
    yawed = beam_orientations(POSE, BeamOrientation(yaw_rad=1e-12), FORWARD)
    (nudged,) = _shell_averages(theta_ha, theta_hd, yawed, sonar, c)
    assert to_db(nudged) == pytest.approx(to_db(fast), abs=0.1)


def test_shell_average_at_a_hemisphere_edge_is_decided_exactly(scenario2):
    """up20's psi band ends on its hemisphere edge, where the uncut pattern
    is continuous, so an end node's value does not hang on which side of
    the edge it rounds to: one ulp of the other cutoff moves the average by
    rounding only (it moved it by 3.7e-9 relative with the cut gain)."""
    up20 = next(b for b in scenario2.sonar.beams if b.name == "up20")
    orientations = beam_orientations(scenario2.pose, up20,
                                     scenario2.sonar.transmitter)
    c = scenario2.env.sound_speed()
    cutoff = 0.8175662098101093
    at, below = (
        _shell_averages(np.array([ha]), np.array([math.inf]), orientations,
                        scenario2.sonar, c)[0]
        for ha in (cutoff, np.nextafter(cutoff, 0.0)))
    assert below == pytest.approx(at, rel=1e-14)


# --- per-bin pipelines ----------------------------------------------------------------


def test_bottom_bins_dry_region_no_response(scenario1, s1_layout):
    bottom = to_db(bottom_return_bins(scenario1.env, scenario1.sonar, POSE,
                                      FORWARD, s1_layout))
    # slant ranges at or below the altitude never reach the floor
    assert np.all(bottom[:20] == NO_RESPONSE)
    assert bottom[20] > NO_RESPONSE


def test_bottom_onset_bin_follows_altitude(scenario1, s1_layout):
    pose = SonarPose(altitude_m=5.1, depth_m=7.0)
    bottom = bottom_return_bins(scenario1.env, scenario1.sonar, pose, FORWARD,
                                s1_layout)
    first = int(np.argmax(bottom > 0.0)) + 1
    assert first == 21  # the bin containing 5.1 m


def test_surface_onset_bin_follows_depth(scenario1, s1_layout):
    pose = SonarPose(altitude_m=5.0, depth_m=7.1)
    surface = surface_return_bins(scenario1.env, scenario1.sonar, pose,
                                  FORWARD, s1_layout)
    first = int(np.argmax(surface > 0.0)) + 1
    assert first == 29  # the bin containing 7.1 m


def test_symmetric_pose_bottom_surface_differ_only_in_coefficient(scenario1):
    """At equal altitude and depth with a level beam the two boundary curves
    share all geometry, so per bin they differ by the coefficient alone.
    A narrow bandwidth keeps one resolution cell per bin to make the
    comparison exact."""
    env = scenario1.env
    c = env.sound_speed()
    sonar = make_sonar(bandwidth_hz=2000.0)  # delta_y > bin length -> m = 1
    pose = SonarPose(altitude_m=6.0, depth_m=6.0)
    layout = BinLayout(bin_length_m=0.25, num_bins=120)
    bottom = to_db(bottom_return_bins(env, sonar, pose, FORWARD, layout))
    surface = to_db(surface_return_bins(env, sonar, pose, FORWARD, layout))
    wet = bottom > NO_RESPONSE
    assert np.array_equal(wet, surface > NO_RESPONSE)
    for n in np.nonzero(wet)[0] + 1:
        a, b = layout.edge(n - 1), layout.edge(n)
        g = grazing_between(a, b, 6.0)
        want = bottom_coeff(env.bottom_type, g, 450.0) - surface_coeff(
            env.wind_knots, g, 450.0)
        assert bottom[n - 1] - surface[n - 1] == pytest.approx(want, abs=1e-9)


def test_single_cell_pipeline_reduces_to_per_bin_formula(scenario1):
    """With delta_y at least the bin length the pipeline is one reverberation
    evaluation per bin, reproducible directly from the operations."""
    env = scenario1.env
    c = env.sound_speed()
    sonar = make_sonar(bandwidth_hz=2000.0)
    assert range_resolution(c, sonar.bandwidth_hz) > sonar.bin_length_m
    layout = BinLayout(bin_length_m=0.25, num_bins=100)
    alpha = absorption_coeff(sonar.frequency_khz, env)
    bottom = to_db(bottom_return_bins(env, sonar, POSE, FORWARD, layout))
    for n in (21, 41, 81):
        a, b = layout.edge(n - 1), layout.edge(n)
        r_a, r_b = ring_radius(a, 5.0), ring_radius(b, 5.0)
        area = math.pi * (r_b**2 - r_a**2)
        (avg,) = _ring_averages([(r_a + r_b) / 2.0], 5.0, LEVEL, sonar, c)
        # SL - TL + BP + S + 10 log10(area), in dB
        want = (0.0 - transmission_loss(b - layout.bin_length_m / 2.0, alpha)
                + to_db(avg)
                + bottom_coeff(env.bottom_type, grazing_between(a, b, 5.0),
                               450.0)
                + 10.0 * math.log10(area))
        assert bottom[n - 1] == pytest.approx(want, abs=1e-9)


def test_bottom_curve_against_straight_line_reference(scenario1, s1_layout):
    """Full pipeline for selected bins against an independent straight-line
    reimplementation (fixed-grid ring averages, manual cell loop), within
    0.1 dB."""
    env = scenario1.env
    c = env.sound_speed()
    sonar = scenario1.sonar
    alpha = absorption_coeff(sonar.frequency_khz, env)
    delta_y = range_resolution(c, sonar.bandwidth_hz)
    m = int(math.floor(sonar.bin_length_m / delta_y + 1e-9))
    cell = sonar.bin_length_m / m
    h = POSE.altitude_m

    theta = np.linspace(-math.pi, math.pi, 2**17 + 1)
    bottom = to_db(bottom_return_bins(env, sonar, POSE, FORWARD, s1_layout))
    for n in (21, 41, 101, 161):
        acc = 0.0
        for i in range(m):
            a = s1_layout.edge(n - 1) + i * cell
            b = a + cell
            if h >= b:
                continue
            r_a, r_b = ring_radius(a, h), ring_radius(b, h)
            area = math.pi * (r_b**2 - r_a**2)
            if area <= 0.0:
                continue
            rho = (r_a + r_b) / 2.0
            th = np.arctan2(rho * np.sin(theta), rho * np.cos(theta))
            ps = np.arctan2(h, rho)
            gain = beam_gain(th, np.full_like(th, ps), sonar, c)
            avg = float(np.trapezoid(gain * gain, theta)) / (2.0 * math.pi)
            s_b = bottom_coeff(env.bottom_type, grazing_between(a, b, h),
                               sonar.frequency_khz)
            rl = (-transmission_loss(b - cell / 2.0, alpha) + to_db(avg)
                  + s_b + 10.0 * math.log10(area))
            acc += to_linear(rl)
        assert bottom[n - 1] == pytest.approx(to_db(acc), abs=0.1)


def test_volume_gate_cutoffs(scenario1, monkeypatch):
    """Each plane's cutoff is the grazing angle of the cell where the plane
    lies short of the cell midpoint, and inf (no cut) where it lies at or
    beyond it, which cannot clip the shell. One cell per bin here, and the
    bottom at 5.125 m is exactly bin 21's midpoint."""
    seen = []
    shell_averages = _shell_averages

    def recording(theta_ha, theta_hd, *args):
        seen.append((theta_ha, theta_hd))
        return shell_averages(theta_ha, theta_hd, *args)

    monkeypatch.setattr("flsim.nullmodel._shell_averages", recording)
    layout = BinLayout(bin_length_m=0.25, num_bins=40)
    pose = SonarPose(altitude_m=5.125, depth_m=7.0)
    volume_return_bins(scenario1.env, make_sonar(bandwidth_hz=1000.0), pose,
                       FORWARD, layout)
    ((theta_ha, theta_hd),) = seen
    assert np.all(theta_ha[:21] == math.inf)
    assert theta_ha[21] == pytest.approx(math.asin(10.25 / 10.75), abs=1e-12)
    assert np.all(theta_hd[:28] == math.inf)
    assert theta_hd[28] == pytest.approx(math.asin(14.0 / 14.25), abs=1e-12)
    a, b = layout.edges[21:-1], layout.edges[22:]
    np.testing.assert_array_equal(theta_ha[21:], grazing_between(a, b, 5.125))


def test_volume_first_bin_has_small_finite_value(scenario1, s1_layout):
    """Close shells see no boundary, so the whole front hemisphere
    contributes and the level is set by the shell volume. The loss-free
    composition bounds it from above; the early bins rise with the growing
    shell volume while spreading loss is still clamped."""
    env = scenario1.env
    volume = to_db(volume_return_bins(env, scenario1.sonar, POSE, FORWARD,
                                      s1_layout))
    assert volume[0] > NO_RESPONSE
    v1 = 4.0 / 3.0 * math.pi * 0.25**3
    s_v = -90.0 + 7.0 * math.log10(450.0)
    assert volume[0] <= s_v + 10.0 * math.log10(v1) + 1e-6
    assert np.all(np.diff(volume[:4]) > 0.0)


def test_volume_bins_all_finite_for_level_beam(scenario1, s1_layout):
    volume = volume_return_bins(scenario1.env, scenario1.sonar, POSE, FORWARD,
                                s1_layout)
    assert np.all(volume > 0.0)


def test_volume_particle_density_shift(scenario1, s1_layout):
    """The particle density enters as a pure additive term."""
    base = to_db(volume_return_bins(scenario1.env, scenario1.sonar, POSE,
                                    FORWARD, s1_layout))
    from dataclasses import replace
    env_up = replace(scenario1.env, particle_density_db=-70.0)
    up = to_db(volume_return_bins(env_up, scenario1.sonar, POSE, FORWARD,
                                  s1_layout))
    np.testing.assert_allclose(up, base + 20.0, atol=1e-9)


def test_source_level_shifts_every_finite_bin(scenario1):
    scene = build_scene(scenario1)
    base = expected_null(scene, scenario1.sonar, POSE, FORWARD)
    sonar_up = make_sonar(source_level_db=12.0)
    up = expected_null(scene, sonar_up, POSE, FORWARD)
    for name in ("bottom", "surface", "volume", "total"):
        lo, hi = to_db(getattr(base, name)), to_db(getattr(up, name))
        finite = lo > NO_RESPONSE
        np.testing.assert_array_equal(finite, hi > NO_RESPONSE)
        np.testing.assert_allclose(hi[finite], lo[finite] + 12.0, atol=1e-9)


def test_total_is_power_sum_of_components():
    one = NullModelReturn(
        layout=BinLayout(bin_length_m=1.0, num_bins=1),
        bottom=to_linear(np.array([-50.0])),
        surface=to_linear(np.array([-50.0])),
        volume=np.zeros(1),
    )
    assert to_db(one.total)[0] == pytest.approx(-46.98970004336019, abs=1e-9)


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
@pytest.mark.parametrize("change,lacking", [
    ({}, None), ({"bottom": None}, "bottom"),
    ({"surface_enabled": False}, "surface"),
    ({"volume_enabled": False}, "volume")],
    ids=["all", "no_bottom", "no_surface", "no_volume"])
def test_null_record_is_linear_like_the_ping(request, name, change, lacking):
    """Every beam's record holds finite non-negative linear components, 0
    for a component the scene lacks; the total is their sum bit for bit and
    total_db is its dB."""
    scenario = request.getfixturevalue(name)
    scene = replace(build_scene(scenario), **change)
    for beam in scenario.sonar.beams:
        null = expected_null(scene, scenario.sonar, scenario.pose, beam)
        parts = [null.bottom, null.surface, null.volume]
        for part in parts:
            assert part.shape == (null.layout.num_bins,)
            assert np.all(np.isfinite(part) & (part >= 0.0)), beam.name
        if lacking:
            assert np.all(getattr(null, lacking) == 0.0), beam.name
        assert np.array_equal(null.total, parts[0] + parts[1] + parts[2])
        assert np.any(null.total > 0.0)
        np.testing.assert_array_equal(null.total_db, to_db(null.total))


def test_expected_null_power_sum_identity(scenario1, s1_layout):
    null = expected_null(build_scene(scenario1), scenario1.sonar, POSE,
                         FORWARD)
    total_db = to_db(null.total)
    for n in range(s1_layout.num_bins):
        want = power_sum_db([to_db(null.bottom[n]), to_db(null.surface[n]),
                             to_db(null.volume[n])])
        if want == NO_RESPONSE:
            assert total_db[n] == NO_RESPONSE
        else:
            assert abs(total_db[n] - want) < 1e-9


def test_expected_null_default_layout(scenario1):
    """The null fills the bins layout_for gives, the ones ping fills."""
    scene = replace(build_scene(scenario1), volume_enabled=False)
    null = expected_null(scene, scenario1.sonar, POSE, FORWARD)
    assert null.layout.num_bins == 161
    assert null.layout.end_m == pytest.approx(40.25)


@pytest.mark.parametrize("change", [
    {"bottom": None}, {"surface_enabled": False}, {"volume_enabled": False},
    {}], ids=["no_bottom", "no_surface", "no_volume", "all"])
def test_null_and_ping_share_the_scenes_components(scenario1, change):
    """The null computes a component exactly when the scene has it: a null
    component is all zero exactly when the ping's is."""
    scene = replace(build_scene(scenario1), **change)
    sonar = replace(scenario1.sonar, num_rays=2000)
    null = expected_null(scene, sonar, POSE, FORWARD)
    pr = ping_beam(scene, sonar, POSE, FORWARD, seed=1)
    for name in ("bottom", "surface", "volume"):
        empty = np.all(getattr(null, name) == 0.0)
        assert empty == np.all(getattr(pr, name) == 0.0), name
    assert sum(np.all(getattr(null, name) == 0.0)
               for name in ("bottom", "surface", "volume")) == len(change)


def test_the_transmitter_is_the_sonars(scenario2):
    """Pitching the one transmitter moves the down20 null, and putting it
    back level restores it bit for bit."""
    scene = build_scene(scenario2)
    down20 = next(b for b in scenario2.sonar.beams if b.name == "down20")
    level = scenario2.sonar
    assert level.transmitter.pitch_rad == 0.0
    pitched = replace(level, transmitter=BeamOrientation(
        pitch_rad=math.radians(20.0), name="transmitter"))
    restored = replace(pitched, transmitter=level.transmitter)
    base, moved, back = (expected_null(scene, sonar, scenario2.pose, down20)
                         for sonar in (level, pitched, restored))
    assert not np.array_equal(moved.total, base.total)
    for name in ("bottom", "surface", "volume", "total"):
        np.testing.assert_array_equal(getattr(back, name), getattr(base, name))


def test_a_flat_bottom_off_the_pose_is_rejected(scenario1):
    """The null puts the floor at depth + altitude, so a flat bottom
    anywhere else would be compared with another floor than the one
    traced."""
    scene = replace(build_scene(scenario1), bottom=FlatBottom(depth_m=30.0))
    with pytest.raises(ValueError, match=r"30\.0 m.*12\.0 m"):
        expected_null(scene, scenario1.sonar, POSE, FORWARD)


def test_refinement_halving_resolution_is_stable(scenario1):
    """Doubling the bandwidth halves the resolution cells; totals must move
    by less than 0.2 dB."""
    scene = build_scene(scenario1)
    base = expected_null(scene, scenario1.sonar, POSE, FORWARD)
    fine = expected_null(scene, make_sonar(bandwidth_hz=40000.0), POSE,
                         FORWARD)
    base_db, fine_db = to_db(base.total), to_db(fine.total)
    both = (base_db > NO_RESPONSE) & (fine_db > NO_RESPONSE)
    assert np.array_equal(base_db > NO_RESPONSE, fine_db > NO_RESPONSE)
    assert np.max(np.abs(fine_db[both] - base_db[both])) < 0.2
