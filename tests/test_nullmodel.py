import math

import numpy as np
import pytest

from flsim import (
    BeamOrientation,
    BinLayout,
    NO_RESPONSE,
    NullModelReturn,
    QuadratureError,
    SonarConfig,
    SonarPose,
    avg_ring_bp_loss,
    avg_sphere_bp_loss,
    beam_gain,
    bottom_return_bins,
    expected_null,
    power_sum_db,
    surface_return_bins,
    transmission_loss,
    volume_return_bins,
    wavelength,
)
from flsim.acoustics import absorption_coeff, range_resolution
from flsim.db import to_db, to_linear
from flsim.geometry import grazing_between, ring_radius
from flsim.nullmodel import _adaptive_trapezoid, ring_bp_average, shell_bp_average
from flsim.scatter import bottom_coeff, reverb_level, surface_coeff

POSE = SonarPose(altitude_m=5.0, depth_m=7.0)
FORWARD = BeamOrientation(name="forward")


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
    got = _adaptive_trapezoid(np.sin, 0.0, math.pi)
    assert got == pytest.approx(2.0, abs=1e-3)


def test_adaptive_trapezoid_raises_on_divergent_integrand():
    """A non-integrable singularity keeps growing with every panel doubling
    and must surface as a diagnostic, not a silent wrong answer."""
    def f(x):
        return 1.0 / np.abs(x - 1.0 / math.pi)

    with pytest.raises(QuadratureError):
        _adaptive_trapezoid(f, 0.0, 1.0)


def test_quadrature_error_names_beam_component_and_bin(scenario1, monkeypatch):
    """With a panel cap no integral can meet, the first cell to integrate
    fails: the bottom's first wet bin, 21 at 5 m altitude."""
    monkeypatch.setattr("flsim.nullmodel.MAX_PANELS", 16)
    with pytest.raises(QuadratureError) as exc:
        expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD)
    message = str(exc.value)
    assert "'forward'" in message
    assert "bottom bin 21" in message
    with pytest.raises(QuadratureError) as exc:
        expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                      include_bottom=False, include_surface=False)
    assert "'forward'" in str(exc.value)
    assert "volume bin 1," in str(exc.value)


# --- ring averages ----------------------------------------------------------------


def test_ring_directly_below_is_no_response(scenario1):
    """A degenerate ring at the nadir lies on the open hemisphere boundary
    of a level beam."""
    c = scenario1.env.sound_speed()
    got = ring_bp_average(0.0, POSE.altitude_m, POSE, FORWARD,
                          scenario1.sonar, c)
    assert got == NO_RESPONSE


def test_ring_average_omni_limit(scenario1):
    """With vanishing apertures the ring average reduces to the visible
    fraction of the ring: half of it, a 3.01 dB reduction."""
    c = scenario1.env.sound_speed()
    sonar = omni_sonar(c)
    got = ring_bp_average(10.0, 5.0, POSE, FORWARD, sonar, c)
    assert got == pytest.approx(10.0 * math.log10(0.5), abs=0.02)
    # the separate-average mode agrees for a constant pattern
    indep = ring_bp_average(10.0, 5.0, POSE, FORWARD, sonar, c,
                            mode="independent")
    assert indep == pytest.approx(10.0 * math.log10(0.5), abs=0.02)


def test_ring_average_printed_mode_omni_bias(scenario1):
    """The dB-domain variant normalizes the arc by pi, so a constant
    pattern averages to 0 dB instead of the visible-fraction value."""
    c = scenario1.env.sound_speed()
    sonar = omni_sonar(c)
    got = ring_bp_average(10.0, 5.0, POSE, FORWARD, sonar, c, mode="printed")
    assert got == pytest.approx(0.0, abs=0.01)


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

    got = avg_ring_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c)
    assert got == pytest.approx(ref, abs=0.05)


def test_ring_average_transmit_receive_coupling(scenario1, s1_layout):
    """The bin-41 ring lies about 30 degrees below horizontal, so against a
    level transmitter a down-pitched receive beam overlaps it more and an
    up-pitched one less."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    same = avg_ring_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c)
    # an explicit identical transmitter changes nothing
    explicit = avg_ring_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c,
                                transmit_beam=FORWARD)
    assert explicit == same
    down = avg_ring_bp_loss(
        41, s1_layout, POSE, BeamOrientation(pitch_rad=math.radians(20.0)),
        sonar, c, transmit_beam=FORWARD)
    up = avg_ring_bp_loss(
        41, s1_layout, POSE, BeamOrientation(pitch_rad=math.radians(-20.0)),
        sonar, c, transmit_beam=FORWARD)
    assert up < same < down


def test_ring_average_independent_understates(scenario1, s1_layout):
    """Averaging the two patterns separately must not exceed the coupled
    product average (Cauchy-Schwarz)."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    coupled = avg_ring_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c)
    single = avg_ring_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c,
                              mode="independent")
    assert 2.0 * single <= coupled + 1e-9


def test_avg_ring_bp_loss_dry_bin_rejected(scenario1, s1_layout):
    c = scenario1.env.sound_speed()
    with pytest.raises(ValueError):
        avg_ring_bp_loss(10, s1_layout, POSE, FORWARD, scenario1.sonar, c)


def test_ring_average_rejects_unknown_mode(scenario1):
    c = scenario1.env.sound_speed()
    with pytest.raises(ValueError):
        ring_bp_average(10.0, 5.0, POSE, FORWARD, scenario1.sonar, c,
                        mode="both")


# --- shell averages -----------------------------------------------------------------


def test_sphere_average_empty_gate(scenario1, s1_layout):
    """Explicit zero cutoffs leave no admitted band."""
    c = scenario1.env.sound_speed()
    got = avg_sphere_bp_loss(5, s1_layout, POSE, FORWARD, scenario1.sonar, c,
                             cutoffs=(0.0, 0.0))
    assert got == NO_RESPONSE


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
    got = shell_bp_average(a, b, POSE, FORWARD, sonar, c,
                           cutoffs=(theta_ha, theta_hd))
    assert got == pytest.approx(ref, abs=0.05)


def test_sphere_average_open_water_reference(scenario1, s1_layout):
    """With both cutoffs wide open only the front-hemisphere gate remains."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    ref = _sphere_reference(sonar, c, math.pi / 2, math.pi / 2,
                            n_h=2048, n_v=4096)
    got = avg_sphere_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c,
                             cutoffs=(math.pi / 2, math.pi / 2))
    assert got == pytest.approx(ref, abs=0.05)


def test_sphere_average_independent_understates(scenario1, s1_layout):
    """Separate averaging of the two identical patterns cannot exceed the
    coupled product average."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    coupled = avg_sphere_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c)
    single = avg_sphere_bp_loss(41, s1_layout, POSE, FORWARD, sonar, c,
                                mode="independent")
    assert 2.0 * single <= coupled + 1e-9


def test_sphere_average_yawed_fallback_matches_fast_path(scenario1, s1_layout):
    """A vanishing yaw forces the pointwise-gated fallback, which must agree
    with the aligned-gate integration."""
    c = scenario1.env.sound_speed()
    sonar = scenario1.sonar
    a, b = s1_layout.edge(80), s1_layout.edge(81)
    fast = shell_bp_average(a, b, POSE, FORWARD, sonar, c)
    nudged = shell_bp_average(
        a, b, POSE, BeamOrientation(yaw_rad=1e-12), sonar, c,
        transmit_beam=FORWARD)
    assert nudged == pytest.approx(fast, abs=0.1)


# --- per-bin pipelines ----------------------------------------------------------------


def test_bottom_bins_dry_region_no_response(scenario1, s1_layout):
    bottom = bottom_return_bins(scenario1.env, scenario1.sonar, POSE, FORWARD,
                                s1_layout, transmit_beam=FORWARD)
    # slant ranges at or below the altitude never reach the floor
    assert np.all(bottom[:20] == NO_RESPONSE)
    assert bottom[20] > NO_RESPONSE


def test_bottom_onset_bin_follows_altitude(scenario1, s1_layout):
    pose = SonarPose(altitude_m=5.1, depth_m=7.0)
    bottom = bottom_return_bins(scenario1.env, scenario1.sonar, pose, FORWARD,
                                s1_layout, transmit_beam=FORWARD)
    first = int(np.argmax(bottom > NO_RESPONSE)) + 1
    assert first == 21  # the bin containing 5.1 m


def test_surface_onset_bin_follows_depth(scenario1, s1_layout):
    pose = SonarPose(altitude_m=5.0, depth_m=7.1)
    surface = surface_return_bins(scenario1.env, scenario1.sonar, pose,
                                  FORWARD, s1_layout, transmit_beam=FORWARD)
    first = int(np.argmax(surface > NO_RESPONSE)) + 1
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
    bottom = bottom_return_bins(env, sonar, pose, FORWARD, layout,
                                transmit_beam=FORWARD)
    surface = surface_return_bins(env, sonar, pose, FORWARD, layout,
                                  transmit_beam=FORWARD)
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
    bottom = bottom_return_bins(env, sonar, POSE, FORWARD, layout,
                                transmit_beam=FORWARD)
    for n in (21, 41, 81):
        a, b = layout.edge(n - 1), layout.edge(n)
        r_a, r_b = ring_radius(a, 5.0), ring_radius(b, 5.0)
        area = math.pi * (r_b**2 - r_a**2)
        avg = ring_bp_average((r_a + r_b) / 2.0, 5.0, POSE, FORWARD, sonar, c)
        want = reverb_level(
            0.0,
            transmission_loss(b - layout.bin_length_m / 2.0, alpha),
            avg, 0.0,
            bottom_coeff(env.bottom_type, grazing_between(a, b, 5.0), 450.0),
            area,
        )
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
    bottom = bottom_return_bins(env, sonar, POSE, FORWARD, s1_layout,
                                transmit_beam=FORWARD)
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


def test_volume_first_bin_has_small_finite_value(scenario1, s1_layout):
    """Close shells see no boundary, so the whole front hemisphere
    contributes and the level is set by the shell volume. The loss-free
    composition bounds it from above; the early bins rise with the growing
    shell volume while spreading loss is still clamped."""
    env = scenario1.env
    volume = volume_return_bins(env, scenario1.sonar, POSE, FORWARD,
                                s1_layout, transmit_beam=FORWARD)
    assert volume[0] > NO_RESPONSE
    v1 = 4.0 / 3.0 * math.pi * 0.25**3
    s_v = -90.0 + 7.0 * math.log10(450.0)
    assert volume[0] <= s_v + 10.0 * math.log10(v1) + 1e-6
    assert np.all(np.diff(volume[:4]) > 0.0)


def test_volume_bins_all_finite_for_level_beam(scenario1, s1_layout):
    volume = volume_return_bins(scenario1.env, scenario1.sonar, POSE, FORWARD,
                                s1_layout, transmit_beam=FORWARD)
    assert np.all(volume > NO_RESPONSE)


def test_volume_particle_density_shift(scenario1, s1_layout):
    """The particle density enters as a pure additive term."""
    base = volume_return_bins(scenario1.env, scenario1.sonar, POSE, FORWARD,
                              s1_layout, transmit_beam=FORWARD)
    from dataclasses import replace
    env_up = replace(scenario1.env, particle_density_db=-70.0)
    up = volume_return_bins(env_up, scenario1.sonar, POSE, FORWARD,
                            s1_layout, transmit_beam=FORWARD)
    np.testing.assert_allclose(up, base + 20.0, atol=1e-9)


def test_source_level_shifts_every_finite_bin(scenario1, s1_layout):
    base = expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                         s1_layout, transmit_beam=FORWARD)
    sonar_up = make_sonar(source_level_db=12.0)
    up = expected_null(scenario1.env, sonar_up, POSE, FORWARD, s1_layout,
                       transmit_beam=FORWARD)
    for lo, hi in ((base.bottom_db, up.bottom_db),
                   (base.surface_db, up.surface_db),
                   (base.volume_db, up.volume_db),
                   (base.total_db, up.total_db)):
        finite = lo > NO_RESPONSE
        np.testing.assert_array_equal(finite, hi > NO_RESPONSE)
        np.testing.assert_allclose(hi[finite], lo[finite] + 12.0, atol=1e-9)


def test_total_is_power_sum_of_components():
    one = NullModelReturn(
        layout=BinLayout(bin_length_m=1.0, num_bins=1),
        pose=POSE,
        beam=FORWARD,
        bottom_db=np.array([-50.0]),
        surface_db=np.array([-50.0]),
        volume_db=np.array([NO_RESPONSE]),
    )
    assert one.total_db[0] == pytest.approx(-46.98970004336019, abs=1e-9)


def test_expected_null_power_sum_identity(scenario1, s1_layout):
    null = expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                         s1_layout, transmit_beam=FORWARD)
    for n in range(s1_layout.num_bins):
        want = power_sum_db([null.bottom_db[n], null.surface_db[n],
                             null.volume_db[n]])
        if want == NO_RESPONSE:
            assert null.total_db[n] == NO_RESPONSE
        else:
            assert abs(null.total_db[n] - want) < 1e-9


def test_expected_null_default_layout(scenario1):
    null = expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                         transmit_beam=FORWARD, include_volume=False)
    assert null.layout.num_bins == 161
    assert null.layout.end_m == pytest.approx(40.25)


def test_expected_null_component_switches(scenario1, s1_layout):
    null = expected_null(scenario1.env, scenario1.sonar, POSE, FORWARD,
                         s1_layout, transmit_beam=FORWARD,
                         include_surface=False, include_volume=False)
    assert np.all(null.surface_db == NO_RESPONSE)
    assert np.all(null.volume_db == NO_RESPONSE)
    assert np.any(null.bottom_db > NO_RESPONSE)


def test_refinement_halving_resolution_is_stable(scenario1, s1_layout):
    """Doubling the bandwidth halves the resolution cells; totals must move
    by less than 0.2 dB."""
    env = scenario1.env
    base = expected_null(env, scenario1.sonar, POSE, FORWARD, s1_layout,
                         transmit_beam=FORWARD)
    fine = expected_null(env, make_sonar(bandwidth_hz=40000.0), POSE, FORWARD,
                         s1_layout, transmit_beam=FORWARD)
    both = (base.total_db > NO_RESPONSE) & (fine.total_db > NO_RESPONSE)
    assert np.array_equal(base.total_db > NO_RESPONSE,
                          fine.total_db > NO_RESPONSE)
    assert np.max(np.abs(fine.total_db[both] - base.total_db[both])) < 0.2
