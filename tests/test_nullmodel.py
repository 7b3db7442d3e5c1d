import math
import tempfile
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import flsim.nullmodel as nullmodel
from flsim import (
    BeamOrientation,
    BinLayout,
    FlatBottom,
    NO_RESPONSE,
    PingReturn,
    QuadratureError,
    SonarConfig,
    SonarPose,
    beam_gain,
    bottom_return_bins,
    build_scene,
    expected_null,
    ping,
    power_sum_db,
    surface_return_bins,
    transmission_loss,
    volume_return_bins,
    wavelength,
)
from flsim.acoustics import absorption_coeff, range_resolution
from flsim.db import to_db, to_linear
from flsim.geometry import (
    beam_orientations,
    grazing_between,
    in_plane_cosines,
    layout_for,
    ring_radius,
    rotate_to_sonar_frame,
)
from flsim.nullmodel import (
    TOLERANCE_DB,
    _doubled,
    _gauss_sums,
    _ring_averages,
    _shell_averages,
)
from flsim.runner import compute_null
from flsim.scatter import bottom_coeff, surface_coeff
from one_beam import ping_beam

# database=None stores no examples, but Hypothesis caches the constants it
# finds in local source files under its home directory; keep that cache out
# of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

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


# --- fixed rules and the doubling check ---------------------------------------


def _gauss_estimate(f, lo, hi):
    """estimate(n, rows) for _doubled: the n-node Gauss-Legendre integral of
    f over [lo, hi], one row."""
    half = (hi - lo) / 2.0
    return lambda n, rows: half * _gauss_sums(
        lambda k, t: f(lo + half * (t + 1.0)), rows.size, n)


def test_doubled_gauss_legendre_smooth_integral():
    # 16 and 32 nodes already agree to machine precision here
    (got,) = _doubled(_gauss_estimate(np.sin, 0.0, math.pi), np.zeros(1, int))
    assert got == pytest.approx(2.0, rel=1e-14)


def test_doubled_raises_on_divergent_integrand():
    """A non-integrable singularity keeps growing with every node doubling
    and must surface as a diagnostic, not a silent wrong answer."""
    f = _gauss_estimate(lambda x: (x - 1.0 / math.pi) ** -2, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        _doubled(f, np.zeros(1, int))


def test_doubled_keeps_a_row_until_its_estimates_agree(monkeypatch):
    """Row 0 agrees at once and keeps its 32-node estimate; row 1 doubles
    with n up to 128 nodes; jointly, row 0 waits for row 1; past MAX_NODES
    the error names the owner of the first row still changing."""
    calls = []

    def estimate(n, rows):
        calls.append((n, rows.tolist()))
        return np.where(rows == 0, 1.0, min(n, 128))

    owner = np.array([7, 9])
    np.testing.assert_array_equal(_doubled(estimate, owner), [1.0, 128.0])
    assert calls == [(16, [0, 1]), (32, [0, 1]), (64, [1]), (128, [1]),
                     (256, [1])]
    calls.clear()
    _doubled(estimate, owner, jointly=True)
    assert calls == [(16, [0, 1]), (32, [0, 1]), (64, [0, 1]),
                     (128, [0, 1]), (256, [0, 1])]
    monkeypatch.setattr("flsim.nullmodel.MAX_NODES", 64)
    with pytest.raises(QuadratureError) as exc:
        _doubled(estimate, owner, jointly=True)
    assert exc.value.row == 9


def test_quadrature_error_names_beam_component_and_bin(scenario1, monkeypatch):
    """With a node cap no integral can meet, the first cell to integrate
    fails: the bottom's first wet bin, 21 at 5 m altitude, the surface's, 29
    at 7 m depth, or the first volume bin."""
    monkeypatch.setattr("flsim.nullmodel.MAX_NODES", 16)
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
    gain = beam_gain(v / np.linalg.norm(v, axis=1, keepdims=True), sonar, c)
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
    is continuous, so the average does not hang on which side of the edge
    an arc end rounds to: one ulp of the radius moves it by rounding only
    (2.5e-3 relative with the cut gain on trapezoid nodes)."""
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
        rho * np.cos(theta), rho * np.sin(theta), z), axis=-1) / np.hypot(rho, z)
    gain = np.ones(nodes)
    for pitch, yaw in orientations:
        gain *= beam_gain(rotate_to_sonar_frame(v, pitch, yaw), sonar, c)
    return gain.mean()


def test_ring_averages_match_a_fine_midpoint_grid(scenario2, monkeypatch):
    """Every 25th wet ring of each scenario2 bottom and surface, and the
    rings of up20's bottom bins 22 and 25, against a 2^16-node midpoint
    reference: each ring within TOLERANCE_DB / 2, and each component's mean
    gap, a bias, within 0.001 dB. Gauss-Legendre, once two doublings agree,
    leaves far less; the trapezoid it replaced left up to 0.0031 dB."""
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


@st.composite
def orientation_lists(draw, yaw, pitch):
    """The orientation list one average integrates: receive and transmit
    (sometimes the same)."""
    rx = (draw(pitch), draw(yaw))
    tx = draw(st.one_of(st.just(rx), st.tuples(pitch, yaw)))
    return [rx, tx]


turns = st.floats(-math.pi, math.pi, exclude_min=True)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    rho=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0)), min_size=1,
                 max_size=4),
    z=st.one_of(st.floats(0.5, 15.0), st.floats(-15.0, -0.5)),
    orientations=orientation_lists(turns, turns),
)
def test_ring_arcs_match_front_hemisphere(rho, z, orientations):
    """A point of a ring lies in a returned row exactly when it has
    beam-frame x > 0 for every orientation, on 20 001 azimuths measured
    from the receive arc's centre, away from the row ends; and a row end
    strictly inside (-pi, pi) lies on a hemisphere edge (x = 0), so a row
    lies in the closed front hemispheres, where the null evaluates the
    uncut pattern."""
    owner, lo, hi, centre = nullmodel._ring_arcs(rho, z, orientations)
    assert np.all(np.diff(owner) >= 0)
    assert np.all((-math.pi <= lo) & (lo < hi) & (hi <= math.pi))
    theta = np.linspace(-math.pi, math.pi, 20_001)
    for k, r in enumerate(rho):
        world = theta + centre[k]
        v = np.stack([r * np.cos(world), r * np.sin(world),
                      np.full_like(world, z)], axis=-1)
        front = np.all([rotate_to_sonar_frame(v, pitch, yaw)[:, 0] > 0.0
                        for pitch, yaw in orientations], axis=0)
        inside = np.zeros(theta.size, bool)
        far = np.ones(theta.size, bool)
        for a, b in zip(lo[owner == k], hi[owner == k]):
            inside |= (theta >= a) & (theta <= b)
            far &= (np.abs(theta - a) > 1e-9) & (np.abs(theta - b) > 1e-9)
        np.testing.assert_array_equal(inside[far], front[far])
        for end in np.concatenate([lo[owner == k], hi[owner == k]]):
            if abs(end) < math.pi:
                w = end + centre[k]
                point = [r * math.cos(w), r * math.sin(w), z]
                x = [rotate_to_sonar_frame(point, pitch, yaw)[0]
                     for pitch, yaw in orientations]
                assert min(map(abs, x)) <= 1e-9 * (r + abs(z))


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
    for i in range(0, n_h + 1, 128):
        sl = slice(i, min(i + 128, n_h + 1))
        th = theta_h[sl]
        vx = np.cos(th)[:, None] * cos_v[None, :]
        vy = np.broadcast_to(np.sin(th)[:, None], (th.size, n_v + 1))
        vz = np.broadcast_to(sin_v[None, :], (th.size, n_v + 1))
        p_ang = np.arctan2(vz, vx)
        gain = beam_gain(in_plane_cosines(np.stack([vx, vy, vz], axis=-1)),
                         sonar, c)
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


def test_a_yawed_beams_volume_raises_at_once(scenario1):
    """The volume's profile needs every orientation at yaw 0, so a yawed
    beam's volume raises QuadratureError naming the beam and the volume,
    before any quadrature; its rings still compute."""
    scene = build_scene(scenario1)
    layout = layout_for(scenario1.env, scenario1.sonar)
    for degrees in (0.01, 10.0, 90.0):
        beam = BeamOrientation(yaw_rad=math.radians(degrees), name="yawed")
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="beam 'yawed': volume"):
            expected_null(scene, scenario1.sonar, POSE, beam)
        assert time.perf_counter() - start < 1.0
        for component in (bottom_return_bins, surface_return_bins):
            curve = component(scenario1.env, scenario1.sonar, POSE, beam, layout)
            assert np.all(np.isfinite(curve)) and np.any(curve > 0.0)


def test_shell_average_at_a_hemisphere_edge_is_decided_exactly(scenario2):
    """up20's psi band ends on its hemisphere edge: one ulp of the other
    cutoff moves the average by rounding only (3.7e-9 relative with the cut
    gain on trapezoid nodes)."""
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


def _strip_reference(theta_ha, theta_hd, orientations, sonar, c, n_h=96,
                     n_v=64, samples=512):
    """The gated shell average by a (theta_h, theta_v) tensor grid over the
    strip [-pi/2, pi/2] x [-pi, pi], independent of the null's bands: each
    orientation gates pointwise (front hemisphere, psi > -theta_ha + pitch,
    psi < theta_hd + pitch, psi in its beam frame). numpy's Gauss-Legendre
    in theta_h; in each column the gate's edges are bracketed and bisected,
    and each admitted piece, also split at the multiples of pi/2, gets
    Gauss-Legendre in theta_v, so no node straddles an edge. The brackets
    are `samples` steps of the world angle atan2(v_z, v_x), which squeezes
    a column's pieces towards theta_v = 0 and pi as cos(theta_h) falls."""

    def vectors(theta_h, theta_v):
        return np.stack(np.broadcast_arrays(
            np.cos(theta_h) * np.cos(theta_v), np.sin(theta_h),
            np.sin(theta_v)), axis=-1)

    def admitted(theta_h, theta_v):
        ok = True
        for pitch, yaw in orientations:
            vb = rotate_to_sonar_frame(vectors(theta_h, theta_v), pitch, yaw)
            psi = np.arctan2(vb[..., 2], vb[..., 0])
            ok = ok & (vb[..., 0] > 0.0) & (psi > -theta_ha + pitch) & (
                psi < theta_hd + pitch)
        return ok

    def gain(theta_h, theta_v):
        g = 1.0
        for pitch, yaw in orientations:
            vb = rotate_to_sonar_frame(vectors(theta_h, theta_v), pitch, yaw)
            g = g * beam_gain(in_plane_cosines(vb), sonar, c)
        return g

    th, wh = np.polynomial.legendre.leggauss(n_h)
    th, wh = th * math.pi / 2.0, wh * math.pi / 2.0
    world = np.linspace(-math.pi, math.pi, samples + 1)
    tv = np.arctan2(np.sin(world) * np.cos(th)[:, None], np.cos(world))
    tv[:, -1] = math.pi
    flags = admitted(th[:, None], tv)
    col, j = np.nonzero(flags[:, 1:] != flags[:, :-1])
    a, b, inside_a = tv[col, j], tv[col, j + 1], flags[col, j]
    for _ in range(60):
        mid = (a + b) / 2.0
        same = admitted(th[col], mid) == inside_a
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    edges = (a + b) / 2.0
    t, w = np.polynomial.legendre.leggauss(n_v)
    total = 0.0
    for i in range(n_h):
        cuts = np.sort(np.concatenate([edges[col == i],
                                       np.arange(-2, 3) * (math.pi / 2.0)]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo and admitted(th[i], (lo + hi) / 2.0):
                x = (lo + hi) / 2.0 + (hi - lo) / 2.0 * t
                total += wh[i] * (hi - lo) / 2.0 * np.dot(w, gain(th[i], x))
    return total / (2.0 * math.pi**2)


def _assert_shells_match_strip_reference(cutoffs, orientations, sonar, c, tol):
    """Shell averages of the (theta_ha, theta_hd) pairs against
    _strip_reference, within tol dB, responding in the same cells."""
    theta_ha, theta_hd = (np.array(side, dtype=float) for side in zip(*cutoffs))
    got = _shell_averages(theta_ha, theta_hd, orientations, sonar, c)
    for (ha, hd), value in zip(cutoffs, got):
        ref = _strip_reference(ha, hd, orientations, sonar, c)
        assert (value > 0.0) == (ref > 0.0), (ha, hd)
        if ref > 0.0:
            assert abs(to_db(value) - to_db(ref)) <= tol, (ha, hd)


def _volume_cutoffs(scenario, sonar, step):
    """The (theta_ha, theta_hd) of every step-th cell of scenario's volume,
    as volume_return_bins gates it."""
    layout = layout_for(scenario.env, sonar)
    a, b, _, _, _ = nullmodel._cells(scenario.env, sonar, layout)
    sides = [np.where(plane < (a + b) / 2.0, grazing_between(a, b, plane),
                      math.inf)[::step]
             for plane in (scenario.pose.altitude_m, scenario.pose.depth_m)]
    return list(zip(*sides))


def test_shell_averages_match_a_fine_tensor_grid(scenario2):
    """Every 37th cell of each scenario2 beam's volume, uncut, half cut and
    cut, against the tensor grid, within 1e-4 dB."""
    c = scenario2.env.sound_speed()
    cutoffs = _volume_cutoffs(scenario2, scenario2.sonar, 37)
    assert any(math.isinf(ha) for ha, _ in cutoffs)
    for beam in scenario2.sonar.beams:
        orientations = beam_orientations(scenario2.pose, beam,
                                         scenario2.sonar.transmitter)
        _assert_shells_match_strip_reference(cutoffs, orientations,
                                             scenario2.sonar, c, 1e-4)


def test_one_profiles_cells_converge_jointly(scenario2):
    """With a 20 mm vertical aperture, down20's volume cells 392 and 393 (bin
    66) agreed between 16 and 32 profile nodes while the profile was still
    unresolved, 1.4 dB below the tensor grid; the cells of one profile now
    leave together."""
    sonar = replace(scenario2.sonar, vertical_len_m=0.02)
    down20 = next(b for b in scenario2.sonar.beams if b.name == "down20")
    orientations = beam_orientations(scenario2.pose, down20, sonar.transmitter)
    cutoffs = _volume_cutoffs(scenario2, sonar, 1)[390:396]
    _assert_shells_match_strip_reference(
        cutoffs, orientations, sonar, scenario2.env.sound_speed(), 1e-4)


@pytest.mark.parametrize("degrees", [80.0, 90.0, 100.0])
def test_steep_pitch_shell_averages_match_a_fine_tensor_grid(scenario1,
                                                             degrees):
    """scenario1's beam pitched to 80, 90 and 100 degrees under its level
    transmitter, within 0.002 dB: the profile's domain, measured from the
    receive pitch, reaches psi = pi/2, where the psi bands of the adaptive
    trapezoid failed to converge (80 and 90) or gave way to a pointwise
    gate, 0.029 dB off (100). The grid and a 1e-5 dB doubling check agree
    to 1e-5 dB; at TOLERANCE_DB the profile is off by up to 7e-4 dB."""
    c = scenario1.env.sound_speed()
    beam = BeamOrientation(pitch_rad=math.radians(degrees), name="steep")
    orientations = beam_orientations(scenario1.pose, beam,
                                     scenario1.sonar.transmitter)
    cutoffs = [(math.inf, math.inf), (1.4, math.inf), (math.inf, 0.3),
               (1.4, 0.3), (0.5, 0.5)]
    _assert_shells_match_strip_reference(cutoffs, orientations,
                                         scenario1.sonar, c, 0.002)


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
            v = np.stack([rho * np.cos(theta), rho * np.sin(theta),
                          np.full_like(theta, h)], axis=-1)
            gain = beam_gain(v / math.hypot(rho, h), sonar, c)
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
    one = PingReturn(
        layout=BinLayout(bin_length_m=1.0, num_bins=1),
        bottom=to_linear(np.array([-50.0])),
        surface=to_linear(np.array([-50.0])),
        object_=np.zeros(1),
        volume=np.zeros(1),
        multipath=np.zeros(1),
        noise=np.zeros(1),
    )
    assert to_db(one.total)[0] == pytest.approx(-46.98970004336019, abs=1e-9)


@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
@pytest.mark.parametrize("change,lacking", [
    ({}, None), ({"bottom": None}, "bottom"),
    ({"surface_enabled": False}, "surface"),
    ({"volume_enabled": False}, "volume")],
    ids=["all", "no_bottom", "no_surface", "no_volume"])
def test_null_record_is_linear_like_the_ping(request, name, change, lacking):
    """Every beam's record is a one-beam PingReturn, with the layout and
    field shapes of a ping's row, holding finite non-negative linear
    components, 0 for a component the scene lacks and exactly 0 object_,
    multipath and noise; the total is the sum of the rest bit for bit and
    total_db is its dB."""
    scenario = request.getfixturevalue(name)
    scene = replace(build_scene(scenario), **change)
    row = ping(scene, replace(scenario.sonar, num_rays=100), scenario.pose,
               seed=0).row(0)
    bins = (row.layout.num_bins,)
    for beam in scenario.sonar.beams:
        null = expected_null(scene, scenario.sonar, scenario.pose, beam)
        assert isinstance(null, PingReturn), beam.name
        assert null.layout == row.layout
        for field in fields(PingReturn)[1:]:
            assert getattr(null, field.name).shape == bins, field.name
            assert getattr(row, field.name).shape == bins, field.name
        for absent in (null.object_, null.multipath, null.noise):
            assert np.all(absent == 0.0), beam.name
        parts = [null.bottom, null.surface, null.volume]
        for part in parts:
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


def test_an_environment_depth_off_the_pose_is_rejected(scenario1):
    """Sound speed is taken at env.depth_m and the geometry traced from
    pose.depth_m, so the ping and the null refuse a scene whose two depths
    differ, naming both."""
    env = replace(scenario1.env, depth_m=50.0)
    scene = replace(build_scene(scenario1), env=env)
    match = r"50\.0 m.*7\.0 m"
    with pytest.raises(ValueError, match=match):
        expected_null(scene, scenario1.sonar, POSE, FORWARD)
    with pytest.raises(ValueError, match=match):
        ping_beam(scene, scenario1.sonar, POSE, FORWARD, seed=1)


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


def test_scenario2_null_gain_evaluations(scenario2, monkeypatch):
    """Work tripwire, independent of host speed: compute_null(scenario2)
    evaluates 403 488 ring gains and 110 000 shell gains, 513 488 in all
    (nodes times distinct orientations). The adaptive trapezoid it replaced
    evaluated 144 662 and 3 177 620 in all."""
    evaluations = {"ring": 0, "shell": 0}
    gain_product = nullmodel._gain_product

    def counting(v, orientations, sonar, c, in_plane=False):
        kind = "shell" if in_plane else "ring"
        evaluations[kind] += v.size // 3 * len(dict.fromkeys(orientations))
        return gain_product(v, orientations, sonar, c, in_plane)

    monkeypatch.setattr(nullmodel, "_gain_product", counting)
    compute_null(scenario2)
    assert evaluations["ring"] + evaluations["shell"] <= 600_000
    assert evaluations == {"ring": 403_488, "shell": 110_000}
    print(f"compute_null(scenario2) evaluated {evaluations} gains")


@pytest.mark.parametrize("name,scale", [("scenario1", 1.0), ("scenario2", 1.0),
                                        ("scenario1", 10.0)])
def test_expected_null_memory_stays_bounded(request, name, scale):
    """Every rule is evaluated BLOCK_NODES nodes at a time, so the traced
    peak of one beam's null stays under 3 MB, also with both apertures ten
    times longer, where the rules reach 512 (rings) and 1024 (volume) nodes;
    evaluated in one block, that volume peaked at 138 MB. One untraced call
    first loads numpy.fft and numpy.polynomial (0.9 MB of modules, once per
    process) and caches the Gauss-Legendre nodes."""
    scenario = request.getfixturevalue(name)
    sonar = replace(scenario.sonar,
                    horizontal_len_m=scenario.sonar.horizontal_len_m * scale,
                    vertical_len_m=scenario.sonar.vertical_len_m * scale)
    scene = build_scene(scenario)
    expected_null(scene, sonar, scenario.pose, sonar.beams[0])
    for beam in sonar.beams:
        tracemalloc.start()
        try:
            expected_null(scene, sonar, scenario.pose, beam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000, (beam.name, peak)


def test_scenario1_null_curves_take_under_1_5_s(scenario1):
    start = time.perf_counter()
    compute_null(scenario1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5
    print(f"compute_null(scenario1) took {elapsed * 1000.0:.0f} ms")
