import math

import numpy as np
import pytest

from flsim import (
    BinLayout,
    SonarPose,
    bin_index,
    cutoff_angles,
    ring_area,
    ring_grazing,
    shell_volume,
)
from flsim.geometry import (
    beam_angles_surface,
    beam_angles_volume,
    cutoff_angle,
    grazing_between,
    ring_areas,
    ring_radius,
    rotate_to_sonar_frame,
    rotation_matrix_pitch,
    rotation_matrix_yaw,
    shell_volume_between,
    spherical_cap_volume,
)


# --- bin layout ----------------------------------------------------------------


def test_from_range_drops_trailing_partial_bin():
    layout = BinLayout.from_range(40.273, 0.25)
    assert layout.num_bins == 161
    assert layout.end_m == pytest.approx(40.25, abs=1e-12)


def test_from_range_keeps_exact_multiple():
    layout = BinLayout.from_range(10.0, 0.25)
    assert layout.num_bins == 40


def test_from_range_rejects_too_small():
    with pytest.raises(ValueError):
        BinLayout.from_range(0.1, 0.25)


def test_bin_index_half_open_intervals():
    layout = BinLayout(bin_length_m=0.25, num_bins=161)
    assert bin_index(0.1, layout) == 1
    assert bin_index(0.25, layout) == 1
    assert bin_index(0.2500000001, layout) == 1  # edge up to fp rounding
    assert bin_index(0.26, layout) == 2
    assert bin_index(40.25, layout) == 161


def test_bin_index_array():
    layout = BinLayout(bin_length_m=1.0, num_bins=50)
    idx = bin_index(np.array([0.5, 1.0, 1.5, 17.0]), layout)
    np.testing.assert_array_equal(idx, [1, 1, 2, 17])


def test_bin_center():
    layout = BinLayout(bin_length_m=0.25, num_bins=161)
    assert layout.center(1) == pytest.approx(0.125)
    assert layout.center(41) == pytest.approx(10.125)
    np.testing.assert_allclose(layout.centers[:3], [0.125, 0.375, 0.625])


# --- rings ----------------------------------------------------------------------


def test_ring_radius_known_value():
    assert ring_radius(13.0, 5.0) == 12.0
    assert ring_radius(5.0, 5.0) == 0.0
    assert ring_radius(3.0, 5.0) == 0.0


def test_ring_area_first_wet_bins():
    # frozen: pi * (r_n^2 - r_{n-1}^2) at h = 5 with 1 m bins
    layout = BinLayout(bin_length_m=1.0, num_bins=50)
    assert ring_area(6, layout, 5.0) == pytest.approx(
        34.55751918948772, abs=1e-9)
    assert ring_area(7, layout, 5.0) == pytest.approx(
        40.840704496667314, abs=1e-9)
    assert ring_area(3, layout, 5.0) == 0.0


def test_ring_areas_telescope_exactly():
    """Partial sums of ring areas must telescope to pi*r_n^2 with no
    accumulation error."""
    layout = BinLayout(bin_length_m=0.25, num_bins=161)
    rng = np.random.default_rng(13)
    for h in rng.uniform(0.5, 20.0, size=10):
        areas = ring_areas(layout, h)
        partial = np.cumsum(areas)
        r_n = ring_radius(layout.edges[1:], h)
        np.testing.assert_allclose(partial, math.pi * r_n**2,
                                   rtol=1e-12, atol=1e-9)


def test_grazing_between_known_value():
    assert grazing_between(5.0, 6.0, 5.0) == pytest.approx(
        1.141096660643472, abs=1e-12)
    assert grazing_between(5.0, 6.0, 6.0) == 0.0  # plane out of reach
    assert grazing_between(0.0, 0.5, 0.4) == math.pi / 2  # clamped


def test_ring_grazing_decreases_with_range():
    layout = BinLayout(bin_length_m=0.25, num_bins=161)
    vals = [ring_grazing(n, layout, 5.0) for n in range(21, 161)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= math.pi / 2 for v in vals)


# --- rotations and angle conventions ----------------------------------------------


def test_rotation_matrices_are_orthonormal():
    rng = np.random.default_rng(17)
    for ang in rng.uniform(-math.pi, math.pi, size=8):
        for mat in (rotation_matrix_pitch(ang), rotation_matrix_yaw(ang)):
            np.testing.assert_allclose(mat @ mat.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-12)


def test_rotate_to_sonar_frame_aligns_boresight():
    """A vector along the pitched boresight maps to +x in the beam frame."""
    pitch = 0.35
    v = np.array([math.cos(pitch), 0.0, math.sin(pitch)])
    vb = rotate_to_sonar_frame(v, pitch)
    np.testing.assert_allclose(vb, [1.0, 0.0, 0.0], atol=1e-12)


def test_rotate_to_sonar_frame_with_yaw():
    pitch, yaw = 0.2, 0.6
    v = np.array([
        math.cos(pitch) * math.cos(yaw),
        math.cos(pitch) * math.sin(yaw),
        math.sin(pitch),
    ])
    vb = rotate_to_sonar_frame(v, pitch, yaw)
    np.testing.assert_allclose(vb, [1.0, 0.0, 0.0], atol=1e-12)


def test_rotate_preserves_norm_on_seeded_grid():
    rng = np.random.default_rng(19)
    v = rng.standard_normal((50, 3))
    out = rotate_to_sonar_frame(v, 0.4, -0.3)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(v, axis=1), rtol=1e-12)


def test_beam_angle_conventions():
    # boresight
    theta, psi = beam_angles_surface(np.array([1.0, 0.0, 0.0]))
    assert theta == 0.0 and psi == 0.0
    # straight down: vertical angle +pi/2 in both conventions
    _, psi = beam_angles_surface(np.array([0.0, 0.0, 1.0]))
    assert psi == pytest.approx(math.pi / 2)
    _, psi_v = beam_angles_volume(np.array([0.0, 0.0, 1.0]))
    assert psi_v == pytest.approx(math.pi / 2)
    # abeam to port: horizontal angle -pi/2
    theta, _ = beam_angles_surface(np.array([0.0, -1.0, 0.0]))
    assert theta == pytest.approx(-math.pi / 2)


def test_beam_angle_conventions_differ_off_axis():
    """The surface convention measures elevation from the horizontal plane,
    the volume one within the vertical slice; they agree on the axes and
    differ in between."""
    v = np.array([1.0, 1.0, 1.0])
    _, psi_s = beam_angles_surface(v)
    _, psi_v = beam_angles_volume(v)
    assert psi_s == pytest.approx(math.atan2(1.0, math.sqrt(2.0)))
    assert psi_v == pytest.approx(math.atan2(1.0, 1.0))


# --- shell volumes ------------------------------------------------------------------


def test_spherical_cap_volume_hemisphere():
    # cap of zero height has no volume; a cap at the center is a hemisphere
    assert spherical_cap_volume(2.0, 2.0) == 0.0
    assert spherical_cap_volume(2.0, 0.0) == pytest.approx(
        2.0 / 3.0 * math.pi * 8.0, rel=1e-12)


def test_shell_volume_between_full_shell():
    # planes beyond the shell leave the full hollow sphere
    v = shell_volume_between(2.0, 3.0, 10.0, 10.0)
    assert v == pytest.approx(4.0 / 3.0 * math.pi * (27.0 - 8.0), rel=1e-12)


def test_shell_volume_monte_carlo_oracle():
    """Exact cap arithmetic against a uniform-sample volume estimate of the
    water slab cut of the shell, to 1 percent."""
    rng = np.random.default_rng(23)
    d_inner, d_outer, h, h_d = 5.0, 6.5, 3.0, 4.0
    n = 2_000_000
    pts = rng.uniform(-d_outer, d_outer, size=(n, 3))
    r = np.linalg.norm(pts, axis=1)
    inside = (r > d_inner) & (r <= d_outer) & (pts[:, 2] < h) & (pts[:, 2] > -h_d)
    est = inside.mean() * (2.0 * d_outer) ** 3
    exact = shell_volume_between(d_inner, d_outer, h, h_d)
    assert exact == pytest.approx(est, rel=0.01)


def test_shell_volume_layout_wrapper():
    layout = BinLayout(bin_length_m=1.0, num_bins=40)
    got = shell_volume(7, layout, 5.0, 7.0)
    assert got == pytest.approx(shell_volume_between(6.0, 7.0, 5.0, 7.0),
                                rel=1e-12)


# --- cutoff angles --------------------------------------------------------------------


def test_cutoff_angle_cases():
    assert cutoff_angle(19.5, 20.5, 25.0) == 0.0  # plane beyond the shell
    assert cutoff_angle(5.0, 6.0, 5.0) == pytest.approx(
        math.asin(10.0 / 11.0), abs=1e-12)
    assert cutoff_angle(0.0, 1.0, 0.3) == pytest.approx(math.asin(0.6))


def test_cutoff_angles_pair():
    layout = BinLayout(bin_length_m=0.25, num_bins=161)
    ha, hd = cutoff_angles(81, layout, 5.0, 7.0)
    assert ha == pytest.approx(math.asin(10.0 / 40.25), abs=1e-12)
    assert hd == pytest.approx(math.asin(14.0 / 40.25), abs=1e-12)


# --- pose ------------------------------------------------------------------------------


def test_sonar_pose_validation():
    SonarPose(altitude_m=5.0, depth_m=7.0)
    with pytest.raises(ValueError):
        SonarPose(altitude_m=0.0, depth_m=7.0)
    with pytest.raises(ValueError):
        SonarPose(altitude_m=5.0, depth_m=-1.0)
