"""Range-bin geometry for the analytic reverberation model.

Ensonified ring radii, areas and grazing angles for a locally flat bottom
(mirrored for the surface), hollow-shell volumes with the bottom and surface
cuts removed, cutoff angles, and the frame rotation and beam-angle
conventions shared with the expected-return integrals.

Coordinate convention: x forward along the vehicle, y to starboard, z down.
A vector from the sonar to a point on the bottom therefore has positive z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustics import EnvironmentParams, SonarConfig, max_range


@dataclass(frozen=True)
class BinLayout:
    """Uniform partition of range into bins of bin_length_m.

    Bin n (1-based) covers the half-open interval (d_{n-1}, d_n] with
    d_n = n * bin_length_m.
    """

    bin_length_m: float
    num_bins: int

    def __post_init__(self):
        if self.bin_length_m <= 0:
            raise ValueError(f"bin_length_m must be > 0, got {self.bin_length_m}")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")

    @classmethod
    def from_range(cls, max_range_m: float, bin_length_m: float) -> "BinLayout":
        """Layout of whole bins within max_range_m (a trailing partial bin
        is dropped so every bin is fully observable)."""
        if max_range_m <= 0:
            raise ValueError(f"max_range_m must be > 0, got {max_range_m}")
        num = int(math.floor(max_range_m / bin_length_m + 1e-9))
        if num < 1:
            raise ValueError(
                f"max_range_m {max_range_m} is smaller than one bin {bin_length_m}"
            )
        return cls(bin_length_m=bin_length_m, num_bins=num)

    @property
    def edges(self) -> np.ndarray:
        """Edges d_0 = 0 .. d_N, length num_bins + 1."""
        return np.arange(self.num_bins + 1) * self.bin_length_m

    @property
    def end_m(self) -> float:
        """Distance to the end of the last bin."""
        return self.num_bins * self.bin_length_m

    def edge(self, n: int) -> float:
        """Distance d_n to the end of bin n (d_0 = 0)."""
        return n * self.bin_length_m

    def center(self, n) -> float:
        """Distance d_n - d_b/2 to the center of bin n."""
        return np.asarray(n) * self.bin_length_m - self.bin_length_m / 2.0

    @property
    def centers(self) -> np.ndarray:
        return self.center(np.arange(1, self.num_bins + 1))


def layout_for(env: EnvironmentParams, sonar: SonarConfig) -> BinLayout:
    """Bin layout of one ping: whole bins of sonar.bin_length_m within the
    maximum unambiguous range at the environment's sound speed."""
    return BinLayout.from_range(
        max_range(env.sound_speed(), sonar.ping_rate_hz), sonar.bin_length_m
    )


def bin_index(distance_m, layout: BinLayout):
    """1-based bin index ceil(d / d_b) for half-open bins (d_{n-1}, d_n].

    A small tolerance keeps distances that are exact bin edges (up to float
    rounding of d / d_b) in the lower bin. Accepts scalars or arrays.
    """
    idx = np.ceil(np.asarray(distance_m) / layout.bin_length_m - 1e-9).astype(int)
    if idx.ndim == 0:
        return int(idx)
    return idx


def ring_radius(d_n, h: float):
    """Projected radius sqrt(d_n^2 - h^2) of the ring at slant range d_n,
    or 0 where the slant range does not reach the plane at offset h."""
    d = np.asarray(d_n, dtype=float)
    wet = h < d
    r = np.sqrt(np.maximum(d * d - h * h, 0.0))
    out = np.where(wet, r, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def ring_area(n: int, layout: BinLayout, h: float) -> float:
    """Ensonified bottom area of bin n: the annulus between consecutive ring
    radii. Partial sums over bins telescope to pi * r_n^2 exactly."""
    r_outer = ring_radius(layout.edge(n), h)
    r_inner = ring_radius(layout.edge(n - 1), h)
    return math.pi * (r_outer * r_outer - r_inner * r_inner)


def ring_areas(layout: BinLayout, h: float) -> np.ndarray:
    """Per-bin ensonified areas for all bins of the layout."""
    r = ring_radius(layout.edges, h)
    return math.pi * np.diff(r * r)


def grazing_between(d_inner: float, d_outer: float, h: float) -> float:
    """Grazing angle to the center of the ring between slant ranges
    (d_inner, d_outer]: asin(2|h| / (d_inner + d_outer)), clamped to pi/2
    for the first wet ring where the midpoint is closer than |h|;
    0 when the ring does not exist (|h| >= d_outer)."""
    h = abs(h)
    if h >= d_outer:
        return 0.0
    arg = 2.0 * h / (d_inner + d_outer)
    return math.asin(min(arg, 1.0))


def ring_grazing(n: int, layout: BinLayout, h: float) -> float:
    """Grazing angle to the center of the ring for bin n."""
    return grazing_between(layout.edge(n - 1), layout.edge(n), h)


def rotation_matrix_pitch(pitch_rad: float) -> np.ndarray:
    """World-to-beam rotation for a beam pitched downward by pitch_rad."""
    c, s = math.cos(pitch_rad), math.sin(pitch_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_matrix_yaw(yaw_rad: float) -> np.ndarray:
    """Rotation by yaw_rad about the down axis."""
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotate_to_sonar_frame(v, pitch_rad: float, yaw_rad: float = 0.0):
    """Rotate world vectors into the frame of a beam pointed with the given
    pitch (downward positive) and yaw (starboard positive).

    Accepts a single 3-vector or an (..., 3) array.
    """
    m = rotation_matrix_pitch(pitch_rad)
    if yaw_rad != 0.0:
        m = m @ rotation_matrix_yaw(-yaw_rad)
    return np.asarray(v, dtype=float) @ m.T


def beam_angles_surface(v):
    """Beam-pattern angles (theta, psi) of direction vectors, with psi
    measured from the horizontal plane of the beam frame:
    theta = atan2(v_y, v_x), psi = atan2(v_z, hypot(v_x, v_y)).

    Accepts a 3-vector or an (..., 3) array; returns a pair of arrays.
    """
    v = np.asarray(v, dtype=float)
    theta = np.arctan2(v[..., 1], v[..., 0])
    psi = np.arctan2(v[..., 2], np.hypot(v[..., 0], v[..., 1]))
    return theta, psi


def beam_angles_volume(v):
    """Beam-pattern angles (theta, psi) under the in-plane convention used
    by the volume integrals: theta = atan2(v_y, v_x), psi = atan2(v_z, v_x).

    The two conventions agree when v_y = 0 and are kept as separate
    operations because each integral is defined in terms of its own.
    """
    v = np.asarray(v, dtype=float)
    theta = np.arctan2(v[..., 1], v[..., 0])
    psi = np.arctan2(v[..., 2], v[..., 0])
    return theta, psi


def spherical_cap_volume(radius: float, plane_distance: float) -> float:
    """Volume of the cap of a sphere cut off by a plane at plane_distance
    from the center; 0 when the plane does not intersect the sphere."""
    if plane_distance >= radius:
        return 0.0
    c = radius - plane_distance
    return math.pi * c * c * (3.0 * radius - c) / 3.0


def shell_volume_between(d_inner: float, d_outer: float, h: float, h_d: float) -> float:
    """Water volume of the hollow shell between slant ranges d_inner and
    d_outer, with the regions beyond the bottom plane (offset h below) and
    the surface plane (offset h_d above) removed.

    The cut on each side is the difference of exact spherical caps; the
    branch structure (no cut / outer-sphere-only cut / both-spheres cut)
    follows from which sphere the plane reaches.
    """
    if d_outer <= d_inner:
        raise ValueError(
            f"d_outer must exceed d_inner, got ({d_inner}, {d_outer})"
        )
    full = 4.0 / 3.0 * math.pi * (d_outer**3 - d_inner**3)
    cut = 0.0
    for offset in (h, h_d):
        cut += spherical_cap_volume(d_outer, offset) - spherical_cap_volume(
            d_inner, offset
        )
    return full - cut


def shell_volume(n: int, layout: BinLayout, h: float, h_d: float) -> float:
    """Water volume of the hollow shell for bin n (bottom at h below the
    sonar, surface at h_d above)."""
    return shell_volume_between(layout.edge(n - 1), layout.edge(n), h, h_d)


def cutoff_angle(d_inner: float, d_outer: float, plane_distance: float) -> float:
    """Vertical angle beyond which rays in the shell between d_inner and
    d_outer strike the plane at plane_distance: asin(2p / (d_inner + d_outer))
    when the plane is closer than the ring midpoint, else 0."""
    midpoint = (d_inner + d_outer) / 2.0
    if plane_distance >= midpoint:
        return 0.0
    return math.asin(min(2.0 * plane_distance / (d_inner + d_outer), 1.0))


def cutoff_angles(n: int, layout: BinLayout, h: float, h_d: float):
    """Bottom and surface cutoff angles (theta_ha, theta_hd) for bin n."""
    a, b = layout.edge(n - 1), layout.edge(n)
    return cutoff_angle(a, b, h), cutoff_angle(a, b, h_d)


@dataclass(frozen=True)
class SonarPose:
    """Position of the sonar in the water column.

    altitude_m is the height h above the locally flat bottom, depth_m the
    depth h_d below the surface, pitch_rad the vehicle pitch (downward
    positive) composed with every beam orientation.
    """

    altitude_m: float
    depth_m: float
    pitch_rad: float = 0.0

    def __post_init__(self):
        if self.altitude_m <= 0:
            raise ValueError(f"altitude_m must be > 0, got {self.altitude_m}")
        if self.depth_m <= 0:
            raise ValueError(f"depth_m must be > 0, got {self.depth_m}")
        if not math.isfinite(self.pitch_rad):
            raise ValueError(f"pitch_rad must be finite, got {self.pitch_rad}")
