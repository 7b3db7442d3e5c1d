"""Range-bin geometry for the analytic reverberation model.

Ensonified ring radii, areas and grazing angles for a locally flat bottom
(mirrored for the surface; the grazing angle is also the volume gate's
cutoff), hollow-shell volumes with the bottom and surface cuts removed, and
the frame rotation and the volume's in-plane convention shared with the
expected-return integrals.

Coordinate convention: x forward along the vehicle, y to starboard, z down.
A vector from the sonar to a point on the bottom therefore has positive z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustics import BeamOrientation, EnvironmentParams, SonarConfig, max_range


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
    rounding of d / d_b) in the lower bin; a positive distance within that
    tolerance of 0 still lies in bin 1. Accepts scalars or arrays.
    """
    d = np.asarray(distance_m)
    idx = np.ceil(d / layout.bin_length_m - 1e-9).astype(int)
    idx = np.where(d > 0.0, np.maximum(idx, 1), idx)
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


def ring_areas(layout: BinLayout, h: float) -> np.ndarray:
    """Per-bin ensonified areas for all bins of the layout."""
    r = ring_radius(layout.edges, h)
    return math.pi * np.diff(r * r)


def grazing_between(d_inner, d_outer, h: float):
    """Grazing angle to the center of the ring between slant ranges
    (d_inner, d_outer]: asin(2|h| / (d_inner + d_outer)), clamped to pi/2
    for the first wet ring where the midpoint is closer than |h|;
    0 when the ring does not exist (|h| >= d_outer). Accepts scalars or
    arrays of ranges."""
    h = abs(h)
    d_inner = np.asarray(d_inner, dtype=float)
    d_outer = np.asarray(d_outer, dtype=float)
    wet = h < d_outer
    arg = 2.0 * h / np.where(wet, d_inner + d_outer, 1.0)
    out = np.where(wet, np.arcsin(np.minimum(arg, 1.0)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


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


def in_plane_cosines(v):
    """Beam-frame vectors v (..., 3) off the y and z axes under the volume's
    in-plane convention theta = atan2(v_y, v_x), psi = atan2(v_z, v_x): the
    unit vector (cos theta |cos psi|, sin theta cos psi, sin psi), in front
    where v is, whose y and z the beam pattern reads at those angles."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    h_xz = np.hypot(x, z)
    scale = np.hypot(x, y) * h_xz
    return np.stack([x * np.abs(x) / scale, y * x / scale, z / h_xz], axis=-1)


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
        for attr in ("altitude_m", "depth_m", "pitch_rad"):
            value = getattr(self, attr)
            if not math.isfinite(value):
                raise ValueError(f"{attr} must be finite, got {value}")
        if self.altitude_m <= 0:
            raise ValueError(f"altitude_m must be > 0, got {self.altitude_m}")
        if self.depth_m <= 0:
            raise ValueError(f"depth_m must be > 0, got {self.depth_m}")


def beam_orientations(pose: SonarPose, beam: BeamOrientation,
                      transmitter: BeamOrientation) -> list:
    """The (pitch, yaw) on the posed vehicle of the receive beam and of the
    transmitter: the orientations whose gain product weighs an echo."""
    return [(pose.pitch_rad + b.pitch_rad, b.yaw_rad) for b in (beam, transmitter)]
