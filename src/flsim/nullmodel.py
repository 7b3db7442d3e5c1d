"""Analytic expected per-bin return with no obstacle present.

For every range bin the expected bottom, surface and volume reverberation
is assembled from the propagation model, the bin geometry and the
backscatter coefficients, with the beam pattern averaged over the ensonified
ring (bottom, surface) or gated shell (volume) by numerical quadrature.
Every quantity stays in linear intensity from the quadrature to the per-bin
sum: each cell is one scatter.echo_intensity, the term the ping evaluates,
with the beam-pattern average as its gain. dB appears only where a curve
is written or tested.

expected_null(scene, sonar, pose, beam) is the expectation of the ping's
row for that beam with the scene's objects removed and its floor flat at
pose.altitude_m: the same bins (layout_for), the same transmitter
(sonar.transmitter) and the components the scene has. Its record is the
ping's, a one-beam PingReturn, whose object_ (no obstacle), multipath (not
modelled yet) and noise (none is added) are 0.

The average is coupled: the transmit and receive patterns are averaged as
one product in linear intensity, normalized by the full integration
measure. This is the expectation the Monte-Carlo ray estimator converges
to, so simulated and expected curves are directly comparable.

Each component takes one path. _cells lays every bin's resolution cells
out once; the bottom and the surface (one plane pipeline, _ring_return_bins,
given the plane's signed offset and backscatter function) and the volume
compute a measure and a coefficient per cell, and _cell_sum sums the
cells' intensities into bins, with the beam-pattern averages of all wet
cells taken in one batch by _ring_averages or _shell_averages.

Quadrature is two fixed rules under one doubling check, _doubled: n runs
16, 32, ... until a row's n and 2n estimates agree to TOLERANCE_DB, else
past MAX_NODES QuadratureError names the beam, component, bin and cell.
The rules take whole rows of nodes, at most BLOCK_NODES at a time, all
inside every orientation's front hemisphere, where they evaluate the uncut
beam_pattern on unit vectors in each distinct orientation's frame (volume:
in_plane_cosines).

- Rings: n-node Gauss-Legendre on every interval of a ring's gated arc
  (_ring_arcs, closed-form at any pitch and yaw), azimuth measured from
  the receive arc's centre so that the arc never wraps.
- Volume: a shell's average is the gain product over the (theta_h,
  theta_v) strip [-pi/2, pi/2] x [-pi, pi] where psi = atan2(v_z, v_x)
  lies in the shell's band, over 2 pi^2. With the order swapped it is
  K(hi) - K(lo), K the antiderivative of one profile per beam, H(psi): the
  theta_h integral (n-node Gauss-Legendre) of the gain product times
  d theta_v / d psi, as a degree-n Chebyshev interpolant over the
  orientations' common front half-circle. The cutoffs are the planes'
  grazing angles where a plane lies short of the cell midpoint, else inf.
  A yawed beam has no such profile; its volume raises QuadratureError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .acoustics import (
    BeamOrientation,
    EnvironmentParams,
    SonarConfig,
    absorption_coeff,
    beam_pattern,
    range_resolution,
)
from .db import to_linear
from .geometry import (
    BinLayout,
    SonarPose,
    beam_orientations,
    grazing_between,
    in_plane_cosines,
    layout_for,
    ring_radius,
    rotate_to_sonar_frame,
)
from .raysim import FlatBottom, PingReturn, Scene, _check_depth
from .scatter import bottom_coeff, echo_intensity, surface_coeff, volume_coeff

TOLERANCE_DB = 0.01
MAX_NODES = 2**12
# Integrand nodes evaluated per block, at most, so memory stays bounded
# whatever the node count. A block holds whole rows of a rule's nodes.
BLOCK_NODES = 2**14
assert MAX_NODES <= BLOCK_NODES


class QuadratureError(RuntimeError):
    """Raised when node doubling fails to converge within MAX_NODES nodes,
    or for a yawed beam's volume, which has no profile. row is the owner of
    the first row still changing."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


# ---------------------------------------------------------------------------
# Fixed rules and the doubling check


def _doubled(estimate, owner: np.ndarray, jointly: bool = False) -> np.ndarray:
    """Estimates of rows 0..owner.size-1 by an n-node rule, n = 16, 32, ...:
    estimate(n, rows) gives the n-node estimates of rows, and a row keeps
    its 2n estimate once it agrees with its n estimate to TOLERANCE_DB, or,
    jointly, once every row does (rows read from one interpolant can agree
    by chance while it is still unresolved). Past MAX_NODES, QuadratureError
    names the owner of the first row still changing."""
    result = np.zeros(owner.size)
    rows = changing = np.arange(owner.size)
    coarse, n = np.full(owner.size, np.nan), 16
    while rows.size:
        if n > MAX_NODES:
            raise QuadratureError(f"quadrature did not converge to {TOLERANCE_DB} "
                                  f"dB within {MAX_NODES} nodes",
                                  int(owner[changing[0]]))
        fine = estimate(n, rows)
        result[rows] = fine
        with np.errstate(divide="ignore", invalid="ignore"):
            done = ((coarse == 0.0) & (fine == 0.0)) | (
                (coarse > 0.0) & (fine > 0.0)
                & (np.abs(10.0 * np.log10(fine / coarse)) <= TOLERANCE_DB))
        changing = rows[~done]
        if jointly:
            done[:] = done.all()
        rows, coarse, n = rows[~done], fine[~done], 2 * n
    return result


@functools.cache
def _gauss_legendre(n: int):
    """Nodes and weights of the n-node Gauss-Legendre rule on [-1, 1]: five
    Newton steps on Legendre's recurrence from cos(pi (i + 3/4) / (n + 1/2)),
    in O(n) memory (numpy's leggauss builds an n x n matrix)."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(5):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _gauss_sums(f, count: int, n: int) -> np.ndarray:
    """The n-node Gauss-Legendre sums over [-1, 1] of f(k, t) for rows
    k = 0..count-1, evaluated at most BLOCK_NODES nodes at a time: f takes
    a column of rows k and a row of nodes t and returns their (rows, nodes)
    values."""
    t, w = _gauss_legendre(n)
    per_block = BLOCK_NODES // n
    total = np.zeros(count)
    for r0 in range(0, count, per_block):
        k = np.arange(r0, min(r0 + per_block, count))
        total[k] = f(k[:, None], t) @ w
    return total


def _chebyshev_interpolant(f, n: int, domain) -> np.polynomial.Chebyshev:
    """Chebyshev.interpolate(f, n, domain) in O(n) memory: the values at the
    n + 1 first-kind Chebyshev points, turned into coefficients by a DCT-II
    taken with an FFT (interpolate builds an (n + 1)^2 Vandermonde matrix)."""
    m = n + 1
    angle = math.pi * (np.arange(m) + 0.5) / m
    lo, hi = domain
    values = f((hi + lo) / 2.0 + (hi - lo) / 2.0 * np.cos(angle))
    spectrum = np.fft.rfft(np.concatenate([values, values[::-1]]))[:m]
    coef = (spectrum * np.exp(-0.5j * math.pi * np.arange(m) / m)).real / m
    coef[0] /= 2.0
    return np.polynomial.Chebyshev(coef, domain)


def _gain_product(v, orientations, sonar, c, in_plane=False) -> np.ndarray:
    """Product over the (pitch, yaw) orientations of the uncut beam_pattern
    at world unit vectors v (..., 3), or at in_plane_cosines of any v, each
    distinct orientation evaluated once (a repeated one enters as g*g)."""
    gains = {}
    for pitch, yaw in dict.fromkeys(orientations):
        vb = rotate_to_sonar_frame(v, pitch, yaw)
        gains[pitch, yaw] = beam_pattern(in_plane_cosines(vb) if in_plane
                                         else vb, sonar, c)
    return math.prod(gains[o] for o in orientations)


# ---------------------------------------------------------------------------
# Ring (bottom/surface) beam-pattern averages


def _ring_arcs(rho, z: float, orientations: list):
    """Rows (owner, lo, hi), in ring order, of the azimuth intervals where
    the point of ring owner (radius rho[owner], vertical offset z) lies in
    the front hemisphere of both the receive and the transmit orientation,
    and the receive arc's centre per ring.

    The beam-frame x component of the ring point at world azimuth theta is
    a*cos(theta) + b*sin(theta) + c, so each arc is closed-form: centre
    atan2(b, a), half-width acos(-c / hypot(a, b)), pi for a full ring (a
    ring of radius 0 is full, empty or, at c = 0, nan, which no row keeps).
    Azimuth is measured from the receive arc's centre, where that arc is
    [-hw, hw] and never wraps, so only the transmit arc and its copies 2 pi
    apart are intersected with it. A full transmit arc is centred there too.
    """
    rho = np.asarray(rho, dtype=float)
    centre, half = [], []
    for pitch, yaw in orientations:
        a = rho * math.cos(pitch) * math.cos(yaw)
        b = rho * math.cos(pitch) * math.sin(yaw)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -(z * math.sin(pitch)) / np.hypot(a, b)
        half.append(np.arccos(np.clip(t, -1.0, 1.0)))
        centre.append(np.arctan2(b, a))
    (receive, transmit), (hw_rx, hw_tx) = centre, half
    mid = np.where(hw_tx < math.pi, transmit - receive, 0.0)
    copies = mid + 2.0 * math.pi * np.array([-1.0, 0.0, 1.0])[:, None]
    lo = np.maximum(-hw_rx, copies - hw_tx).T.ravel()
    hi = np.minimum(hw_rx, copies + hw_tx).T.ravel()
    keep = np.flatnonzero(hi > lo)
    return keep // 3, lo[keep], hi[keep], receive


def _ring_averages(rho, z: float, orientations: list, sonar: SonarConfig,
                   c: float) -> np.ndarray:
    """Beam-pattern averages (linear) around the rings of radii rho at
    vertical offset z: Gauss-Legendre on every interval of a ring's gated
    arc, one row each; 0 for a ring wholly outside the gate."""
    owner, lo, hi, centre = _ring_arcs(rho, z, orientations)
    radius = np.asarray(rho, dtype=float)[owner]
    mid, half = (hi + lo) / 2.0 + centre[owner], (hi - lo) / 2.0

    def estimate(n, rows):
        def f(k, t):
            r, theta = radius[rows[k]], mid[rows[k]] + half[rows[k]] * t
            v = np.stack(np.broadcast_arrays(
                r * np.cos(theta), r * np.sin(theta), z), axis=-1)
            return _gain_product(v / np.hypot(r, z)[..., None], orientations,
                                 sonar, c)

        return half[rows] * _gauss_sums(f, rows.size, n)

    integral = _doubled(estimate, owner)
    return np.bincount(owner, weights=integral, minlength=len(rho)) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Shell (volume) beam-pattern averages


def _shell_averages(theta_ha, theta_hd, orientations: list, sonar: SonarConfig,
                    c: float) -> np.ndarray:
    """Beam-pattern averages (linear) over the shells gated by the bottom and
    surface cutoffs theta_ha, theta_hd, for orientations at yaw 0; 0 where
    the gate is empty.

    Each orientation admits a psi band, the cutoff band shifted with its
    pitch and clipped to its front half-circle. psi is measured from the
    receive pitch, every other pitch moved by whole turns to within pi of
    it, so the half-circles meet in one interval, the profile's domain. The
    cells of one call read one profile, so they converge jointly.
    """
    receive = orientations[0][0]
    near = [p - 2.0 * math.pi * round((p - receive) / (2.0 * math.pi))
            for p, _ in orientations]
    band_lo = np.max([np.maximum(-theta_ha + p + q, q - math.pi / 2.0)
                      for (p, _), q in zip(orientations, near)], axis=0)
    band_hi = np.min([np.minimum(theta_hd + p + q, q + math.pi / 2.0)
                      for (p, _), q in zip(orientations, near)], axis=0)
    owner = np.flatnonzero(band_hi > band_lo)
    domain = [max(near) - math.pi / 2.0, min(near) + math.pi / 2.0]

    def profile(n, psi):
        cos_p, sin_p = np.cos(psi), np.sin(psi)

        def f(k, t):
            # (cos, sin) of theta_v are (cos psi, sin psi cos theta_h) / norm,
            # d theta_v / d psi = cos theta_h / norm^2; v is scaled by norm.
            theta_h = t * (math.pi / 2.0)
            cos_h = np.cos(theta_h)
            norm2 = cos_p[k] ** 2 + (sin_p[k] * cos_h) ** 2
            v = np.stack(np.broadcast_arrays(
                cos_h * cos_p[k], np.sin(theta_h) * np.sqrt(norm2),
                sin_p[k] * cos_h), axis=-1)
            return _gain_product(v, orientations, sonar, c,
                                 in_plane=True) * cos_h / norm2

        return math.pi / 2.0 * _gauss_sums(f, psi.size, n)

    def estimate(n, rows):
        k = _chebyshev_interpolant(lambda psi: profile(n, psi), n, domain).integ()
        return k(band_hi[owner[rows]]) - k(band_lo[owner[rows]])

    integral = _doubled(estimate, owner, jointly=True)
    return np.bincount(owner, weights=integral,
                       minlength=theta_ha.size) / (2.0 * math.pi**2)


# ---------------------------------------------------------------------------
# Per-bin expected returns


def _resolution_cells(layout: BinLayout, delta_y: float):
    """Number of equal cells per bin: the largest count of cells no shorter
    than delta_y that tile the bin exactly (at least one)."""
    m = max(1, int(math.floor(layout.bin_length_m / delta_y + 1e-9)))
    return m, layout.bin_length_m / m


def _cells(env, sonar, layout):
    """Every resolution cell (a, b] of every bin, in (bin, cell) order, as
    (a, b, bin_end, m, cell_len): the cell edges, the end of each cell's
    bin, the cells per bin and the cell length."""
    c = env.sound_speed()
    m, cell_len = _resolution_cells(layout, range_resolution(c, sonar.bandwidth_hz))
    a = (layout.edges[:-1, None] + np.arange(m) * cell_len).ravel()
    return a, a + cell_len, np.repeat(layout.edges[1:], m), m, cell_len


def _cell_sum(component, env, sonar, cells, coeff, measure, averages):
    """Expected reverberation per bin (linear): the sum over each bin's
    resolution cells, all cells of all bins in one batch.

    cells is _cells' result; coeff (dB) and measure give each cell's
    backscatter coefficient and ensonified area or volume, a measure of 0
    marking a cell that returns nothing. averages(wet) gives the ring or
    shell beam-pattern averages (linear) of the wet cells, the indices of
    the cells with a positive measure. The coupled average is the one gain
    of echo_intensity.
    """
    a, b, _, m, cell_len = cells
    alpha_w = absorption_coeff(sonar.frequency_khz, env)
    wet = np.flatnonzero(measure > 0.0)
    bp = np.zeros(a.size)  # dry cells return nothing anyway
    try:
        bp[wet] = averages(wet)
    except QuadratureError as err:
        cell = wet[err.row]
        raise QuadratureError(f"{component} bin {cell // m + 1}, cell "
                              f"({a[cell]:.4f}, {b[cell]:.4f}] m: {err}") from err
    intensity = echo_intensity(sonar.source_level_db, b - cell_len / 2.0,
                               alpha_w, to_linear(coeff), measure, bp)
    return intensity.reshape(-1, m).sum(axis=1)


def bottom_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
) -> np.ndarray:
    """Expected bottom reverberation per bin (linear, 0 where the bottom
    is out of reach)."""
    return _ring_return_bins(
        "bottom", pose.altitude_m,
        lambda g: bottom_coeff(env.bottom_type, g, sonar.frequency_khz),
        env, sonar, pose, beam, layout)


def surface_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
) -> np.ndarray:
    """Expected surface reverberation per bin; the bottom pipeline
    mirrored above the sonar with the surface coefficient."""
    return _ring_return_bins(
        "surface", -pose.depth_m,
        lambda g: surface_coeff(env.wind_knots, g, sonar.frequency_khz),
        env, sonar, pose, beam, layout)


def _ring_return_bins(component, z, coeff_of, env, sonar, pose, beam, layout):
    """Expected reverberation per bin (linear) of the plane at signed
    vertical offset z from the sonar (down positive), whose backscatter
    coefficient (dB) at a grazing angle is coeff_of(grazing)."""
    offset = abs(z)
    a, b, bin_end, _, _ = cells = _cells(env, sonar, layout)
    r_a, r_b = ring_radius(a, offset), ring_radius(b, offset)
    area = math.pi * (r_b * r_b - r_a * r_a)
    # A bin that ends short of the plane stays empty, whatever the rounding
    # of its last cell edge.
    area[(offset >= bin_end) | (area <= 0.0)] = 0.0
    wet = area > 0.0
    coeff = np.zeros(a.size)
    coeff[wet] = coeff_of(grazing_between(a[wet], b[wet], offset))
    rho = (r_a + r_b) / 2.0
    orientations = beam_orientations(pose, beam, sonar.transmitter)
    c = env.sound_speed()
    return _cell_sum(component, env, sonar, cells, coeff, area, lambda rows:
                     _ring_averages(rho[rows], z, orientations, sonar, c))


def volume_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
) -> np.ndarray:
    """Expected volume reverberation per bin (linear). The ensonified
    volume of a cell is the full hollow shell; the bottom and surface cuts
    are accounted for by the gated beam-pattern average. A yawed beam
    raises QuadratureError."""
    a, b, _, _, _ = cells = _cells(env, sonar, layout)
    volume = 4.0 / 3.0 * math.pi * (b**3 - a**3)
    # A plane at or beyond a cell's midpoint cannot clip its shell: that
    # bound is dropped and only the hemisphere clamp acts.
    theta_ha, theta_hd = (
        np.where(plane < (a + b) / 2.0, grazing_between(a, b, plane), math.inf)
        for plane in (pose.altitude_m, pose.depth_m)
    )
    orientations = beam_orientations(pose, beam, sonar.transmitter)
    if any(yaw != 0.0 for _, yaw in orientations):
        raise QuadratureError("volume: no shell profile for a yawed beam")
    c = env.sound_speed()
    return _cell_sum(
        "volume", env, sonar, cells,
        volume_coeff(env.particle_density_db, sonar.frequency_khz), volume,
        lambda rows: _shell_averages(theta_ha[rows], theta_hd[rows],
                                     orientations, sonar, c))


def expected_null(
    scene: Scene,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
) -> PingReturn:
    """Expected per-bin return of beam, its row of ping(scene, sonar, pose),
    with the scene's objects removed and its floor flat at pose.altitude_m
    below the sonar: the sum of the bottom, surface and volume
    reverberation, each computed when the scene has it and 0 otherwise, as
    a one-beam PingReturn whose object_, multipath and noise are 0. The
    bins are layout_for(scene.env, sonar), the ones ping fills. A flat
    bottom elsewhere than at that floor, or an environment depth other than
    the pose's, raises ValueError; a mesh bottom is flattened, as the null
    hypothesis has no obstacle."""
    _check_depth(scene, pose)
    if isinstance(scene.bottom, FlatBottom):
        floor_m = pose.depth_m + pose.altitude_m
        if not math.isclose(scene.bottom.depth_m, floor_m, rel_tol=1e-9):
            raise ValueError(
                f"flat bottom at {scene.bottom.depth_m} m, but the pose puts "
                f"the floor at depth + altitude = {floor_m} m")
    env = scene.env
    layout = layout_for(env, sonar)
    components = (("bottom", scene.bottom is not None, bottom_return_bins),
                  ("surface", scene.surface_enabled, surface_return_bins),
                  ("volume", scene.volume_enabled, volume_return_bins))
    bins = layout.num_bins
    try:
        parts = {name: component(env, sonar, pose, beam, layout) if present
                 else np.zeros(bins) for name, present, component in components}
    except QuadratureError as err:
        raise QuadratureError(f"beam {beam.name!r}: {err}") from err
    return PingReturn(layout=layout, object_=np.zeros(bins),
                      multipath=np.zeros(bins), noise=np.zeros(bins), **parts)
