"""Analytic expected per-bin return with no obstacle present.

For every range bin the expected bottom, surface and volume reverberation
is assembled from the propagation model, the bin geometry and the
backscatter coefficients, with the beam pattern averaged over the ensonified
ring (bottom, surface) or gated shell (volume) by numerical quadrature.
Every quantity stays in linear intensity from the quadrature to the per-bin
sum: each cell is one scatter.echo_intensity, the term the ping evaluates,
with the beam-pattern average as its gain. dB appears only in the returned
record, NullModelReturn, whose components are the per-bin sums in dB.

The average is coupled: the transmit and receive patterns are averaged as
one product in linear intensity, normalized by the full integration
measure. This is the expectation the Monte-Carlo ray estimator converges
to, so simulated and expected curves are directly comparable.

Each component takes one path. _cells lays every bin's resolution cells
out once; the bottom and the surface (one plane pipeline, _ring_return_bins,
given the plane's signed offset and backscatter function) and the volume
compute a measure and a coefficient per cell, and _cell_sum sums the
cells' intensities into bins, with the beam-pattern averages of all wet
cells taken in one batch by _ring_averages or _shell_averages. Quadrature
is one batched kernel, _nested_trapezoid, for the 1-D ring and 2-D shell
integrals alike: every row (an interval of a ring's gated arc, or a shell)
starts at 16 trapezoid panels, each doubling evaluates only the new nested
nodes of the rows still active, CHUNK_NODES at a time, and a row leaves
once a doubling changes it by at most 0.01 dB, else QuadratureError names
the beam, component, bin and cell. A node evaluates the gain once per
distinct (pitch, yaw) orientation.

Integration domains are the closed-form gate intervals, built for all rows
of a component in one array expression, so integrands stay smooth. A ring's
gated arc (_ring_arcs) is where the ring point lies in both orientations'
front hemispheres, with azimuth measured from the centre of the receive
arc, which then never wraps; a shell's is the psi band of each theta_h
column, or, for a yawed beam, pointwise gating over the whole strip. The
volume cutoffs are the planes' grazing angles where a plane lies short of
the cell midpoint, and inf (no cut) elsewhere.

A closed-form row's domain is the hemisphere cut itself: a ring arc, or an
unyawed shell's psi band, lies in every orientation's closed front
hemisphere. So such a row evaluates the uncut beam_pattern, which is
continuous at the row ends, where the beam-frame x component is 0: an end
node takes the pattern's limit from inside the row, whichever way one ulp
of an arc cosine rounds it, and the trapezoid keeps its O(h^2) end error.
Only the pointwise-gated rows of a yawed shell apply the cut, beam_gain.

Unyawed beams (every orientation at yaw 0 and |pitch| < pi/2) integrate
only the mirror half of each row. Their ring arcs are symmetric about
theta_r = 0 and their shell rows about theta_h = 0, and the integrand is
even there: negating theta_r or theta_h flips only the sign of the beam-frame
theta, and the gain is even in theta. So the kernel keeps the nodes at or
right of the midpoint, on the coordinates the full grid gives them, and
counts those right of it twice; the panel counts are those of the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustics import (
    BeamOrientation,
    EnvironmentParams,
    SonarConfig,
    absorption_coeff,
    beam_gain,
    beam_pattern,
    range_resolution,
)
from .db import NO_RESPONSE, to_db, to_linear
from .geometry import (
    BinLayout,
    SonarPose,
    beam_angles_surface,
    beam_angles_volume,
    beam_orientations,
    grazing_between,
    layout_for,
    ring_radius,
    rotate_to_sonar_frame,
)
from .scatter import bottom_coeff, echo_intensity, surface_coeff, volume_coeff

TOLERANCE_DB = 0.01
MAX_PANELS = 2**18


class QuadratureError(RuntimeError):
    """Raised when panel doubling fails to converge within the panel cap.
    row is the index of the first failing row of a batched integral."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class NullModelReturn:
    """Expected per-bin intensities and their components, all in dB."""

    layout: BinLayout
    pose: SonarPose
    beam: BeamOrientation
    bottom_db: np.ndarray
    surface_db: np.ndarray
    volume_db: np.ndarray

    @property
    def total_db(self) -> np.ndarray:
        """Per-bin power sum of the three components."""
        total = (
            to_linear(self.bottom_db)
            + to_linear(self.surface_db)
            + to_linear(self.volume_db)
        )
        return to_db(total)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.layout.centers


# ---------------------------------------------------------------------------
# Batched nested trapezoid integration

# Integrand nodes evaluated per block, at most: about one 129 x 129 shell
# grid, the largest the bundled scenarios converge on (folded, a 128-panel
# shell grid is 65 x 129).
CHUNK_NODES = 2**14


def _converged(previous, current):
    """Per-row test that a doubling changed the estimate by at most
    TOLERANCE_DB, as a dB ratio of two positive estimates (or two zeros)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_db = np.abs(10.0 * np.log10(current / previous))
    positive = (previous > 0.0) & (current > 0.0)
    return ((previous == 0.0) & (current == 0.0)) | (
        positive & (ratio_db <= TOLERANCE_DB))


def _new_nodes(n: int, dims: int) -> list:
    """Nodes of the n-panel trapezoid rule missing from the n/2-panel rule
    (all of them at the first level, n = 16), as tensor blocks
    ((ix, wx), (iu, wu)) of node indices and trapezoid weights along x, u."""
    every = (np.arange(n + 1), np.ones(n + 1))
    every[1][[0, -1]] = 0.5
    odd = (np.arange(1, n, 2), np.ones(n // 2))
    if dims == 1:
        return [(every if n == 16 else odd, (np.zeros(1, int), np.ones(1)))]
    if n == 16:
        return [(every, every)]
    return [(odd, every), ((every[0][::2], every[1][::2]), odd)]


def _nested_trapezoid(f, lo, hi, dims: int, even: bool = False):
    """Integrate every row r of f over [lo[r], hi[r]] (times [0, 1] in u
    when dims is 2) by panel doubling on nested nodes. When even, every row
    of f is even in x about its midpoint, and only the nodes at or right of
    it are evaluated.

    f(rows, x, u) returns the integrand of rows at nodes x of shape
    (len(rows), nx, 1) and u of shape (nu,) (None in 1-D), shaped
    (len(rows), nx, nu). Each row gets the estimate and panel count of a
    row-by-row doubling on np.linspace nodes, up to rounding. Rows double
    together while a row's new nodes fit in one chunk, then one at a time
    in order, so a row that never converges costs no more than the rows
    before it. Returns the estimates and panel counts (0 for an empty
    interval), or raises QuadratureError for the first row not converged
    at the cap.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    max_panels = MAX_PANELS if dims == 1 else math.isqrt(MAX_PANELS)
    estimate, panels = np.zeros(lo.size), np.zeros(lo.size, dtype=int)
    batched = 16
    while batched < max_panels and 3 ** (dims - 1) * batched**dims <= CHUNK_NODES:
        batched *= 2
    rows = np.flatnonzero(hi - lo > 0.0)
    for row in _double(f, lo, hi, rows, estimate, panels, dims, even, 16,
                       batched):
        if _double(f, lo, hi, np.array([row]), estimate, panels, dims, even,
                   2 * batched, max_panels).size:
            raise QuadratureError(f"quadrature did not converge to {TOLERANCE_DB} "
                                  f"dB within {MAX_PANELS} panels", int(row))
    return estimate, panels


def _double(f, lo, hi, active, estimate, panels, dims, even, n, stop):
    """Take rows at n/2 panels (none when n is 16) through the levels n,
    2n, ... up to stop, each evaluating only its new nodes and forming
    T(2n) = T(n) / 2**dims + h * (weighted sum over them); a row leaves once
    _converged accepts a doubling. When even, a new node left of the
    midpoint counts as its mirror partner. Updates estimate and panels in
    place and returns the rows still active."""
    while active.size and n <= stop:
        step = (hi[active] - lo[active]) / n
        total = np.zeros(active.size)
        for (ix, wx), (iu, wu) in _new_nodes(n, dims):
            if even:
                keep = ix >= n // 2
                ix, wx = ix[keep], np.where(ix[keep] > n // 2, 2.0, 1.0) * wx[keep]
            u = None if dims == 1 else np.where(iu == n, 1.0, iu * (1.0 / n))
            cols = min(ix.size, max(1, CHUNK_NODES // iu.size))
            per_chunk = max(1, CHUNK_NODES // (cols * iu.size))
            for r0 in range(0, active.size, per_chunk):
                rs = slice(r0, r0 + per_chunk)
                rows = active[rs]
                for c0 in range(0, ix.size, cols):
                    cs = slice(c0, c0 + cols)
                    # the same node coordinates np.linspace(lo, hi, n + 1) gives
                    x = ix[cs] * step[rs, None] + lo[rows, None]
                    x = np.where(ix[cs] == n, hi[rows, None], x)
                    total[rs] += f(rows, x[:, :, None], u) @ wu @ wx[cs]
        current = estimate[active] / 2**dims + step / n ** (dims - 1) * total
        done = np.zeros(active.size, bool) if n == 16 else _converged(
            estimate[active], current)
        estimate[active], panels[active] = current, n
        active = active[~done]
        n *= 2
    return active


def _row_averages(f, lo, hi, owner, count, dims, divisor, even) -> np.ndarray:
    """Sum of the integrals of each owner's rows over divisor, in linear
    intensity, for owners 0..count-1; 0 for an owner without rows. A
    QuadratureError carries the failing row's owner."""
    try:
        integral, _ = _nested_trapezoid(f, lo, hi, dims, even)
    except QuadratureError as err:
        raise QuadratureError(str(err), int(owner[err.row])) from err
    return np.bincount(owner, weights=integral, minlength=count) / divisor


def _unyawed(orientations: list) -> bool:
    """Whether every (pitch, yaw) orientation has yaw 0 and |pitch| < pi/2,
    which makes every ring and shell row even about its midpoint."""
    return all(yaw == 0.0 and abs(pitch) < math.pi / 2.0
               for pitch, yaw in orientations)


def _gain_product(v, orientations, angles, sonar, c, gate=None) -> np.ndarray:
    """Product over the (pitch, yaw) orientations of the beam gain at world
    vectors v (..., 3) under the angles convention, each distinct orientation
    evaluated once (a repeated one enters as g*g). Without gate, v lies on a
    closed-form row, inside every front hemisphere, and the uncut
    beam_pattern is evaluated; gate(psi, pitch), when given, zeroes an
    orientation's beam_gain outside its admitted band."""
    flat = v.reshape(-1, 3)
    gains = {}
    for pitch, yaw in dict.fromkeys(orientations):
        vb = rotate_to_sonar_frame(flat, pitch, yaw).reshape(v.shape)
        theta, psi = angles(vb)
        gains[pitch, yaw] = (
            beam_pattern(theta, psi, sonar, c) if gate is None else
            np.where(gate(psi, pitch), beam_gain(theta, psi, sonar, c), 0.0))
    return math.prod(gains[o] for o in orientations)


# ---------------------------------------------------------------------------
# Closed-form gate intervals


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


# ---------------------------------------------------------------------------
# Ring (bottom/surface) beam-pattern averages


def _ring_averages(rho, z: float, orientations: list, sonar: SonarConfig,
                   c: float) -> np.ndarray:
    """Beam-pattern averages (linear) around the rings of radii rho at
    vertical offset z, in one batch with a row per interval of a ring's gated
    arc; 0 for a ring wholly outside the gate. A row end strictly inside
    (-pi, pi) is a hemisphere edge, where the uncut pattern is continuous."""
    owner, lo, hi, centre = _ring_arcs(rho, z, orientations)
    radius, phase = (t[:, None, None] for t in (
        np.asarray(rho, dtype=float)[owner], centre[owner]))

    def integrand(rows, theta_r, u):
        r, theta = radius[rows], theta_r + phase[rows]
        v = np.stack(np.broadcast_arrays(
            r * np.cos(theta), r * np.sin(theta), z), axis=-1)
        return _gain_product(v, orientations, beam_angles_surface, sonar, c)

    return _row_averages(integrand, lo, hi, owner, len(rho), 1, 2.0 * math.pi,
                         _unyawed(orientations))


# ---------------------------------------------------------------------------
# Shell (volume) beam-pattern averages


def _shell_averages(theta_ha, theta_hd, orientations: list, sonar: SonarConfig,
                    c: float) -> np.ndarray:
    """Beam-pattern averages (linear) over the shells gated by the bottom and
    surface cutoffs theta_ha, theta_hd, in one batch with a 2-D row per
    shell; 0 where the gate is empty.

    Unless a beam is yawed (or pitched to the vertical), each orientation
    admits a psi band, the cutoff band shifted with its pitch and clipped to
    its front hemisphere, and each theta_h column integrates theta_v over
    the intersection of the bands, mapped onto u in [0, 1]. A yawed beam is
    gated pointwise over the whole strip. The strip covers half of the
    parameter square, hence the factor 2. A band edge at pitch +- pi/2 is
    an orientation's hemisphere edge, where the uncut pattern is continuous.
    """
    gated = (theta_ha > 0.0) | (theta_hd > 0.0)
    yawed = not _unyawed(orientations)
    if yawed:
        owner = np.flatnonzero(gated)
    else:
        pitches = [pitch for pitch, _ in orientations]
        band_lo = np.max([np.maximum(-theta_ha + 2.0 * p, p - math.pi / 2.0)
                          for p in pitches], axis=0)
        band_hi = np.min([np.minimum(theta_hd + 2.0 * p, p + math.pi / 2.0)
                          for p in pitches], axis=0)
        owner = np.flatnonzero(gated & (band_hi > band_lo))
        psi_lo, psi_hi = (t[owner][:, None, None] for t in (band_lo, band_hi))
    ha, hd = (t[owner][:, None, None] for t in (theta_ha, theta_hd))

    def integrand(rows, theta_h, u):
        gate = None
        if yawed:
            theta_v, width = -math.pi + u * 2.0 * math.pi, 2.0 * math.pi

            def gate(psi, pitch):
                return (psi > -ha[rows] + pitch) & (psi < hd[rows] + pitch)
        else:
            # theta_v at which the world vertical angle reaches a band edge
            cos_h = np.cos(theta_h)
            tv_lo = np.arctan2(np.sin(psi_lo[rows]) * cos_h, np.cos(psi_lo[rows]))
            tv_hi = np.arctan2(np.sin(psi_hi[rows]) * cos_h, np.cos(psi_hi[rows]))
            width = tv_hi - tv_lo
            theta_v = tv_lo + u * width
        v = np.stack(np.broadcast_arrays(
            np.cos(theta_h) * np.cos(theta_v), np.sin(theta_h), np.sin(theta_v)),
            axis=-1)
        return _gain_product(v, orientations, beam_angles_volume, sonar, c,
                             gate) * width

    lo = np.full(owner.size, -math.pi / 2.0)
    return _row_averages(integrand, lo, -lo, owner, theta_ha.size, 2,
                         2.0 * math.pi**2, not yawed)


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
    """Expected reverberation level per bin (dB): the power sum over each
    bin's resolution cells, all cells of all bins in one batch.

    cells is _cells' result; coeff (dB) and measure give each cell's
    backscatter coefficient and ensonified area or volume, a measure of 0
    marking a cell that returns nothing. averages(wet) gives the ring or
    shell beam-pattern averages (linear) of the wet cells, the indices of
    the cells with a positive measure. The coupled average is the one gain
    of echo_intensity, and the per-bin sums are the one conversion to dB.
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
    return to_db(intensity.reshape(-1, m).sum(axis=1))


def bottom_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
    *,
    transmit_beam: BeamOrientation | None = None,
) -> np.ndarray:
    """Expected bottom reverberation level per bin (dB, NO_RESPONSE where
    the bottom is out of reach)."""
    return _ring_return_bins(
        "bottom", pose.altitude_m,
        lambda g: bottom_coeff(env.bottom_type, g, sonar.frequency_khz),
        env, sonar, pose, beam, layout, transmit_beam)


def surface_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
    *,
    transmit_beam: BeamOrientation | None = None,
) -> np.ndarray:
    """Expected surface reverberation level per bin; the bottom pipeline
    mirrored above the sonar with the surface coefficient."""
    return _ring_return_bins(
        "surface", -pose.depth_m,
        lambda g: surface_coeff(env.wind_knots, g, sonar.frequency_khz),
        env, sonar, pose, beam, layout, transmit_beam)


def _ring_return_bins(component, z, coeff_of, env, sonar, pose, beam, layout,
                      transmit_beam):
    """Expected reverberation level per bin (dB) of the plane at signed
    vertical offset z from the sonar (down positive), whose backscatter
    coefficient (dB) at a grazing angle is coeff_of(grazing)."""
    offset = abs(z)
    a, b, bin_end, _, _ = cells = _cells(env, sonar, layout)
    r_a, r_b = ring_radius(a, offset), ring_radius(b, offset)
    area = math.pi * (r_b * r_b - r_a * r_a)
    # A bin that ends short of the plane stays empty, whatever the rounding
    # of its last cell edge.
    area[(offset >= bin_end) | (offset >= b) | (area <= 0.0)] = 0.0
    wet = area > 0.0
    coeff = np.zeros(a.size)
    coeff[wet] = coeff_of(grazing_between(a[wet], b[wet], offset))
    rho = (r_a + r_b) / 2.0
    orientations = beam_orientations(pose, beam, transmit_beam)
    c = env.sound_speed()
    return _cell_sum(component, env, sonar, cells, coeff, area, lambda rows:
                     _ring_averages(rho[rows], z, orientations, sonar, c))


def volume_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
    *,
    transmit_beam: BeamOrientation | None = None,
) -> np.ndarray:
    """Expected volume reverberation level per bin (dB). The ensonified
    volume of a cell is the full hollow shell; the bottom and surface cuts
    are accounted for by the gated beam-pattern average."""
    a, b, _, _, _ = cells = _cells(env, sonar, layout)
    volume = 4.0 / 3.0 * math.pi * (b**3 - a**3)
    # A plane at or beyond a cell's midpoint cannot clip its shell: that
    # bound is dropped and only the hemisphere clamp acts.
    theta_ha, theta_hd = (
        np.where(plane < (a + b) / 2.0, grazing_between(a, b, plane), math.inf)
        for plane in (pose.altitude_m, pose.depth_m)
    )
    orientations = beam_orientations(pose, beam, transmit_beam)
    c = env.sound_speed()
    return _cell_sum(
        "volume", env, sonar, cells,
        volume_coeff(env.particle_density_db, sonar.frequency_khz), volume,
        lambda rows: _shell_averages(theta_ha[rows], theta_hd[rows],
                                     orientations, sonar, c))


def expected_null(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout | None = None,
    *,
    transmit_beam: BeamOrientation | None = None,
    include_bottom: bool = True,
    include_surface: bool = True,
    include_volume: bool = True,
) -> NullModelReturn:
    """Expected per-bin return with no obstacle: the power sum of bottom,
    surface and volume reverberation. Components can be excluded to match a
    scene that disables them."""
    if layout is None:
        layout = layout_for(env, sonar)
    parts = {}
    try:
        for name, include, component in (
            ("bottom_db", include_bottom, bottom_return_bins),
            ("surface_db", include_surface, surface_return_bins),
            ("volume_db", include_volume, volume_return_bins),
        ):
            parts[name] = (
                component(env, sonar, pose, beam, layout,
                          transmit_beam=transmit_beam)
                if include
                else np.full(layout.num_bins, NO_RESPONSE)
            )
    except QuadratureError as err:
        raise QuadratureError(f"beam {beam.name!r}: {err}") from err
    return NullModelReturn(layout=layout, pose=pose, beam=beam, **parts)
