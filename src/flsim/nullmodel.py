"""Analytic expected per-bin return with no obstacle present.

For every range bin the expected bottom, surface and volume reverberation
levels are assembled from the propagation model, the bin geometry and the
backscatter coefficients, with the beam pattern averaged over the ensonified
ring (bottom, surface) or gated shell (volume) by numerical quadrature.

Averaging modes
---------------
"coupled" (default)
    The transmit and receive patterns are averaged as one product in linear
    intensity, normalized by the full integration measure. This is the
    expectation the Monte-Carlo ray estimator converges to, so simulated and
    expected curves are directly comparable.
"independent"
    Each pattern is averaged separately in linear intensity and the two dB
    results are added. Understates the return of directive patterns because
    the average of the product exceeds the product of averages.
"printed"
    dB-domain averages with 1/pi (ring) and 1/pi^2 (sphere) prefactors,
    retained for side-by-side study with the linear forms.

Every component is a power sum over bins and their resolution cells, taken
in one loop, _cell_sum; each mode sets the (bp_t, bp_r) pair of a cell.
Quadrature is trapezoid integration under one panel-doubling loop,
_panel_doubling, for the 1-D ring and the 2-D shell integrals alike: the
panel count doubles from 16 until a doubling changes the result by at most
0.01 dB, else QuadratureError names the beam, component, bin and cell.
Integration domains are restricted to the closed-form gate intervals, so
integrands stay smooth; beams with nonzero yaw fall back to pointwise gating
of the shell integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .acoustics import (
    BeamOrientation,
    EnvironmentParams,
    SonarConfig,
    absorption_coeff,
    beam_gain,
    range_resolution,
    transmission_loss,
)
from .db import NO_RESPONSE, to_db, to_linear
from .geometry import (
    BinLayout,
    SonarPose,
    beam_angles_surface,
    beam_angles_volume,
    cutoff_angle,
    grazing_between,
    layout_for,
    ring_radius,
    rotate_to_sonar_frame,
)
from .scatter import bottom_coeff, reverb_level, surface_coeff, volume_coeff

TOLERANCE_DB = 0.01
MAX_PANELS = 2**18
# Floor for dB-domain integrands in "printed" mode, where pattern nulls
# would otherwise contribute -inf to the integral.
PRINTED_FLOOR_DB = -300.0

VALID_MODES = ("coupled", "independent", "printed")


class QuadratureError(RuntimeError):
    """Raised when panel doubling fails to converge within the panel cap."""


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


def _check_mode(mode: str) -> None:
    if mode not in VALID_MODES:
        raise ValueError(f"mode must be one of {VALID_MODES}, got {mode!r}")


def _orientation(pose: SonarPose, beam: BeamOrientation) -> tuple:
    """Total (pitch, yaw) of a beam carried by the posed vehicle."""
    return pose.pitch_rad + beam.pitch_rad, beam.yaw_rad


# ---------------------------------------------------------------------------
# 1-D and tensor-grid adaptive trapezoid integration


def _trapz(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _trapz2(values: np.ndarray, dx: float, du: float) -> float:
    inner = dx * (values.sum(axis=0) - 0.5 * (values[0, :] + values[-1, :]))
    return float(du * (inner.sum() - 0.5 * (inner[0] + inner[-1])))


def _converged(previous: float, current: float, signed: bool) -> bool:
    if signed:
        # dB-domain integrals may be negative; compare absolutely in dB units.
        return abs(current - previous) <= TOLERANCE_DB
    if previous == 0.0 and current == 0.0:
        return True
    if previous <= 0.0 or current <= 0.0:
        return False
    return abs(10.0 * math.log10(current / previous)) <= TOLERANCE_DB


def _panel_doubling(estimate, max_panels: int, signed: bool) -> float:
    """Double the panel count n of estimate(n) from 16 until two successive
    estimates agree to TOLERANCE_DB, or raise once n reaches max_panels."""
    n = 16
    previous = estimate(n)
    while n < max_panels:
        n *= 2
        current = estimate(n)
        if _converged(previous, current, signed):
            return current
        previous = current
    raise QuadratureError(
        f"quadrature did not converge to {TOLERANCE_DB} dB "
        f"within {MAX_PANELS} panels"
    )


def _adaptive_trapezoid(f, a: float, b: float, *, signed: bool = False) -> float:
    """Integrate vectorized f over [a, b] with panel doubling."""
    if b - a <= 0.0:
        return 0.0

    def estimate(n):
        return _trapz(f(np.linspace(a, b, n + 1)), (b - a) / n)

    return _panel_doubling(estimate, MAX_PANELS, signed)


def _adaptive_trapezoid_2d(f, a: float, b: float, *, signed: bool = False) -> float:
    """Integrate f(x_grid, u_grid) -> matrix over [a, b] x [0, 1]."""
    if b - a <= 0.0:
        return 0.0

    def estimate(n):
        x = np.linspace(a, b, n + 1)
        u = np.linspace(0.0, 1.0, n + 1)
        return _trapz2(f(x, u), (b - a) / n, 1.0 / n)

    return _panel_doubling(estimate, math.isqrt(MAX_PANELS), signed)


def _printed_db(gain: np.ndarray) -> np.ndarray:
    """dB of a "printed"-mode integrand, floored at PRINTED_FLOOR_DB."""
    out = np.full(gain.shape, PRINTED_FLOOR_DB)
    pos = gain > 0
    out[pos] = np.maximum(10.0 * np.log10(gain[pos]), PRINTED_FLOOR_DB)
    return out


# ---------------------------------------------------------------------------
# Closed-form gate intervals


def _arc_where_positive(a: float, b: float, c: float) -> list:
    """Intervals of theta in [-pi, pi] where a*cos + b*sin + c > 0."""
    r = math.hypot(a, b)
    if r < 1e-300:
        return [(-math.pi, math.pi)] if c > 0 else []
    t = -c / r
    if t <= -1.0:
        return [(-math.pi, math.pi)]
    if t >= 1.0:
        return []
    half_width = math.acos(t)
    phase = math.atan2(b, a)
    lo, hi = phase - half_width, phase + half_width
    intervals = []
    if lo < -math.pi:
        intervals.append((lo + 2.0 * math.pi, math.pi))
        lo = -math.pi
    if hi > math.pi:
        intervals.append((-math.pi, hi - 2.0 * math.pi))
        hi = math.pi
    intervals.append((lo, hi))
    return intervals


def _intersect_intervals(first: list, second: list) -> list:
    out = []
    for lo1, hi1 in first:
        for lo2, hi2 in second:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo + 1e-15:
                out.append((lo, hi))
    return sorted(out)


def _ring_front_arc(rho: float, z: float, pitch: float, yaw: float) -> list:
    """theta_r intervals where the ring point lies in the beam's front
    hemisphere. The beam-frame x component of the ring vector is affine in
    (cos theta_r, sin theta_r), so the arc is closed-form."""
    a = rho * math.cos(pitch) * math.cos(yaw)
    b = rho * math.cos(pitch) * math.sin(yaw)
    c = z * math.sin(pitch)
    return _arc_where_positive(a, b, c)


# ---------------------------------------------------------------------------
# Ring (bottom/surface) beam-pattern averages


def _ring_gain(theta_r: np.ndarray, rho: float, z: float, pitch: float, yaw: float,
               sonar: SonarConfig, c: float) -> np.ndarray:
    v = np.stack(
        [rho * np.cos(theta_r), rho * np.sin(theta_r), np.full_like(theta_r, z)],
        axis=-1,
    )
    vb = rotate_to_sonar_frame(v, pitch, yaw)
    theta, psi = beam_angles_surface(vb)
    return beam_gain(theta, psi, sonar, c)


def ring_bp_average(
    rho_mid: float,
    z: float,
    pose: SonarPose,
    beam: BeamOrientation,
    sonar: SonarConfig,
    c: float,
    *,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> float:
    """Average beam-pattern loss (dB) around the ring of radius rho_mid at
    vertical offset z from the sonar, or NO_RESPONSE when the whole ring is
    outside the gate.

    In "coupled" mode the result is the combined transmit-times-receive
    average; in the other modes the average of the single orientation given
    by ``beam`` (callers evaluate the transmitter with a second call).
    """
    _check_mode(mode)
    orientations = [_orientation(pose, beam)]
    if mode == "coupled":
        tx = transmit_beam if transmit_beam is not None else beam
        orientations.append(_orientation(pose, tx))
    domain = functools.reduce(
        _intersect_intervals,
        [_ring_front_arc(rho_mid, z, pitch, yaw) for pitch, yaw in orientations],
    )
    if not domain:
        return NO_RESPONSE
    signed = mode == "printed"

    def integrand(theta_r):
        product = math.prod(
            _ring_gain(theta_r, rho_mid, z, pitch, yaw, sonar, c)
            for pitch, yaw in orientations
        )
        return _printed_db(product) if signed else product

    total = sum(
        _adaptive_trapezoid(integrand, lo, hi, signed=signed) for lo, hi in domain
    )
    if signed:
        return total / math.pi
    return to_db(total / (2.0 * math.pi))


def avg_ring_bp_loss(
    n: int,
    layout: BinLayout,
    pose: SonarPose,
    beam: BeamOrientation,
    sonar: SonarConfig,
    c: float,
    *,
    vertical_offset_m: float | None = None,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> float:
    """Average beam-pattern loss around the ensonified ring of bin n.

    vertical_offset_m defaults to the pose altitude (bottom ring); pass
    -pose.depth_m for the surface ring.
    """
    z = pose.altitude_m if vertical_offset_m is None else vertical_offset_m
    h = abs(z)
    if h >= layout.edge(n):
        raise ValueError(f"bin {n} has no ensonified ring at offset {z}")
    r_outer = ring_radius(layout.edge(n), h)
    r_inner = ring_radius(layout.edge(n - 1), h)
    rho_mid = (r_outer + r_inner) / 2.0
    return ring_bp_average(
        rho_mid, z, pose, beam, sonar, c, transmit_beam=transmit_beam, mode=mode
    )


# ---------------------------------------------------------------------------
# Shell (volume) beam-pattern averages


def _effective_cutoff(d_inner: float, d_outer: float, plane_distance: float) -> float:
    """Cutoff angle used by the expected-return pipeline. When the boundary
    plane lies at or beyond the shell midpoint it cannot clip the shell;
    cutoff_angle's 0 in that case means an absent boundary, not an empty
    gate, so the constraint is dropped and only the hemisphere clamp acts."""
    value = cutoff_angle(d_inner, d_outer, plane_distance)
    if value == 0.0:
        return math.inf
    return value


def _psi_band(pitch: float, theta_ha: float, theta_hd: float) -> tuple:
    """World-frame vertical-angle interval admitted for one orientation:
    the bottom/surface cutoff band shifted with the beam pitch, intersected
    with that beam's front hemisphere."""
    lo = max(-theta_ha + 2.0 * pitch, pitch - math.pi / 2.0)
    hi = min(theta_hd + 2.0 * pitch, pitch + math.pi / 2.0)
    return lo, hi


def _theta_v_of_psi(psi: float, cos_theta_h: np.ndarray) -> np.ndarray:
    """Parameter angle theta_v at which the world vertical angle equals psi
    along the column at horizontal parameter theta_h."""
    return np.arctan2(math.sin(psi) * cos_theta_h, math.cos(psi))


def _shell_gain_pointwise(
    theta_h: np.ndarray,
    theta_v: np.ndarray,
    orientations: list,
    theta_ha: float,
    theta_hd: float,
    sonar: SonarConfig,
    c: float,
) -> np.ndarray:
    """Gated gain product on a (theta_h, theta_v) grid, gating each
    orientation's vertical band pointwise (general-yaw fallback)."""
    v = np.stack(
        [
            np.cos(theta_h)[:, None] * np.cos(theta_v)[None, :],
            np.broadcast_to(np.sin(theta_h)[:, None], (theta_h.size, theta_v.size)),
            np.broadcast_to(np.sin(theta_v)[None, :], (theta_h.size, theta_v.size)),
        ],
        axis=-1,
    )
    product = np.ones(v.shape[:-1])
    for pitch, yaw in orientations:
        vb = rotate_to_sonar_frame(v, pitch, yaw)
        theta, psi = beam_angles_volume(vb)
        gain = beam_gain(theta, psi, sonar, c)
        band = (psi > -theta_ha + pitch) & (psi < theta_hd + pitch)
        product = product * np.where(band, gain, 0.0)
    return product


def shell_bp_average(
    d_inner: float,
    d_outer: float,
    pose: SonarPose,
    beam: BeamOrientation,
    sonar: SonarConfig,
    c: float,
    *,
    cutoffs: tuple | None = None,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> float:
    """Average beam-pattern loss (dB) over the gated shell between slant
    ranges d_inner and d_outer, or NO_RESPONSE when the gate is empty.

    The shell is parametrized by the in-plane angle pair (theta_h, theta_v)
    over the full square; the square double-covers directions, which the
    strip reduction accounts for. Vertical gating excludes angles beyond the
    bottom/surface cutoffs, shifted per orientation with its pitch.
    """
    _check_mode(mode)
    if cutoffs is None:
        theta_ha = _effective_cutoff(d_inner, d_outer, pose.altitude_m)
        theta_hd = _effective_cutoff(d_inner, d_outer, pose.depth_m)
    else:
        theta_ha, theta_hd = cutoffs
    if theta_ha <= 0.0 and theta_hd <= 0.0:
        return NO_RESPONSE

    if mode == "coupled":
        tx = transmit_beam if transmit_beam is not None else beam
        orientations = [_orientation(pose, beam), _orientation(pose, tx)]
    else:
        orientations = [_orientation(pose, beam)]

    signed = mode == "printed"
    yawed = any(yaw != 0.0 for _, yaw in orientations) or any(
        abs(pitch) >= math.pi / 2.0 for pitch, _ in orientations
    )

    if yawed:
        # Pointwise gating over the strip; gate edges are not aligned to the
        # grid, so convergence relies on the panel cap.
        def integrand(theta_h, theta_v):
            vals = _shell_gain_pointwise(
                theta_h, theta_v, orientations, theta_ha, theta_hd, sonar, c
            )
            return _printed_db(vals) if signed else vals

        def on_unit_square(theta_h, u):
            return integrand(theta_h, -math.pi + u * 2.0 * math.pi) * (2.0 * math.pi)

        total = _adaptive_trapezoid_2d(
            on_unit_square, -math.pi / 2.0, math.pi / 2.0, signed=signed
        )
    else:
        lo = hi = None
        for pitch, _ in orientations:
            band_lo, band_hi = _psi_band(pitch, theta_ha, theta_hd)
            lo = band_lo if lo is None else max(lo, band_lo)
            hi = band_hi if hi is None else min(hi, band_hi)
        if hi <= lo:
            return NO_RESPONSE

        def integrand(theta_h, u):
            cos_h = np.cos(theta_h)
            tv_lo = _theta_v_of_psi(lo, cos_h)
            tv_hi = _theta_v_of_psi(hi, cos_h)
            width = tv_hi - tv_lo
            theta_v = tv_lo[:, None] + u[None, :] * width[:, None]
            v = np.stack(
                [
                    cos_h[:, None] * np.cos(theta_v),
                    np.broadcast_to(np.sin(theta_h)[:, None], theta_v.shape),
                    np.sin(theta_v),
                ],
                axis=-1,
            )
            product = np.ones(theta_v.shape)
            for pitch, yaw in orientations:
                vb = rotate_to_sonar_frame(v, pitch, yaw)
                theta, psi = beam_angles_volume(vb)
                product = product * beam_gain(theta, psi, sonar, c)
            return (_printed_db(product) if signed else product) * width[:, None]

        total = _adaptive_trapezoid_2d(
            integrand, -math.pi / 2.0, math.pi / 2.0, signed=signed
        )

    # The strip covers half of the parameter square, hence the factor 2.
    if signed:
        return 2.0 * total / math.pi**2
    average = 2.0 * total / (4.0 * math.pi**2)
    return to_db(average)


def avg_sphere_bp_loss(
    n: int,
    layout: BinLayout,
    pose: SonarPose,
    beam: BeamOrientation,
    sonar: SonarConfig,
    c: float,
    cutoffs: tuple | None = None,
    *,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> float:
    """Average beam-pattern loss over the gated shell of bin n."""
    return shell_bp_average(
        layout.edge(n - 1),
        layout.edge(n),
        pose,
        beam,
        sonar,
        c,
        cutoffs=cutoffs,
        transmit_beam=transmit_beam,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Per-bin expected returns


def _resolution_cells(layout: BinLayout, delta_y: float):
    """Number of equal cells per bin: the largest count of cells no shorter
    than delta_y that tile the bin exactly (at least one)."""
    m = max(1, int(math.floor(layout.bin_length_m / delta_y + 1e-9)))
    return m, layout.bin_length_m / m


def _cell_sum(component, env, sonar, beam, layout, transmit_beam, mode, cell):
    """Expected reverberation level per bin (dB): the power sum over each
    bin's resolution cells.

    cell(n, a, b) describes the cell (a, b] of bin n as (average, coeff_db,
    measure), where average(beam=..., transmit_beam=...) is the cell's ring
    or shell beam-pattern average, or is None for a cell that returns
    nothing. The mode sets the (bp_t, bp_r) pair: the coupled average and
    0 dB, or the transmit and receive averages taken apart.
    """
    _check_mode(mode)
    c = env.sound_speed()
    alpha_w = absorption_coeff(sonar.frequency_khz, env)
    m, cell_len = _resolution_cells(layout, range_resolution(c, sonar.bandwidth_hz))
    tx = transmit_beam if transmit_beam is not None else beam

    out = np.full(layout.num_bins, NO_RESPONSE)
    for n in range(1, layout.num_bins + 1):
        bin_start = layout.edge(n - 1)
        acc = 0.0
        for i in range(m):
            a = bin_start + i * cell_len
            b = a + cell_len
            terms = cell(n, a, b)
            if terms is None:
                continue
            average, coeff, measure = terms
            try:
                if mode == "coupled":
                    bp_t, bp_r = average(beam=beam, transmit_beam=tx), 0.0
                else:
                    bp_t, bp_r = average(beam=tx), average(beam=beam)
            except QuadratureError as err:
                raise QuadratureError(
                    f"{component} bin {n}, cell ({a:.4f}, {b:.4f}] m: {err}"
                ) from err
            d_c = b - cell_len / 2.0
            rl = reverb_level(
                sonar.source_level_db, transmission_loss(d_c, alpha_w),
                bp_t, bp_r, coeff, measure,
            )
            acc += to_linear(rl)
        out[n - 1] = to_db(acc)
    return out


def bottom_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
    *,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> np.ndarray:
    """Expected bottom reverberation level per bin (dB, NO_RESPONSE where
    the bottom is out of reach)."""
    return _ring_return_bins(
        env, sonar, pose, beam, layout, kind="bottom",
        transmit_beam=transmit_beam, mode=mode,
    )


def surface_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
    *,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> np.ndarray:
    """Expected surface reverberation level per bin; the bottom pipeline
    mirrored above the sonar with the surface coefficient."""
    return _ring_return_bins(
        env, sonar, pose, beam, layout, kind="surface",
        transmit_beam=transmit_beam, mode=mode,
    )


def _ring_return_bins(env, sonar, pose, beam, layout, *, kind, transmit_beam, mode):
    c = env.sound_speed()
    f = sonar.frequency_khz
    offset = pose.altitude_m if kind == "bottom" else pose.depth_m
    z = offset if kind == "bottom" else -offset

    def cell(n, a, b):
        # A bin that ends short of the plane stays empty, whatever the
        # rounding of its last cell edge.
        if offset >= layout.edge(n) or offset >= b:
            return None
        r_a = ring_radius(a, offset)
        r_b = ring_radius(b, offset)
        area = math.pi * (r_b * r_b - r_a * r_a)
        if area <= 0.0:
            return None
        grazing = grazing_between(a, b, offset)
        if kind == "bottom":
            coeff = bottom_coeff(env.bottom_type, grazing, f)
        else:
            coeff = surface_coeff(env.wind_knots, grazing, f)
        average = functools.partial(
            ring_bp_average, (r_a + r_b) / 2.0, z, pose, sonar=sonar, c=c, mode=mode
        )
        return average, coeff, area

    return _cell_sum(kind, env, sonar, beam, layout, transmit_beam, mode, cell)


def volume_return_bins(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout,
    *,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
) -> np.ndarray:
    """Expected volume reverberation level per bin (dB). The ensonified
    volume of a cell is the full hollow shell; the bottom and surface cuts
    are accounted for by the gated beam-pattern average."""
    c = env.sound_speed()
    coeff = volume_coeff(env.particle_density_db, sonar.frequency_khz)

    def cell(n, a, b):
        volume = 4.0 / 3.0 * math.pi * (b**3 - a**3)
        average = functools.partial(
            shell_bp_average, a, b, pose, sonar=sonar, c=c, mode=mode
        )
        return average, coeff, volume

    return _cell_sum("volume", env, sonar, beam, layout, transmit_beam, mode, cell)


def expected_null(
    env: EnvironmentParams,
    sonar: SonarConfig,
    pose: SonarPose,
    beam: BeamOrientation,
    layout: BinLayout | None = None,
    *,
    transmit_beam: BeamOrientation | None = None,
    mode: str = "coupled",
    include_bottom: bool = True,
    include_surface: bool = True,
    include_volume: bool = True,
) -> NullModelReturn:
    """Expected per-bin return with no obstacle: the power sum of bottom,
    surface and volume reverberation. Components can be excluded to match a
    scene that disables them."""
    if layout is None:
        layout = layout_for(env, sonar)
    empty = np.full(layout.num_bins, NO_RESPONSE)
    kwargs = {"transmit_beam": transmit_beam, "mode": mode}
    try:
        bottom = (
            bottom_return_bins(env, sonar, pose, beam, layout, **kwargs)
            if include_bottom
            else empty.copy()
        )
        surface = (
            surface_return_bins(env, sonar, pose, beam, layout, **kwargs)
            if include_surface
            else empty.copy()
        )
        volume = (
            volume_return_bins(env, sonar, pose, beam, layout, **kwargs)
            if include_volume
            else empty.copy()
        )
    except QuadratureError as err:
        raise QuadratureError(f"beam {beam.name!r}: {err}") from err
    return NullModelReturn(
        layout=layout,
        pose=pose,
        beam=beam,
        bottom_db=bottom,
        surface_db=surface,
        volume_db=volume,
    )
