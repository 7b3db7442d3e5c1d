"""Closed-form propagation physics.

Sound speed, seawater absorption, spherical spreading, two-way transmission
loss, the rectangular-aperture beam pattern, range resolution, maximum range,
and ambient noise. All functions are pure; frequencies are given in kHz where
the empirical formulas expect kHz, and converted to Hz only where wavelength
is involved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .db import power_sum_db


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_linear(name: str, value_db: float) -> None:
    try:
        finite = math.isfinite(10.0 ** (value_db / 10.0))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must have a finite linear intensity "
                         f"(at most about 3082.5 dB), got {value_db}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Water column and seabed state.

    Parameters
    ----------
    temperature_c : float
        Water temperature T in degrees C.
    salinity_ppt : float
        Salinity S in parts per thousand.
    depth_m : float
        Current water depth z of the sonar (m).
    max_depth_m : float
        Maximum water depth z_max of the operating area (m).
    ph : float
        Acidity (moles/litre).
    wind_knots : float
        Wind speed v_w (knots).
    shipping_density : float
        Shipping density D, dimensionless in [0, 1].
    particle_density_db : float
        Volume scattering particle density Sp (dB). Conventional values are
        -50 (high), -70 (moderate), -90 (low); not enforced.
    bottom_type : float
        Bottom type bt in [1, 4]: 1 mud, 2 sand, 3 gravel, 4 rock.
    """

    temperature_c: float
    salinity_ppt: float
    depth_m: float
    max_depth_m: float
    ph: float
    wind_knots: float
    shipping_density: float
    particle_density_db: float
    bottom_type: float

    def __post_init__(self):
        for f in fields(self):
            _check_finite(f.name, getattr(self, f.name))
        _check_range("temperature_c", self.temperature_c, 0.0, 35.0)
        _check_range("salinity_ppt", self.salinity_ppt, 0.0, 45.0)
        _check_range("depth_m", self.depth_m, 0.0, 1000.0)
        _check_positive("max_depth_m", self.max_depth_m)
        _check_range("shipping_density", self.shipping_density, 0.0, 1.0)
        _check_range("bottom_type", self.bottom_type, 1.0, 4.0)
        if self.wind_knots < 0:
            raise ValueError(f"wind_knots must be >= 0, got {self.wind_knots}")

    def sound_speed(self) -> float:
        """Speed of sound (m/s) at this environment's T, S, and depth."""
        return sound_speed(self.temperature_c, self.salinity_ppt, self.depth_m)


@dataclass(frozen=True)
class BeamOrientation:
    """Direction a beam points, relative to the vehicle body.

    pitch_rad is positive downward; yaw_rad is positive to starboard.
    Both are normalized into (-pi, pi].
    """

    pitch_rad: float = 0.0
    yaw_rad: float = 0.0
    name: str = ""

    def __post_init__(self):
        for attr in ("pitch_rad", "yaw_rad"):
            value = getattr(self, attr)
            _check_finite(attr, value)
            wrapped = math.remainder(value, 2.0 * math.pi)
            if wrapped <= -math.pi:
                wrapped = math.pi
            object.__setattr__(self, attr, wrapped)


@dataclass(frozen=True)
class SonarConfig:
    """Transducer physics and sampling configuration.

    frequency_khz is the center frequency f (kHz), bandwidth_hz the pulse
    bandwidth B (Hz), ping_rate_hz the ping rate f_p (Hz), and
    horizontal_len_m / vertical_len_m the aperture lengths L_H and L_V (m).
    Received energy is accumulated into range bins of bin_length_m. Every
    receive beam, named uniquely, listens to the one transmitter, level
    unless given.
    """

    frequency_khz: float
    bandwidth_hz: float
    source_level_db: float
    ping_rate_hz: float
    horizontal_len_m: float
    vertical_len_m: float
    bin_length_m: float
    beams: tuple = field(default_factory=lambda: (BeamOrientation(),))
    num_rays: int = 20000
    transmitter: BeamOrientation = field(
        default_factory=lambda: BeamOrientation(name="transmitter"))

    def __post_init__(self):
        _check_positive("frequency_khz", self.frequency_khz)
        _check_positive("bandwidth_hz", self.bandwidth_hz)
        _check_positive("ping_rate_hz", self.ping_rate_hz)
        _check_positive("horizontal_len_m", self.horizontal_len_m)
        _check_positive("vertical_len_m", self.vertical_len_m)
        _check_positive("bin_length_m", self.bin_length_m)
        if isinstance(self.num_rays, bool) or not isinstance(
                self.num_rays, numbers.Integral):
            raise ValueError(f"num_rays must be an integer, got {self.num_rays!r}")
        if self.num_rays < 1:
            raise ValueError(f"num_rays must be >= 1, got {self.num_rays}")
        _check_linear("source_level_db", self.source_level_db)
        if len(self.beams) < 1:
            raise ValueError("beams must contain at least one BeamOrientation")
        for i, beam in enumerate(self.beams):
            if not isinstance(beam, BeamOrientation):
                raise ValueError(
                    f"beams[{i}] must be a BeamOrientation, got {beam!r}")
            if beam.name in (b.name for b in self.beams[:i]):
                raise ValueError(f"beams[{i}] repeats the beam name {beam.name!r}")
        if not isinstance(self.transmitter, BeamOrientation):
            raise ValueError(
                f"transmitter must be a BeamOrientation, got {self.transmitter!r}")
        object.__setattr__(self, "beams", tuple(self.beams))


def sound_speed(temperature_c: float, salinity_ppt: float, depth_m: float) -> float:
    """Speed of sound in seawater (m/s).

    Polynomial approximation valid for 0 <= T <= 35 C, 0 <= S <= 45 ppt,
    0 <= z <= 1000 m; out-of-range inputs raise ValueError.
    """
    _check_range("temperature_c", temperature_c, 0.0, 35.0)
    _check_range("salinity_ppt", salinity_ppt, 0.0, 45.0)
    _check_range("depth_m", depth_m, 0.0, 1000.0)
    t = temperature_c
    return (
        1449.2
        + 4.6 * t
        - 0.055 * t**2
        + 0.00029 * t**3
        + (1.34 - 0.010 * t) * (salinity_ppt - 35.0)
        + 0.016 * depth_m
    )


def wavelength(sound_speed_m_s: float, frequency_khz: float) -> float:
    """Acoustic wavelength (m); the frequency is converted to Hz here."""
    _check_positive("frequency_khz", frequency_khz)
    return sound_speed_m_s / (frequency_khz * 1000.0)


def absorption_coeff(f_khz: float, env: EnvironmentParams) -> float:
    """Seawater absorption coefficient alpha_w (dB/km).

    Sum of boric-acid, magnesium-sulphate and pure-water viscosity terms.
    The pure-water polynomial switches branch at T = 20 C (T = 20 uses the
    low-temperature branch).
    """
    _check_positive("f_khz", f_khz)
    t = env.temperature_c
    s = env.salinity_ppt
    z_max = env.max_depth_m
    c = env.sound_speed()

    a1 = (8.696 / c) * 10.0 ** (0.78 * env.ph - 5.0)
    f1 = 2.8 * math.sqrt(s / 35.0) * 10.0 ** (4.0 - 1245.0 / (t + 273.0))
    p1 = 1.0

    a2 = 21.44 * (s / c) * (1.0 + 0.025 * t)
    f2 = 8.17 * 10.0 ** (8.0 - 1990.0 / (t + 273.0)) / (1.0 + 0.0018 * (s - 35.0))
    p2 = 1.0 - 1.37e-4 * z_max + 6.2e-9 * z_max**2

    if t <= 20.0:
        a3 = 4.937e-4 - 2.59e-5 * t + 9.11e-7 * t**2 - 1.5e-8 * t**3
    else:
        a3 = 3.964e-4 - 1.146e-5 * t + 1.45e-7 * t**2 - 6.5e-10 * t**3
    p3 = 1.0 - 3.83e-5 * z_max + 4.9e-10 * z_max**2

    f_sq = f_khz**2
    boric = a1 * p1 * f1 * f_sq / (f1**2 + f_sq)
    magnesium = a2 * p2 * f2 * f_sq / (f2**2 + f_sq)
    water = a3 * p3 * f_sq
    return boric + magnesium + water


def attenuation_total(alpha_w_db_km, distance_m):
    """Two-way absorption loss (dB) over a path of the given length.

    Distances below 1 m are clamped to 1 m, the reference distance for the
    intensity bookkeeping.
    """
    d = np.maximum(distance_m, 1.0)
    return (2.0 * d - 1.0) * alpha_w_db_km / 1000.0


def spread_loss(distance_m):
    """Two-way spherical spreading loss (dB), referenced to 1 m."""
    if np.any(np.asarray(distance_m) <= 0.0):
        raise ValueError(f"distance_m must be > 0, got {distance_m}")
    d = np.maximum(distance_m, 1.0)
    return 40.0 * np.log10(d)


def transmission_loss(distance_m, alpha_w_db_km):
    """Total two-way transmission loss (dB): spreading plus absorption."""
    return spread_loss(distance_m) + attenuation_total(alpha_w_db_km, distance_m)


def sinc(x):
    """Normalized sinc, sin(pi x) / (pi x), with sinc(0) = 1.

    Returns exactly 0.0 at nonzero integer arguments so that pattern nulls
    map to zero response rather than a rounding residue.
    """
    arr = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # 0 / 0 at x = 0, replaced below
        ratio = np.sin(np.pi * arr) / (np.pi * arr)
    out = np.where(arr == np.round(arr), arr == 0.0, ratio)
    return out if out.ndim else float(out)


def aperture_factor(cosine, length_m: float, sonar: SonarConfig, c: float):
    """One-way amplitude factor sinc(length_m * cosine / lambda) of the
    aperture side length_m at the beam-frame direction cosine along it."""
    return sinc(cosine * length_m / wavelength(c, sonar.frequency_khz))


def beam_pattern(v, sonar: SonarConfig, c: float):
    """Linear intensity of the two-way aperture pattern, uncut, at beam-frame
    unit vectors v (..., 3) in direction cosines, "sine space" (Van Trees,
    Optimum Array Processing, 2002, ch. 2): (sinc(L_H v_y / lambda) sinc(L_V
    v_z / lambda))^2, with v_y = sin(theta) cos(psi) and v_z = sin(psi)."""
    v = np.asarray(v, dtype=float)
    amp = (aperture_factor(v[..., 1], sonar.horizontal_len_m, sonar, c)
           * aperture_factor(v[..., 2], sonar.vertical_len_m, sonar, c))
    return amp * amp


def beam_gain(v, sonar: SonarConfig, c: float):
    """Linear intensity gain at beam-frame unit vectors v (..., 3):
    beam_pattern inside the open front hemisphere v_x > 0 (|theta| < pi/2
    and |psi| < pi/2) and zero outside it; a 3-vector gives a float."""
    v = np.asarray(v, dtype=float)
    gain = np.where(v[..., 0] > 0.0, beam_pattern(v, sonar, c), 0.0)
    return gain if gain.ndim else float(gain)


def range_resolution(c: float, bandwidth_hz: float) -> float:
    """Range resolution delta_y = c / (2B) in meters."""
    _check_positive("bandwidth_hz", bandwidth_hz)
    return c / (2.0 * bandwidth_hz)


def max_range(c: float, ping_rate_hz: float) -> float:
    """Maximum unambiguous range d_max = c / (2 f_p) in meters."""
    _check_positive("ping_rate_hz", ping_rate_hz)
    return c / (2.0 * ping_rate_hz)


def noise_turbulence(f_khz: float) -> float:
    """Turbulence noise spectral level (dB re 1 Hz band)."""
    _check_positive("f_khz", f_khz)
    return 17.0 - 30.0 * math.log10(f_khz)


def noise_traffic(f_khz: float, shipping_density: float) -> float:
    """Shipping traffic noise spectral level (dB re 1 Hz band)."""
    _check_positive("f_khz", f_khz)
    return (
        40.0
        + 20.0 * (shipping_density - 0.5)
        + 26.0 * math.log10(f_khz)
        - 60.0 * math.log10(f_khz + 0.03)
    )


def noise_sea_state(f_khz: float, wind_knots: float) -> float:
    """Sea state noise spectral level (dB re 1 Hz band)."""
    _check_positive("f_khz", f_khz)
    return (
        50.0
        + 5.38 * math.sqrt(wind_knots)
        + 20.0 * math.log10(f_khz)
        - 40.0 * math.log10(f_khz + 0.4)
    )


def noise_thermal(f_khz: float) -> float:
    """Thermal noise spectral level (dB re 1 Hz band)."""
    _check_positive("f_khz", f_khz)
    return -15.0 + 20.0 * math.log10(f_khz)


def noise_level(f_khz: float, env: EnvironmentParams) -> float:
    """Isotropic noise level NL (dB re 1 Hz band): power sum of all sources."""
    return power_sum_db([
        noise_turbulence(f_khz),
        noise_traffic(f_khz, env.shipping_density),
        noise_sea_state(f_khz, env.wind_knots),
        noise_thermal(f_khz),
    ])


def noise_level_band(f_khz: float, env: EnvironmentParams, bandwidth_hz: float) -> float:
    """Noise level NL_B (dB) over a frequency band of bandwidth_hz."""
    _check_positive("bandwidth_hz", bandwidth_hz)
    return noise_level(f_khz, env) + 10.0 * math.log10(bandwidth_hz)
