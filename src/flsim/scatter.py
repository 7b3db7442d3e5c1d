"""Backscatter coefficients and the sonar-equation level assemblies.

Empirical bottom/surface/volume scattering strengths and the composition of
source level, transmission loss, beam pattern terms and scattering strength
into reverberation and target echo levels. All coefficient functions accept
scalars or numpy arrays for the grazing angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .db import NO_RESPONSE

# The surface coefficient grows like tan(grazing)^beta with beta > 2 near
# normal incidence, which is not integrable over an ensonified patch. Grazing
# angles are therefore evaluated at no more than this cap, the edge of the
# regime the empirical fit describes.
SURFACE_GRAZING_CAP_RAD = math.radians(85.0)


@dataclass(frozen=True)
class ObjectMaterial:
    """Acoustic surface description of a placed object.

    rms_roughness maps the object's surface onto the same [1, 4] scale used
    for bottom types, which is what the backscatter fit expects.
    """

    rms_roughness: float = 3.0

    def __post_init__(self):
        if not 1.0 <= self.rms_roughness <= 4.0:
            raise ValueError(
                f"rms_roughness must be in [1, 4], got {self.rms_roughness}"
            )


def bottom_coeff(bottom_type, grazing_rad, f_khz):
    """Bottom backscattering coefficient S_B (dB/m^2).

    Empirical fit in bottom type bt, grazing angle and frequency (kHz). The
    cot^2 term in the exponent is evaluated as (cos/sin)^2 so that grazing
    angles near zero underflow the exponential to 0 instead of producing NaN;
    an additive floor keeps S_B >= -44.2 dB.
    """
    bt = np.asarray(bottom_type, dtype=float)
    theta = np.asarray(grazing_rad, dtype=float)
    if np.any(bt < 1.0) or np.any(bt > 4.0):
        raise ValueError(f"bottom_type must be in [1, 4], got {bottom_type}")
    if np.any(theta <= 0.0) or np.any(theta > math.pi / 2):
        raise ValueError(f"grazing_rad must be in (0, pi/2], got {grazing_rad}")
    if f_khz <= 0:
        raise ValueError(f"f_khz must be > 0, got {f_khz}")

    sin_t = np.sin(theta)
    cot_sq = (np.cos(theta) / sin_t) ** 2
    gamma = 1.0 + 125.0 * np.exp(-2.64 * (bt - 1.75) ** 2 - (50.0 / bt) * cot_sq)
    beta = gamma * (sin_t + 0.19) ** (bt * np.cos(theta) ** 16)
    linear = 3.03 * beta * f_khz ** (3.2 - 0.8 * bt) * 10.0 ** (2.8 * bt - 12.0)
    result = 10.0 * np.log10(linear + 10.0 ** (-4.42))
    if result.ndim == 0:
        return float(result)
    return result


def surface_coeff(wind_knots, grazing_rad, f_khz):
    """Surface backscattering coefficient S_S (dB/m^2).

    Empirical fit in wind speed (knots), grazing angle and frequency (kHz),
    evaluated in the log domain. Grazing angles above the validity cap are
    evaluated at SURFACE_GRAZING_CAP_RAD.
    """
    theta = np.asarray(grazing_rad, dtype=float)
    if np.any(theta <= 0.0):
        raise ValueError(f"grazing_rad must be > 0, got {grazing_rad}")
    if wind_knots < 0:
        raise ValueError(f"wind_knots must be >= 0, got {wind_knots}")
    if f_khz <= 0:
        raise ValueError(f"f_khz must be > 0, got {f_khz}")

    theta = np.minimum(theta, SURFACE_GRAZING_CAP_RAD)
    beta = 4.0 * (wind_knots + 2.0) / (wind_knots + 1.0) + (
        2.5 * (f_khz + 0.1) ** (-1.0 / 3.0) - 4.0
    ) * np.cos(theta) ** (1.0 / 8.0)
    result = 10.0 * (
        -5.05
        + 2.0 * np.log10(1.0 + wind_knots)
        + (wind_knots / 150.0) * np.log10(f_khz + 0.1)
        + beta * np.log10(np.tan(theta))
    )
    if result.ndim == 0:
        return float(result)
    return result


def volume_coeff(sp_db: float, f_khz: float) -> float:
    """Volume backscattering coefficient S_V = Sp + 7*log10(f) in dB/m^3."""
    if f_khz <= 0:
        raise ValueError(f"f_khz must be > 0, got {f_khz}")
    return sp_db + 7.0 * math.log10(f_khz)


def reverb_level(
    source_level_db: float,
    transmission_loss_db: float,
    bp_t_db: float,
    bp_r_db: float,
    coeff_db: float,
    measure,
) -> float:
    """Reverberation level RL = SL - TL + BP_T + BP_R + S + 10*log10(measure).

    measure is the ensonified area (m^2) or volume (m^3). A zero measure or
    any NO_RESPONSE operand yields NO_RESPONSE.
    """
    if measure < 0:
        raise ValueError(f"measure must be >= 0, got {measure}")
    if measure == 0:
        return NO_RESPONSE
    return (
        source_level_db
        - transmission_loss_db
        + bp_t_db
        + bp_r_db
        + coeff_db
        + 10.0 * math.log10(measure)
    )


def target_strength(
    patch_area_m2: float, grazing_rad: float, f_khz: float, material: ObjectMaterial
) -> float:
    """Target strength TS (dB) of an object patch.

    The object's surface is treated like a seabed patch of the material's
    roughness: TS = bottom_coeff(roughness, grazing, f) + 10*log10(area).
    Zero area yields NO_RESPONSE.
    """
    if patch_area_m2 < 0:
        raise ValueError(f"patch_area_m2 must be >= 0, got {patch_area_m2}")
    if patch_area_m2 == 0:
        return NO_RESPONSE
    coeff = bottom_coeff(material.rms_roughness, grazing_rad, f_khz)
    return coeff + 10.0 * math.log10(patch_area_m2)


def target_echo_level(
    source_level_db: float,
    transmission_loss_db: float,
    bp_t_db: float,
    bp_r_db: float,
    ts_db: float,
) -> float:
    """Echo level I_R = SL - TL + BP_T + BP_R + TS in dB."""
    return source_level_db - transmission_loss_db + bp_t_db + bp_r_db + ts_db
