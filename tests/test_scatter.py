import math

import numpy as np
import pytest

from flsim import (
    NO_RESPONSE,
    ObjectMaterial,
    bottom_coeff,
    ray_patch_area,
    surface_coeff,
    to_db,
    to_linear,
    transmission_loss,
    volume_coeff,
)
from flsim.raysim import (
    KIND_BOTTOM,
    KIND_OBJECT,
    KIND_SURFACE,
    _boundary_coeff_linear,
)
from flsim.scatter import SURFACE_GRAZING_CAP_RAD, echo_intensity


# --- bottom backscatter -------------------------------------------------------


def test_bottom_coeff_frozen_values():
    # frozen from an independent evaluation of the empirical model
    assert bottom_coeff(2.0, 0.5, 450.0) == pytest.approx(
        -17.15703400212046, abs=1e-9)
    assert bottom_coeff(2.0, math.pi / 2, 450.0) == pytest.approx(
        3.5591977087984805, abs=1e-9)
    assert bottom_coeff(4.0, math.pi / 2, 450.0) == pytest.approx(
        -3.1843782297300094, abs=1e-9)
    assert bottom_coeff(1.5, 0.3, 100.0) == pytest.approx(
        -34.90762948243098, abs=1e-9)


def test_bottom_coeff_floor():
    """The additive noise term bounds the strength from below at -44.2 dB."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        bt = rng.uniform(1.0, 4.0)
        g = rng.uniform(1e-4, math.pi / 2)
        f = rng.uniform(10.0, 900.0)
        assert bottom_coeff(bt, g, f) >= 10.0 * math.log10(10.0 ** (-4.42))


def test_bottom_coeff_grazing_monotone_for_sand():
    g = np.linspace(0.05, math.pi / 2, 40)
    vals = bottom_coeff(2.0, g, 450.0)
    assert np.all(np.diff(vals) > 0.0)


def test_bottom_coeff_array_matches_scalar():
    g = np.array([0.1, 0.5, 1.0, 1.5])
    vals = bottom_coeff(2.0, g, 450.0)
    for gi, vi in zip(g, vals):
        assert vi == pytest.approx(bottom_coeff(2.0, float(gi), 450.0),
                                   abs=1e-12)


# --- surface backscatter --------------------------------------------------------


def test_surface_coeff_frozen_values():
    assert surface_coeff(10.0, 0.3, 450.0) == pytest.approx(
        -31.52515905098817, abs=1e-9)
    assert surface_coeff(5.0, 0.3, 450.0) == pytest.approx(
        -39.21857312702875, abs=1e-9)
    assert surface_coeff(20.0, 0.3, 450.0) == pytest.approx(
        -23.257383302523223, abs=1e-9)


def test_surface_coeff_grazing_cap():
    """Beyond the cap the strength stays at its 85-degree value instead of
    following the tangent divergence."""
    cap = surface_coeff(10.0, SURFACE_GRAZING_CAP_RAD, 450.0)
    assert cap == pytest.approx(-10.38598115270035, abs=1e-9)
    assert surface_coeff(10.0, math.radians(89.0), 450.0) == cap
    assert surface_coeff(10.0, math.pi / 2, 450.0) == cap


def test_surface_coeff_wind_monotone():
    winds = [0.0, 5.0, 10.0, 20.0, 30.0]
    vals = [surface_coeff(w, 0.3, 450.0) for w in winds]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# --- volume backscatter ----------------------------------------------------------


def test_volume_coeff_frozen_value():
    assert volume_coeff(-90.0, 450.0) == pytest.approx(
        -71.42751240357259, abs=1e-9)


def test_volume_coeff_shifts_with_particle_density():
    base = volume_coeff(-90.0, 450.0)
    assert volume_coeff(-70.0, 450.0) == pytest.approx(base + 20.0, abs=1e-12)


# --- the sonar-equation term ------------------------------------------------------


def test_echo_intensity_composition():
    # in dB: SL - TL + sum of the gains + S + 10 log10(measure)
    alpha = 120.0
    distance = np.array([0.5, 3.0, 17.0, 40.0])
    got = echo_intensity(10.0, distance, alpha, to_linear(-20.0), 100.0,
                         to_linear(-3.0), to_linear(-4.0))
    want = (10.0 - transmission_loss(distance, alpha) - 3.0 - 4.0 - 20.0
            + 20.0)
    np.testing.assert_allclose(to_db(got), want, rtol=0.0, atol=1e-12)


def test_echo_intensity_zero_measure_is_no_response():
    got = echo_intensity(0.0, 7.0, 120.0, to_linear(-20.0), 0.0, 1.0)
    assert got == 0.0
    assert to_db(got) == NO_RESPONSE
    # per element too: only the cells without a measure vanish
    got = echo_intensity(0.0, 7.0, 120.0, to_linear(-20.0),
                         np.array([0.0, 5.0]), 1.0)
    assert to_db(got)[0] == NO_RESPONSE and np.isfinite(to_db(got)[1])


def test_echo_intensity_zero_gain_is_no_response():
    # a NO_RESPONSE gain or coefficient is a linear 0
    s = to_linear(-20.0)
    zero_gain = echo_intensity(0.0, 7.0, 120.0, s, 5.0, 0.5,
                               to_linear(NO_RESPONSE))
    zero_coeff = echo_intensity(0.0, 7.0, 120.0, to_linear(NO_RESPONSE), 5.0)
    assert zero_gain == zero_coeff == 0.0
    assert to_db(zero_gain) == to_db(zero_coeff) == NO_RESPONSE
    got = echo_intensity(0.0, 7.0, 120.0, s, 5.0, np.array([0.0, 1.0]))
    assert to_db(got)[0] == NO_RESPONSE and np.isfinite(to_db(got)[1])


def test_echo_intensity_negative_measure_has_no_level():
    got = echo_intensity(0.0, 7.0, 120.0, to_linear(-20.0), -1.0, 1.0)
    assert got < 0.0
    with pytest.raises(ValueError):
        to_db(got)


def test_echo_intensity_multiplies_gains_in_the_order_given():
    rng = np.random.default_rng(3)
    distance = rng.uniform(0.1, 40.0, 1000)
    g1, g2, coeff, measure = rng.uniform(1e-6, 1.0, (4, 1000))
    source = to_linear(13.0) * to_linear(-transmission_loss(distance, 120.0))
    for gains in ((g1, g2), (g2, g1)):
        want = source
        for gain in gains:
            want = want * gain
        want = want * coeff * measure
        # bit for bit: the ping's echoes rely on this order
        assert np.array_equal(
            echo_intensity(13.0, distance, 120.0, coeff, measure, *gains), want)


# --- object echoes ----------------------------------------------------------------


def test_object_material_roughness_bounds():
    ObjectMaterial(rms_roughness=1.0)
    ObjectMaterial(rms_roughness=4.0)
    with pytest.raises(ValueError):
        ObjectMaterial(rms_roughness=0.5)
    with pytest.raises(ValueError):
        ObjectMaterial(rms_roughness=4.5)


def test_target_strength_is_patch_scaled_roughness(scenario1):
    """An object hit scatters like a seabed patch of the object's roughness:
    the ping's per-hit factor is bottom_coeff at that roughness, scaled by
    the ray's patch area. The bottom is such a patch of roughness
    bottom_type, so an object of that roughness scatters as the bottom does;
    the surface has its own fit."""
    env = scenario1.env
    kind = np.array([KIND_OBJECT, KIND_OBJECT, KIND_BOTTOM, KIND_SURFACE,
                     KIND_OBJECT])
    grazing = np.array([0.7, 0.5, 0.4, 0.3, 0.4])
    roughness = np.array([3.0, 2.0, np.nan, np.nan, env.bottom_type])
    got = _boundary_coeff_linear(kind, grazing, roughness, env, 450.0)
    s_b = [bottom_coeff(r, g, 450.0) for r, g in zip(roughness[:2], grazing)]
    s_all = s_b + [bottom_coeff(env.bottom_type, 0.4, 450.0),
                   surface_coeff(env.wind_knots, 0.3, 450.0),
                   bottom_coeff(env.bottom_type, 0.4, 450.0)]
    np.testing.assert_array_equal(got, [to_linear(s) for s in s_all])
    assert got[2] == got[4]
    patch = ray_patch_area(12.0, grazing[:2], 20000)
    np.testing.assert_allclose(10.0 * np.log10(got[:2] * patch),
                               s_b + 10.0 * np.log10(patch), rtol=0.0, atol=1e-12)
