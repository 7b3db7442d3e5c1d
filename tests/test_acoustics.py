import math

import numpy as np
import pytest

from flsim import (
    BeamOrientation,
    EnvironmentParams,
    NO_RESPONSE,
    SonarConfig,
    absorption_coeff,
    attenuation_total,
    beam_gain,
    max_range,
    noise_level,
    noise_level_band,
    range_resolution,
    sound_speed,
    spread_loss,
    to_db,
    transmission_loss,
    wavelength,
)
from flsim.acoustics import (
    beam_pattern,
    noise_sea_state,
    noise_thermal,
    noise_traffic,
    noise_turbulence,
    sinc,
)

ENV_SHALLOW = EnvironmentParams(
    temperature_c=10.0,
    salinity_ppt=35.0,
    depth_m=7.0,
    max_depth_m=12.0,
    ph=8.0,
    wind_knots=10.0,
    shipping_density=0.5,
    particle_density_db=-90.0,
    bottom_type=2.0,
)

ENV_DEEP = EnvironmentParams(
    temperature_c=10.0,
    salinity_ppt=35.0,
    depth_m=50.0,
    max_depth_m=100.0,
    ph=8.0,
    wind_knots=10.0,
    shipping_density=0.5,
    particle_density_db=-90.0,
    bottom_type=2.0,
)

SONAR = SonarConfig(
    frequency_khz=450.0,
    bandwidth_hz=20000.0,
    source_level_db=0.0,
    ping_rate_hz=18.5,
    horizontal_len_m=0.005,
    vertical_len_m=0.010,
    bin_length_m=0.25,
)


# --- sound speed ------------------------------------------------------------


def test_sound_speed_surface_reference():
    assert sound_speed(0.0, 35.0, 0.0) == 1449.2


def test_sound_speed_known_points():
    # frozen from an independent evaluation of the polynomial
    assert sound_speed(0.0, 35.0, 100.0) == pytest.approx(1450.8, abs=1e-9)
    assert sound_speed(10.0, 35.0, 50.0) == pytest.approx(1490.79, abs=1e-9)
    assert sound_speed(10.0, 35.0, 100.0) == pytest.approx(1491.59, abs=1e-9)
    assert sound_speed(10.0, 35.0, 7.0) == pytest.approx(1490.102, abs=1e-9)


def test_sound_speed_validity_range():
    for bad in ((-1.0, 35.0, 0.0), (36.0, 35.0, 0.0),
                (10.0, -1.0, 0.0), (10.0, 46.0, 0.0),
                (10.0, 35.0, -1.0), (10.0, 35.0, 1001.0)):
        with pytest.raises(ValueError):
            sound_speed(*bad)


def test_environment_sound_speed_uses_own_depth():
    assert ENV_SHALLOW.sound_speed() == sound_speed(10.0, 35.0, 7.0)


# --- absorption and transmission loss ---------------------------------------


def test_absorption_frozen_values():
    # frozen from an independent evaluation of the three-term model
    assert absorption_coeff(100.0, ENV_DEEP) == pytest.approx(
        33.0998216224832, abs=1e-9)
    assert absorption_coeff(200.0, ENV_DEEP) == pytest.approx(
        53.684991406723285, abs=1e-9)
    assert absorption_coeff(450.0, ENV_SHALLOW) == pytest.approx(
        109.41941130251047, abs=1e-9)


def test_absorption_grows_with_frequency():
    values = [absorption_coeff(f, ENV_SHALLOW) for f in (10.0, 50.0, 100.0,
                                                         200.0, 450.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_attenuation_short_paths_clamp_to_reference():
    alpha = 100.0
    assert attenuation_total(alpha, 0.2) == attenuation_total(alpha, 1.0)
    assert attenuation_total(alpha, 1.0) == pytest.approx(0.1, abs=1e-12)


def test_spread_loss_reference_values():
    assert spread_loss(10.0) == 40.0
    assert spread_loss(1.0) == 0.0
    assert spread_loss(0.5) == 0.0  # clamped to the 1 m reference


def test_spread_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        spread_loss(0.0)
    with pytest.raises(ValueError):
        spread_loss(-3.0)


def test_transmission_loss_frozen_value():
    alpha = absorption_coeff(450.0, ENV_SHALLOW)
    assert transmission_loss(35.0, alpha) == pytest.approx(
        69.31266115388425, abs=1e-9)


def test_transmission_loss_is_sum_of_parts():
    rng = np.random.default_rng(3)
    d = rng.uniform(1.0, 60.0, size=30)
    alpha = 109.4
    np.testing.assert_allclose(
        transmission_loss(d, alpha),
        spread_loss(d) + attenuation_total(alpha, d),
        rtol=0.0, atol=1e-12,
    )


# --- aperture pattern --------------------------------------------------------


def test_sinc_center_and_integer_nulls():
    assert sinc(0.0) == 1.0
    for k in range(1, 40):
        assert sinc(float(k)) == 0.0
        assert sinc(float(-k)) == 0.0
    arr = sinc(np.array([0.0, 1.0, 2.5, -3.0]))
    assert arr[0] == 1.0 and arr[1] == 0.0 and arr[3] == 0.0
    assert arr[2] == pytest.approx(math.sin(2.5 * math.pi) / (2.5 * math.pi))


def test_wavelength():
    assert wavelength(1500.0, 450.0) == pytest.approx(1500.0 / 450000.0,
                                                      rel=1e-15)
    with pytest.raises(ValueError):
        wavelength(1500.0, 0.0)


def test_beam_gain_boresight_is_unity():
    c = ENV_SHALLOW.sound_speed()
    assert beam_gain(0.0, 0.0, SONAR, c) == 1.0


def test_beam_gain_zero_outside_front_hemisphere():
    c = ENV_SHALLOW.sound_speed()
    for theta, psi in ((math.pi / 2, 0.0), (-math.pi / 2, 0.0),
                       (0.0, math.pi / 2), (0.0, -math.pi / 2),
                       (3.0, 0.1), (0.1, -2.0)):
        assert beam_gain(theta, psi, SONAR, c) == 0.0


def test_beam_gain_vertical_null():
    """First vertical null sits at asin(lambda / L_V)."""
    c = ENV_SHALLOW.sound_speed()
    lam = wavelength(c, SONAR.frequency_khz)
    psi_null = math.asin(lam / SONAR.vertical_len_m)
    assert beam_gain(0.0, psi_null, SONAR, c) == 0.0
    assert beam_gain(0.0, 0.9 * psi_null, SONAR, c) > 0.0


def test_beam_gain_symmetry_on_seeded_grid():
    c = ENV_SHALLOW.sound_speed()
    rng = np.random.default_rng(11)
    theta = rng.uniform(-1.4, 1.4, size=60)
    psi = rng.uniform(-1.4, 1.4, size=60)
    g = beam_gain(theta, psi, SONAR, c)
    g_mirror = beam_gain(-theta, -psi, SONAR, c)
    assert np.all(g >= 0.0) and np.all(g <= 1.0)
    np.testing.assert_allclose(g, g_mirror, rtol=0.0, atol=1e-12)


def test_beam_pattern_is_the_uncut_beam_gain():
    """beam_gain is beam_pattern, bit for bit, inside the open front
    hemisphere and 0 outside it, where beam_pattern is not cut."""
    c = ENV_SHALLOW.sound_speed()
    rng = np.random.default_rng(12)
    theta = rng.uniform(-math.pi / 2, math.pi / 2, size=200)
    psi = rng.uniform(-math.pi / 2, math.pi / 2, size=200)
    inside = (np.abs(theta) < math.pi / 2) & (np.abs(psi) < math.pi / 2)
    np.testing.assert_array_equal(beam_gain(theta, psi, SONAR, c)[inside],
                                  beam_pattern(theta, psi, SONAR, c)[inside])
    behind = (theta + math.pi, psi)
    assert np.all(beam_gain(*behind, SONAR, c) == 0.0)
    assert np.any(beam_pattern(*behind, SONAR, c) > 0.0)


def test_beam_pattern_is_continuous_at_the_hemisphere_edge():
    """The null model's row-end nodes lie on |theta| = pi/2 up to rounding;
    the pattern there must not depend on which side of the edge they fall."""
    c = ENV_SHALLOW.sound_speed()
    edge = math.pi / 2
    for psi in (0.0, 0.05, -0.3, 0.7, 1.2):
        at = beam_pattern(edge, psi, SONAR, c)
        assert at > 0.0
        for side in (-math.inf, math.inf):
            for theta in (np.nextafter(edge, side), -np.nextafter(edge, side)):
                assert beam_pattern(theta, psi, SONAR, c) == pytest.approx(
                    at, rel=1e-12)


def test_beam_pattern_loss_no_response_behind():
    c = ENV_SHALLOW.sound_speed()
    assert to_db(beam_gain(math.pi, 0.0, SONAR, c)) == NO_RESPONSE
    assert to_db(beam_gain(0.0, 0.0, SONAR, c)) == 0.0


def test_beam_orientation_normalizes_angle():
    b = BeamOrientation(pitch_rad=2.0 * math.pi + 0.3)
    assert b.pitch_rad == pytest.approx(0.3, abs=1e-12)
    assert BeamOrientation(pitch_rad=math.pi).pitch_rad == pytest.approx(
        math.pi)


# --- resolution, range, noise ------------------------------------------------


def test_range_resolution_exact():
    assert range_resolution(1500.0, 50000.0) == 0.015


def test_max_range_exact():
    assert max_range(1500.0, 15.0) == 50.0


def test_noise_components_frozen_values():
    # frozen from an independent evaluation at 450 kHz, wind 10 kn,
    # shipping density 0.5
    assert noise_turbulence(450.0) == pytest.approx(
        -62.596375413260304, abs=1e-9)
    assert noise_traffic(450.0, 0.5) == pytest.approx(
        -50.210962588385925, abs=1e-9)
    assert noise_sea_state(450.0, 10.0) == pytest.approx(
        13.933368813481152, abs=1e-9)
    assert noise_thermal(450.0) == pytest.approx(38.06425027550687, abs=1e-9)


def test_noise_thermal_reference():
    assert noise_thermal(1.0) == -15.0


def test_noise_level_power_sums_components():
    assert noise_level(450.0, ENV_SHALLOW) == pytest.approx(
        38.08099426233455, abs=1e-9)


def test_noise_level_band_adds_bandwidth():
    nl = noise_level(450.0, ENV_SHALLOW)
    assert noise_level_band(450.0, ENV_SHALLOW, 50000.0) == pytest.approx(
        85.07069430569473, abs=1e-9)
    assert noise_level_band(450.0, ENV_SHALLOW, 20000.0) == pytest.approx(
        nl + 10.0 * math.log10(20000.0), abs=1e-12)


# --- configuration validation -------------------------------------------------


def test_sonar_config_rejects_bad_values():
    good = dict(
        frequency_khz=450.0,
        bandwidth_hz=20000.0,
        source_level_db=0.0,
        ping_rate_hz=18.5,
        horizontal_len_m=0.005,
        vertical_len_m=0.010,
        bin_length_m=0.25,
    )
    for key, bad in (("frequency_khz", 0.0), ("bandwidth_hz", -1.0),
                     ("ping_rate_hz", 0.0), ("horizontal_len_m", 0.0),
                     ("vertical_len_m", -0.1), ("bin_length_m", 0.0),
                     ("num_rays", 0)):
        params = dict(good)
        params[key] = bad
        with pytest.raises(ValueError):
            SonarConfig(**params)
    for key in ("frequency_khz", "bandwidth_hz", "ping_rate_hz",
                "horizontal_len_m", "vertical_len_m", "bin_length_m"):
        with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
            SonarConfig(**{**good, key: math.inf})


SONAR_FIELDS = dict(frequency_khz=450.0, bandwidth_hz=20000.0,
                   source_level_db=0.0, ping_rate_hz=18.5,
                   horizontal_len_m=0.005, vertical_len_m=0.010,
                   bin_length_m=0.25)


def test_sonar_config_rejects_a_fractional_ray_count():
    with pytest.raises(ValueError, match="num_rays must be an integer"):
        SonarConfig(**SONAR_FIELDS, num_rays=2.5)


def test_sonar_config_rejects_a_boolean_ray_count():
    # True is an int to Python, but no ray count
    with pytest.raises(ValueError, match="num_rays must be an integer"):
        SonarConfig(**SONAR_FIELDS, num_rays=True)


def test_sonar_config_accepts_a_numpy_integer_ray_count():
    assert SonarConfig(**SONAR_FIELDS, num_rays=np.int64(7)).num_rays == 7


def test_environment_rejects_bad_values():
    with pytest.raises(ValueError):
        EnvironmentParams(
            temperature_c=10.0, salinity_ppt=35.0, depth_m=7.0,
            max_depth_m=12.0, ph=8.0, wind_knots=-1.0, shipping_density=0.5,
            particle_density_db=-90.0, bottom_type=2.0,
        )
    with pytest.raises(ValueError):
        EnvironmentParams(
            temperature_c=10.0, salinity_ppt=35.0, depth_m=7.0,
            max_depth_m=12.0, ph=8.0, wind_knots=10.0, shipping_density=1.5,
            particle_density_db=-90.0, bottom_type=2.0,
        )
    # non-finite values, which would turn a ping's bins into nan
    good = dict(
        temperature_c=10.0, salinity_ppt=35.0, depth_m=7.0, max_depth_m=12.0,
        ph=8.0, wind_knots=10.0, shipping_density=0.5,
        particle_density_db=-90.0, bottom_type=2.0,
    )
    EnvironmentParams(**good)
    for key in ("wind_knots", "ph", "particle_density_db", "max_depth_m"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                EnvironmentParams(**{**good, key: bad})
