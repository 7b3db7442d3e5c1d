import math

import numpy as np
import pytest

from flsim import (
    BinLayout,
    EnvironmentParams,
    HypothesisModel,
    NO_RESPONSE,
    PingReturn,
    SonarConfig,
    add_noise,
    decide,
    likelihood_ratios,
    noise_level_band,
    pd_pfa,
)

MODEL = HypothesisModel(
    null_mean_db=np.array([-100.0, -95.0, NO_RESPONSE, -90.0]),
    sigma_db=3.0,
    alt_offset_db=6.0,
)


# --- likelihood ratio ---------------------------------------------------------


def test_ratio_below_one_at_null_mean():
    lam = likelihood_ratios(np.array([-100.0, -95.0, NO_RESPONSE, -90.0]), MODEL)
    assert np.all((0.0 < lam[[0, 1, 3]]) & (lam[[0, 1, 3]] < 1.0))


def test_ratio_one_at_midpoint():
    # halfway between the hypotheses the evidence is exactly neutral
    lam = likelihood_ratios(np.array([-97.0, -92.0, NO_RESPONSE, -87.0]), MODEL)
    np.testing.assert_array_equal(lam[[0, 1, 3]], 1.0)


def test_ratio_frozen_value_three_sigma_up():
    """Measurement 3 sigma above the null with a 2 sigma offset gives
    exp(4)."""
    model = HypothesisModel(
        null_mean_db=np.array([-100.0]), sigma_db=3.0, alt_offset_db=6.0)
    (lam,) = likelihood_ratios(np.array([-91.0]), model)
    assert lam == pytest.approx(54.598150033144236, rel=1e-12)
    assert lam == pytest.approx(math.exp(4.0), rel=1e-15)


def test_ratios_vectorized():
    z = np.array([-100.0, -92.0, -50.0, NO_RESPONSE])
    lams = likelihood_ratios(z, MODEL)
    # exp((6 * (z - mu) - 18) / 9) in the two testable measured bins
    assert lams[0] == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert lams[1] == 1.0
    assert np.isnan(lams[2])  # excluded bin
    assert lams[3] == 0.0  # an empty measurement carries no evidence


def test_ratios_shape_mismatch():
    with pytest.raises(ValueError):
        likelihood_ratios(np.zeros(3), MODEL)


# --- decisions -----------------------------------------------------------------


def test_decide_threshold_and_ties():
    lams = np.array([0.5, 2.0, 2.0000001, np.nan])
    out = decide(lams, 2.0)
    np.testing.assert_array_equal(out, [0, 1, 1, 0])
    assert decide(2.0, 2.0) == 1  # ties decide for the obstacle


# --- closed-form operating point --------------------------------------------------


def test_pd_pfa_nonpositive_gamma():
    assert pd_pfa(0.0, MODEL) == (1.0, 1.0)
    assert pd_pfa(-3.0, MODEL) == (1.0, 1.0)


def test_pd_pfa_frozen_point():
    """offset = 2 sigma at gamma = 1 puts the z threshold one sigma above
    the null and one below the alternative."""
    model = HypothesisModel(
        null_mean_db=np.array([-100.0]), sigma_db=3.0, alt_offset_db=6.0)
    pd, pfa = pd_pfa(1.0, model)
    assert pfa == pytest.approx(0.15865525393145707, abs=1e-12)
    assert pd == pytest.approx(0.8413447460685429, abs=1e-12)


def test_pd_pfa_extreme_gamma():
    pd, pfa = pd_pfa(1e300, MODEL)
    assert pd == pytest.approx(0.0, abs=1e-12)
    assert pfa == pytest.approx(0.0, abs=1e-12)


def test_pd_pfa_monotone_in_gamma():
    gammas = np.logspace(-3, 5, 50)
    pds, pfas = zip(*(pd_pfa(float(g), MODEL) for g in gammas))
    assert all(b <= a + 1e-12 for a, b in zip(pds, pds[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(pfas, pfas[1:]))
    assert all(pd >= pfa for pd, pfa in zip(pds, pfas))


def test_pd_pfa_negative_offset_mirrored():
    model = HypothesisModel(
        null_mean_db=np.array([-100.0]), sigma_db=3.0, alt_offset_db=-6.0)
    pd, pfa = pd_pfa(1.0, model)
    assert pfa == pytest.approx(0.15865525393145707, abs=1e-12)
    assert pd == pytest.approx(0.8413447460685429, abs=1e-12)


def test_pd_pfa_monte_carlo_agreement():
    """Closed forms against a direct simulation of the test, within three
    standard errors."""
    model = HypothesisModel(
        null_mean_db=np.array([-100.0]), sigma_db=3.0, alt_offset_db=6.0)
    gamma = 4.0
    rng = np.random.default_rng(29)
    n = 1_000_000
    z_null = -100.0 + 3.0 * rng.standard_normal(n)
    z_alt = -94.0 + 3.0 * rng.standard_normal(n)
    lam_null = np.exp((6.0 * (z_null + 100.0) - 18.0) / 9.0)
    lam_alt = np.exp((6.0 * (z_alt + 100.0) - 18.0) / 9.0)
    pfa_mc = float(np.mean(lam_null >= gamma))
    pd_mc = float(np.mean(lam_alt >= gamma))
    pd, pfa = pd_pfa(gamma, model)
    se_pfa = math.sqrt(pfa * (1.0 - pfa) / n)
    se_pd = math.sqrt(pd * (1.0 - pd) / n)
    assert abs(pfa - pfa_mc) < 3.0 * se_pfa
    assert abs(pd - pd_mc) < 3.0 * se_pd


def test_model_requires_positive_sigma():
    with pytest.raises(ValueError):
        HypothesisModel(null_mean_db=np.array([-100.0]), sigma_db=0.0,
                        alt_offset_db=6.0)


@pytest.mark.parametrize("sigma_db, alt_offset_db", [
    (math.inf, 3.0), (math.nan, 3.0), (3.0, math.nan), (3.0, math.inf),
    (3.0, -math.inf), (1e200, 3.0), (1e-200, 3.0), (3.0, 1e200)])
def test_model_rejects_non_finite_parameters(sigma_db, alt_offset_db):
    """A non-finite spread or offset would make pd_pfa return (nan, nan),
    and one whose square is not finite and nonzero would overflow the test."""
    with pytest.raises(ValueError, match="must be finite"):
        HypothesisModel(null_mean_db=np.zeros(3), sigma_db=sigma_db,
                        alt_offset_db=alt_offset_db)


def test_pd_pfa_rejects_nan_gamma():
    with pytest.raises(ValueError, match="nan"):
        pd_pfa(math.nan, MODEL)
    assert pd_pfa(math.inf, MODEL) == (0.0, 0.0)


# --- ambient noise -------------------------------------------------------------


ENV = EnvironmentParams(
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

SONAR = SonarConfig(
    frequency_khz=450.0,
    bandwidth_hz=20000.0,
    source_level_db=0.0,
    ping_rate_hz=18.5,
    horizontal_len_m=0.005,
    vertical_len_m=0.010,
    bin_length_m=0.25,
)


def _empty_ping(num_bins):
    layout = BinLayout(bin_length_m=0.25, num_bins=num_bins)
    zeros = np.zeros(num_bins)
    return PingReturn(
        layout=layout,
        bottom=zeros.copy(),
        surface=zeros.copy(),
        object_=zeros.copy(),
        volume=zeros.copy(),
        multipath=zeros.copy(),
        noise=zeros.copy(),
    )


def test_add_noise_disabled_is_identity():
    pr = _empty_ping(16)
    out = add_noise(pr, SONAR, ENV, seed=1, enabled=False)
    np.testing.assert_array_equal(out.noise, np.zeros(16))
    np.testing.assert_array_equal(out.total, pr.total)


def test_add_noise_mean_level():
    """Sample mean over many bins approaches the band noise intensity."""
    pr = _empty_ping(100_000)
    out = add_noise(pr, SONAR, ENV, seed=2)
    want = 10.0 ** (noise_level_band(450.0, ENV, 20000.0) / 10.0)
    assert float(np.mean(out.noise)) == pytest.approx(want, rel=0.02)


def test_add_noise_deterministic():
    pr = _empty_ping(64)
    a = add_noise(pr, SONAR, ENV, seed=7)
    b = add_noise(pr, SONAR, ENV, seed=7)
    np.testing.assert_array_equal(a.noise, b.noise)
    c = add_noise(pr, SONAR, ENV, seed=8)
    assert not np.array_equal(a.noise, c.noise)
