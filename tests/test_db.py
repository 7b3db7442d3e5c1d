import math

import numpy as np
import pytest

from flsim import NO_RESPONSE, is_response, power_sum_db, to_db, to_linear


def test_no_response_is_negative_infinity():
    assert NO_RESPONSE == float("-inf")
    assert not is_response(NO_RESPONSE)
    assert is_response(-300.0)


def test_to_linear_scalar_and_no_response():
    assert to_linear(0.0) == 1.0
    assert to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert to_linear(NO_RESPONSE) == 0.0


def test_to_db_zero_maps_to_no_response():
    assert to_db(0.0) == NO_RESPONSE


def test_to_db_rejects_negative():
    with pytest.raises(ValueError):
        to_db(-1e-12)
    with pytest.raises(ValueError):
        to_db(np.array([1.0, -0.5]))


def test_to_db_rejects_nan():
    """NaN is no intensity: neither form may turn it into a dB value or
    into NO_RESPONSE."""
    with pytest.raises(ValueError):
        to_db(float("nan"))
    with pytest.raises(ValueError):
        to_db(np.array([1.0, np.nan]))


def test_to_db_array_masks_zeros():
    out = to_db(np.array([1.0, 0.0, 100.0]))
    assert out[0] == 0.0
    assert out[1] == NO_RESPONSE
    assert out[2] == pytest.approx(20.0, abs=1e-12)


def test_roundtrip_on_seeded_grid():
    rng = np.random.default_rng(7)
    values = rng.uniform(-180.0, 60.0, size=200)
    back = to_db(to_linear(values))
    np.testing.assert_allclose(back, values, atol=1e-10)


def test_power_sum_two_equal_components():
    # two equal levels add 10*log10(2) = 3.0103 dB
    total = power_sum_db([-50.0, -50.0, NO_RESPONSE])
    assert total == pytest.approx(-46.98970004336019, abs=1e-12)


def test_power_sum_ignores_no_response():
    assert power_sum_db([NO_RESPONSE, NO_RESPONSE]) == NO_RESPONSE
    assert power_sum_db([]) == NO_RESPONSE
    assert power_sum_db([-33.0, NO_RESPONSE]) == pytest.approx(-33.0, abs=1e-12)


def test_power_sum_matches_linear_sum_on_seeded_grid():
    """The dB power sum must agree with summing linear intensities to
    within 1e-9 dB, including entries that carry no energy."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        vals = rng.uniform(-150.0, 0.0, size=rng.integers(1, 12))
        drop = rng.random(vals.size) < 0.2
        vals[drop] = NO_RESPONSE
        got = power_sum_db(vals)
        lin = sum(10.0 ** (v / 10.0) for v in vals if v > NO_RESPONSE)
        want = 10.0 * math.log10(lin) if lin > 0.0 else NO_RESPONSE
        if want == NO_RESPONSE:
            assert got == NO_RESPONSE
        else:
            assert abs(got - want) < 1e-9
