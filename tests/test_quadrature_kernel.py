"""The batched nested-node quadrature kernel against the row-by-row oracle.

The oracle is the null model's quadrature as it was before batching: each
row on its own, every estimate a fresh trapezoid sum over np.linspace nodes,
the panel count doubling from 16 until two estimates agree to TOLERANCE_DB.
The kernel must return the same estimate, up to rounding, at the same panel
count, for every row of a batch.
"""

import math
import tempfile
import time
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import flsim.nullmodel as nullmodel
from flsim import NO_RESPONSE, QuadratureError, expected_null
from flsim.runner import compute_null

# database=None stores no examples, but Hypothesis caches the constants it
# finds in local source files under its home directory; keep that cache out
# of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

KERNEL = nullmodel._nested_trapezoid
MODES = ("coupled", "independent", "printed")


# --- the oracle ---------------------------------------------------------------------


def _trapz(values, dx):
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _trapz2(values, dx, du):
    inner = dx * (values.sum(axis=0) - 0.5 * (values[0, :] + values[-1, :]))
    return float(du * (inner.sum() - 0.5 * (inner[0] + inner[-1])))


def _converged(previous, current, signed):
    if signed:
        return abs(current - previous) <= nullmodel.TOLERANCE_DB
    if previous == 0.0 and current == 0.0:
        return True
    if previous <= 0.0 or current <= 0.0:
        return False
    return abs(10.0 * math.log10(current / previous)) <= nullmodel.TOLERANCE_DB


def oracle_row(f, row, a, b, dims, signed):
    """(estimate, panels) of one row by panel doubling on linspace nodes;
    estimate is None when the row has not converged at the panel cap."""
    rows = np.array([row])

    def estimate(n):
        x = np.linspace(a, b, n + 1)[None, :, None]
        if dims == 1:
            return _trapz(f(rows, x, None)[0, :, 0], (b - a) / n)
        u = np.linspace(0.0, 1.0, n + 1)
        return _trapz2(f(rows, x, u)[0], (b - a) / n, 1.0 / n)

    cap = nullmodel.MAX_PANELS
    max_panels = cap if dims == 1 else math.isqrt(cap)
    n = 16
    previous = estimate(n)
    while n < max_panels:
        n *= 2
        current = estimate(n)
        if _converged(previous, current, signed):
            return current, n
        previous = current
    return None, n


def oracle_kernel(f, lo, hi, dims, signed):
    """Drop-in for nullmodel._nested_trapezoid that integrates row by row."""
    estimates, panels = np.zeros(len(lo)), np.zeros(len(lo), dtype=int)
    for r, (a, b) in enumerate(zip(lo, hi)):
        if b - a <= 0.0:
            continue
        value, n = oracle_row(f, r, a, b, dims, signed)
        if value is None:
            raise QuadratureError("oracle did not converge", r)
        estimates[r], panels[r] = value, n
    return estimates, panels


# --- batches of random rows -----------------------------------------------------------


def _record_kernel(average, *args):
    """Run average(*args) and return every kernel call it made, as
    (f, lo, hi, dims, signed, result), result being the kernel's return
    value or the QuadratureError it raised."""
    calls = []

    def recording(f, lo, hi, dims, signed):
        try:
            result = KERNEL(f, lo, hi, dims, signed)
        except QuadratureError as err:
            result = err
        calls.append((f, np.asarray(lo), np.asarray(hi), dims, signed, result))
        if isinstance(result, QuadratureError):
            raise result
        return result

    with mock.patch.object(nullmodel, "_nested_trapezoid", recording):
        try:
            average(*args)
        except QuadratureError:
            pass
    return calls


def _assert_matches_oracle(calls):
    assert calls
    for f, lo, hi, dims, signed, result in calls:
        if isinstance(result, QuadratureError):
            for r in range(result.row):
                assert oracle_row(f, r, lo[r], hi[r], dims, signed)[0] is not None
            failed = result.row
            assert oracle_row(f, failed, lo[failed], hi[failed], dims, signed)[0] is None
            continue
        estimates, panels = result
        for r in range(len(lo)):
            want, n = oracle_row(f, r, lo[r], hi[r], dims, signed)
            assert panels[r] == n
            assert abs(estimates[r] - want) <= 1e-12 * abs(want)


angles = st.floats(-1.2, 1.2)
yaws = st.one_of(st.just(0.0), st.floats(-0.6, 0.6))


@st.composite
def orientation_lists(draw, yaw):
    """The orientation list one average integrates: receive and transmit in
    "coupled" mode (sometimes the same), else one orientation."""
    mode = draw(st.sampled_from(MODES))
    rx = (draw(angles), draw(yaw))
    if mode != "coupled":
        return mode, [rx]
    tx = draw(st.one_of(st.just(rx), st.tuples(angles, yaw)))
    return mode, [rx, tx]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rho=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6),
    z=st.one_of(st.floats(0.5, 15.0), st.floats(-15.0, -0.5)),
    modes=orientation_lists(yaws),
    chunk=st.sampled_from((7, 100, nullmodel.CHUNK_NODES)),
)
def test_ring_rows_match_oracle(scenario1, rho, z, modes, chunk):
    mode, orientations = modes
    c = scenario1.env.sound_speed()
    with mock.patch.object(nullmodel, "CHUNK_NODES", chunk):
        calls = _record_kernel(
            nullmodel._ring_averages, rho, z, orientations, scenario1.sonar, c,
            mode == "printed")
    _assert_matches_oracle(calls)


cutoffs = st.one_of(st.just(math.inf), st.floats(0.0, math.pi / 2.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    gates=st.lists(st.tuples(cutoffs, cutoffs), min_size=1, max_size=4),
    yawed=st.booleans(),
    data=st.data(),
    chunk=st.sampled_from((300, nullmodel.CHUNK_NODES)),
)
def test_shell_rows_match_oracle(scenario1, gates, yawed, data, chunk):
    mode, orientations = data.draw(
        orientation_lists(st.floats(0.05, 0.6) if yawed else st.just(0.0)))
    c = scenario1.env.sound_speed()
    theta_ha, theta_hd = (np.array(side) for side in zip(*gates))
    with mock.patch.object(nullmodel, "CHUNK_NODES", chunk):
        calls = _record_kernel(
            nullmodel._shell_averages, theta_ha, theta_hd, orientations,
            scenario1.sonar, c, mode == "printed")
    _assert_matches_oracle(calls)


# --- whole curves -----------------------------------------------------------------------


def _assert_curves_match_oracle(scenario, beam):
    args = (scenario.env, scenario.sonar, scenario.pose, beam)
    got = expected_null(*args, transmit_beam=scenario.transmitter)
    with mock.patch.object(nullmodel, "_nested_trapezoid", oracle_kernel):
        want = expected_null(*args, transmit_beam=scenario.transmitter)
    for name in ("bottom_db", "surface_db", "volume_db"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a == NO_RESPONSE, b == NO_RESPONSE), name
        live = a != NO_RESPONSE
        assert np.max(np.abs(a[live] - b[live]), initial=0.0) <= 1e-9, name


def test_scenario1_curves_match_oracle(scenario1):
    _assert_curves_match_oracle(scenario1, scenario1.sonar.beams[0])


def test_scenario2_down20_curves_match_oracle(scenario2):
    down20 = next(b for b in scenario2.sonar.beams if b.name == "down20")
    _assert_curves_match_oracle(scenario2, down20)


def test_scenario1_null_curves_take_under_1_5_s(scenario1):
    start = time.perf_counter()
    compute_null(scenario1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5
    print(f"compute_null(scenario1) took {elapsed * 1000.0:.0f} ms")
