"""The batched nested-node quadrature kernel against the row-by-row oracle.

The oracle is the null model's quadrature as it was before batching: each
row on its own, every estimate a fresh trapezoid sum over np.linspace nodes,
the panel count doubling from 16 until two estimates agree to TOLERANCE_DB.
The kernel must return the same estimate, up to rounding, at the same panel
count, for every row of a batch. The oracle ignores the kernel's mirror-half
fold (even), so a folded row is checked against its full grid.
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
from flsim import NO_RESPONSE, QuadratureError, build_scene, expected_null, to_db
from flsim.geometry import beam_angles_surface, rotate_to_sonar_frame
from flsim.runner import compute_null

# database=None stores no examples, but Hypothesis caches the constants it
# finds in local source files under its home directory; keep that cache out
# of the tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

KERNEL = nullmodel._nested_trapezoid


# --- the oracle ---------------------------------------------------------------------


def _trapz(values, dx):
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _trapz2(values, dx, du):
    inner = dx * (values.sum(axis=0) - 0.5 * (values[0, :] + values[-1, :]))
    return float(du * (inner.sum() - 0.5 * (inner[0] + inner[-1])))


def _converged(previous, current):
    if previous == 0.0 and current == 0.0:
        return True
    if previous <= 0.0 or current <= 0.0:
        return False
    return abs(10.0 * math.log10(current / previous)) <= nullmodel.TOLERANCE_DB


def oracle_row(f, row, a, b, dims):
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
        if _converged(previous, current):
            return current, n
        previous = current
    return None, n


def oracle_kernel(f, lo, hi, dims, even=False):
    """Drop-in for nullmodel._nested_trapezoid that integrates row by row,
    every row unfolded: it ignores even."""
    estimates, panels = np.zeros(len(lo)), np.zeros(len(lo), dtype=int)
    for r, (a, b) in enumerate(zip(lo, hi)):
        if b - a <= 0.0:
            continue
        value, n = oracle_row(f, r, a, b, dims)
        if value is None:
            raise QuadratureError("oracle did not converge", r)
        estimates[r], panels[r] = value, n
    return estimates, panels


# --- batches of random rows -----------------------------------------------------------


def _record_kernel(average, *args):
    """Run average(*args) and return every kernel call it made, as
    (f, lo, hi, dims, result), result being the kernel's return value or
    the QuadratureError it raised."""
    calls = []

    def recording(f, lo, hi, dims, even=False):
        try:
            result = KERNEL(f, lo, hi, dims, even)
        except QuadratureError as err:
            result = err
        calls.append((f, np.asarray(lo), np.asarray(hi), dims, result))
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
    for f, lo, hi, dims, result in calls:
        if isinstance(result, QuadratureError):
            for r in range(result.row):
                assert oracle_row(f, r, lo[r], hi[r], dims)[0] is not None
            failed = result.row
            assert oracle_row(f, failed, lo[failed], hi[failed], dims)[0] is None
            continue
        estimates, panels = result
        for r in range(len(lo)):
            want, n = oracle_row(f, r, lo[r], hi[r], dims)
            assert panels[r] == n
            assert abs(estimates[r] - want) <= 1e-12 * abs(want)


angles = st.floats(-1.2, 1.2)
yaws = st.one_of(st.just(0.0), st.floats(-0.6, 0.6))


@st.composite
def orientation_lists(draw, yaw, pitch=angles):
    """The orientation list one average integrates: receive and transmit
    (sometimes the same)."""
    rx = (draw(pitch), draw(yaw))
    tx = draw(st.one_of(st.just(rx), st.tuples(pitch, yaw)))
    return [rx, tx]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    rho=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6),
    z=st.one_of(st.floats(0.5, 15.0), st.floats(-15.0, -0.5)),
    orientations=orientation_lists(yaws),
    chunk=st.sampled_from((7, 100, nullmodel.CHUNK_NODES)),
)
def test_ring_rows_match_oracle(scenario1, rho, z, orientations, chunk):
    c = scenario1.env.sound_speed()
    with mock.patch.object(nullmodel, "CHUNK_NODES", chunk):
        calls = _record_kernel(
            nullmodel._ring_averages, rho, z, orientations, scenario1.sonar, c)
    _assert_matches_oracle(calls)


turns = st.floats(-math.pi, math.pi, exclude_min=True)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    rho=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0)), min_size=1,
                 max_size=4),
    z=st.one_of(st.floats(0.5, 15.0), st.floats(-15.0, -0.5)),
    orientations=orientation_lists(turns, turns),
)
def test_ring_arcs_match_front_hemisphere(rho, z, orientations):
    """A point of a ring lies in a returned row exactly when it has
    beam-frame x > 0 for every orientation, on 20 001 azimuths measured
    from the receive arc's centre, away from the row ends; and a row end
    strictly inside (-pi, pi) lies on a hemisphere edge (x = 0), so a row
    lies in the closed front hemispheres, where the null evaluates the
    uncut pattern."""
    owner, lo, hi, centre = nullmodel._ring_arcs(rho, z, orientations)
    assert np.all(np.diff(owner) >= 0)
    assert np.all((-math.pi <= lo) & (lo < hi) & (hi <= math.pi))
    theta = np.linspace(-math.pi, math.pi, 20_001)
    for k, r in enumerate(rho):
        world = theta + centre[k]
        v = np.stack([r * np.cos(world), r * np.sin(world),
                      np.full_like(world, z)], axis=-1)
        front = np.all([rotate_to_sonar_frame(v, pitch, yaw)[:, 0] > 0.0
                        for pitch, yaw in orientations], axis=0)
        inside = np.zeros(theta.size, bool)
        far = np.ones(theta.size, bool)
        for a, b in zip(lo[owner == k], hi[owner == k]):
            inside |= (theta >= a) & (theta <= b)
            far &= (np.abs(theta - a) > 1e-9) & (np.abs(theta - b) > 1e-9)
        np.testing.assert_array_equal(inside[far], front[far])
        for end in np.concatenate([lo[owner == k], hi[owner == k]]):
            if abs(end) < math.pi:
                w = end + centre[k]
                point = [r * math.cos(w), r * math.sin(w), z]
                x = [rotate_to_sonar_frame(point, pitch, yaw)[0]
                     for pitch, yaw in orientations]
                assert min(map(abs, x)) <= 1e-9 * (r + abs(z))


cutoffs = st.one_of(st.just(math.inf), st.floats(0.0, math.pi / 2.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    gates=st.lists(st.tuples(cutoffs, cutoffs), min_size=1, max_size=4),
    yawed=st.booleans(),
    data=st.data(),
    chunk=st.sampled_from((300, nullmodel.CHUNK_NODES)),
)
def test_shell_rows_match_oracle(scenario1, gates, yawed, data, chunk):
    orientations = data.draw(
        orientation_lists(st.floats(0.05, 0.6) if yawed else st.just(0.0)))
    c = scenario1.env.sound_speed()
    theta_ha, theta_hd = (np.array(side) for side in zip(*gates))
    with mock.patch.object(nullmodel, "CHUNK_NODES", chunk):
        calls = _record_kernel(
            nullmodel._shell_averages, theta_ha, theta_hd, orientations,
            scenario1.sonar, c)
    _assert_matches_oracle(calls)


# --- the mirror-half fold ------------------------------------------------------------


even_rows = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 3.0)),  # half-width
              st.floats(0.1, 2.0),   # Gaussian width over the half-width
              st.floats(0.0, 0.9),   # cosine amplitude
              st.floats(0.0, 20.0),  # cosine cycles over the half-width
              st.floats(-0.9, 0.9)),  # slope in u, not even
    min_size=1, max_size=5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=even_rows, dims=st.sampled_from((1, 2)),
       chunk=st.sampled_from((7, 100, nullmodel.CHUNK_NODES)))
def test_folded_rows_match_unfolded(rows, dims, chunk):
    """On integrands even in x over symmetric intervals, the folded kernel
    gives the unfolded estimates at the same panel counts."""
    half, width, amp, cycles, slope = (np.array(t)[:, None, None]
                                       for t in zip(*rows))

    def f(r, x, u):
        x2 = x * x / (half[r] * half[r])
        even = np.exp(-x2 / width[r] ** 2) * (
            1.0 + amp[r] * np.cos(cycles[r] * np.sqrt(x2)))
        if u is None:
            return even
        return even * (1.0 + slope[r] * u + u * u * x2)

    lo = -half[:, 0, 0]
    with mock.patch.object(nullmodel, "CHUNK_NODES", chunk):
        folded, folded_panels = KERNEL(f, lo, -lo, dims, True)
        full, full_panels = KERNEL(f, lo, -lo, dims, False)
    np.testing.assert_array_equal(folded_panels, full_panels)
    np.testing.assert_allclose(folded, full, rtol=1e-12, atol=0.0)


def test_scenario2_null_gain_evaluations(scenario2):
    """Work tripwire, independent of host speed: compute_null(scenario2)
    evaluates 144 662 ring gains and 3 177 620 in all (nodes times distinct
    orientations). With a zero-gain node at every hemisphere-edge row end
    it evaluated 263 958 and 3 296 916; without the mirror-half fold,
    6 464 212 in all."""
    evaluations = {"ring": 0, "shell": 0}
    gain_product = nullmodel._gain_product

    def counting(v, orientations, angles, *args):
        kind = "ring" if angles is beam_angles_surface else "shell"
        evaluations[kind] += v.size // 3 * len(dict.fromkeys(orientations))
        return gain_product(v, orientations, angles, *args)

    with mock.patch.object(nullmodel, "_gain_product", counting):
        compute_null(scenario2)
    assert evaluations["ring"] <= 160_000
    assert evaluations["ring"] + evaluations["shell"] <= 3_250_000
    print(f"compute_null(scenario2) evaluated {evaluations} gains")


# --- whole curves -----------------------------------------------------------------------


def _assert_curves_match_oracle(scenario, beam):
    args = (build_scene(scenario), scenario.sonar, scenario.pose, beam)
    got = expected_null(*args)
    with mock.patch.object(nullmodel, "_nested_trapezoid", oracle_kernel):
        want = expected_null(*args)
    for name in ("bottom", "surface", "volume"):
        a, b = to_db(getattr(got, name)), to_db(getattr(want, name))
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
