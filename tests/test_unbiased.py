"""Unbiasedness of the simulated ping against the analytic expectation, in
Monte-Carlo standard errors, component by component.

K seeded pings of N rays give each bin a mean and a standard error
SE = s / sqrt(K), with s the sample standard deviation (ddof 1). On the bins
where both the mean and the null respond, z = (mean - null) / SE. A ping's
bin sums many independent ray contributions, so its value is close to
normal, and for an unbiased simulator z follows Student's t with K - 1
degrees of freedom (Owen, Monte Carlo theory, methods and examples, 2013,
ch. 2). With K = 8 that is t_7, and the bounds below come from it, not from
the values seen today:

- The median of |t_7| is 0.711, and |t_7|'s density there is 0.583. The
  median of n independent draws is then close to normal with standard
  deviation 0.5 / (0.583 sqrt(n)) = 0.858 / sqrt(n), so the median |z| of
  the n bins must lie within 4 of those deviations of 0.711: [0.41, 1.01]
  at n = 133. A bias of one standard error lifts the median well above it.
- P(|t_7| > 4) = 0.0052, so the number of bins beyond |z| = 4 is
  Binomial(n, 0.0052). The bound is the smallest count that this
  distribution exceeds with probability below 1e-4: 6 at n = 141.

Each bound thus fails by chance with probability of order 1e-4, on any
seeds. The volume term is off: its null is biased (ROADMAP item 1).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from flsim import FlatBottom, build_scene, expected_null
from one_beam import ping_beam

K = 8
N_RAYS = 100_000
MEDIAN_ABS_T7 = 0.711
DENSITY_ABS_T7_AT_MEDIAN = 0.583
P_ABS_T7_BEYOND_4 = 0.0052


def most_bins_beyond_4(n):
    """The smallest count c with P(X > c) < 1e-4 for X ~ Binomial(n, p),
    p = P(|t_7| > 4)."""
    p, below = P_ABS_T7_BEYOND_4, 0.0
    for c in range(n + 1):
        below += math.comb(n, c) * p**c * (1.0 - p) ** (n - c)
        if 1.0 - below < 1e-4:
            return c
    return n


@pytest.mark.parametrize("case", ["scenario1", "scenario2_down20"])
def test_bottom_and_surface_are_unbiased_in_standard_errors(
        scenario1, scenario2, case):
    """scenario1's beam, and scenario2's down20 beam over a flat floor at
    the pose's altitude, with the volume term off: K pings of N rays per
    component against the null, by the t_7 bounds of the module docstring."""
    sc, beam = scenario1, scenario1.sonar.beams[0]
    if case == "scenario2_down20":
        sc, beam = scenario2, scenario2.sonar.beams[1]
        assert beam.name == "down20"
    pose = sc.pose
    scene = replace(build_scene(sc), volume_enabled=False,
                    bottom=FlatBottom(depth_m=pose.depth_m + pose.altitude_m))
    sonar = replace(sc.sonar, num_rays=N_RAYS)
    null = expected_null(scene, sonar, pose, beam)
    pings = [ping_beam(scene, sonar, pose, beam, seed=seed) for seed in range(K)]
    for name in ("bottom", "surface"):
        x = np.array([getattr(p, name) for p in pings])
        mean = x.mean(axis=0)
        se = x.std(axis=0, ddof=1) / math.sqrt(K)
        expected = getattr(null, name)
        both = (mean > 0.0) & (expected > 0.0)
        n = int(both.sum())
        assert n >= 100, name
        z = (mean[both] - expected[both]) / se[both]
        half_width = 4.0 * 0.5 / (DENSITY_ABS_T7_AT_MEDIAN * math.sqrt(n))
        median = float(np.median(np.abs(z)))
        assert abs(median - MEDIAN_ABS_T7) <= half_width, (
            f"{case} {name}: median |z| {median:.3f} over {n} bins, "
            f"expected {MEDIAN_ABS_T7} +- {half_width:.3f}")
        beyond = int(np.sum(np.abs(z) > 4.0))
        assert beyond <= most_bins_beyond_4(n), (
            f"{case} {name}: {beyond} of {n} bins beyond |z| = 4")
