"""Likelihood-ratio obstacle detection against the expected return.

The measured per-bin level in dB is modeled as Gaussian around the analytic
expectation under the no-obstacle hypothesis, and around the expectation
shifted by a fixed offset when an obstacle adds coherent energy to the bin.
Both hypotheses share the spread sigma_db, so the likelihood ratio has the
closed form

    lambda_n = exp( (offset * (z_n - mu_n) - offset^2 / 2) / sigma^2 )

and a bin is flagged when lambda_n reaches the decision threshold gamma.
The detection and false-alarm probabilities of that test are Gaussian tail
integrals with closed forms used to calibrate gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .db import is_response, to_db
from .raysim import PingReturn


def _q_function(x: float) -> float:
    """Upper-tail probability of the standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class HypothesisModel:
    """Gaussian measurement model around the expected per-bin level.

    null_mean_db holds the expected level per bin (NO_RESPONSE bins carry
    no usable expectation and are excluded from testing), sigma_db the
    common spread, alt_offset_db the level shift under the obstacle
    hypothesis.
    """

    null_mean_db: np.ndarray
    sigma_db: float
    alt_offset_db: float

    def __post_init__(self):
        if not 0 < self.sigma_db * self.sigma_db < math.inf:
            raise ValueError("sigma_db must be finite and > 0, with a finite "
                             f"nonzero square, got {self.sigma_db}")
        if not math.isfinite(self.alt_offset_db * self.alt_offset_db):
            raise ValueError("alt_offset_db must be finite, with a finite "
                             f"square, got {self.alt_offset_db}")
        mean = np.asarray(self.null_mean_db, dtype=float)
        object.__setattr__(self, "null_mean_db", mean)

    @property
    def excluded(self) -> np.ndarray:
        """Bins with no expected return, where the test is undefined."""
        return ~is_response(self.null_mean_db)


def likelihood_ratios(z_db: np.ndarray, model: HypothesisModel) -> np.ndarray:
    """Per-bin likelihood ratios; excluded bins get nan."""
    z = np.asarray(z_db, dtype=float)
    if z.shape != model.null_mean_db.shape:
        raise ValueError(
            f"measurement shape {z.shape} does not match model "
            f"{model.null_mean_db.shape}"
        )
    delta = model.alt_offset_db
    sigma2 = model.sigma_db**2
    out = np.full(z.shape, np.nan)
    ok = ~model.excluded
    diff = z[ok] - model.null_mean_db[ok]
    # z = -inf (an empty bin) drives the exponent to -inf and the ratio to
    # zero for a positive offset, which is the sensible limit.
    with np.errstate(invalid="ignore"):
        exponent = (delta * diff - 0.5 * delta**2) / sigma2
    out[ok] = np.exp(exponent)
    return out


def decide(lam, gamma: float):
    """1 where the likelihood ratio reaches the threshold, else 0; nan
    ratios (excluded bins) decide 0."""
    lam = np.asarray(lam, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isnan(lam), 0, (lam >= gamma).astype(int))
    if out.ndim == 0:
        return int(out)
    return out


def pd_pfa(gamma: float, model: HypothesisModel) -> tuple:
    """Closed-form detection and false-alarm probabilities of the test
    lambda >= gamma under the two Gaussian hypotheses. Independent of the
    bin because the expectation cancels in the ratio. A nan gamma raises
    ValueError."""
    if math.isnan(gamma):
        raise ValueError("gamma must not be nan")
    if gamma <= 0.0:
        return 1.0, 1.0
    delta = model.alt_offset_db
    sigma = model.sigma_db
    if delta == 0.0:
        hit = 1.0 if gamma <= 1.0 else 0.0
        return hit, hit
    # Threshold on z implied by lambda >= gamma.
    offset_from_null = delta / 2.0 + sigma**2 * math.log(gamma) / delta
    # A negative offset flips the test's side: lambda grows as z falls.
    s = math.copysign(1.0, delta)
    pfa = _q_function(s * offset_from_null / sigma)
    pd = _q_function(s * (offset_from_null - delta) / sigma)
    return pd, pfa


@dataclass(frozen=True)
class DetectionResult:
    """Per-bin detector output for one ping."""

    z_db: np.ndarray
    lambdas: np.ndarray
    decisions: np.ndarray
    excluded: np.ndarray
    gamma: float
    pd: float
    pfa: float


def detect_ping(
    ping_return: PingReturn,
    null_return: PingReturn,
    *,
    gamma: float,
    sigma_db: float,
    alt_offset_db: float,
) -> DetectionResult:
    """Run the per-bin likelihood-ratio test of one simulated ping against
    the analytic expectation."""
    if ping_return.layout.num_bins != null_return.layout.num_bins:
        raise ValueError(
            "ping and expectation have different bin counts: "
            f"{ping_return.layout.num_bins} vs {null_return.layout.num_bins}"
        )
    model = HypothesisModel(
        null_mean_db=to_db(null_return.total),
        sigma_db=sigma_db,
        alt_offset_db=alt_offset_db,
    )
    z = to_db(ping_return.total)
    lambdas = likelihood_ratios(z, model)
    decisions = decide(lambdas, gamma)
    pd, pfa = pd_pfa(gamma, model)
    return DetectionResult(
        z_db=z,
        lambdas=lambdas,
        decisions=decisions,
        excluded=model.excluded,
        gamma=gamma,
        pd=pd,
        pfa=pfa,
    )
