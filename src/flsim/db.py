"""Decibel arithmetic helpers.

A bin or beam direction that returns no energy at all is represented by
NO_RESPONSE, which is -inf dB.  That value behaves correctly without special
cases: it absorbs dB-domain addition (adding a finite loss to no response is
still no response) and converts to exactly zero linear intensity, so power
sums simply skip it.
"""

from __future__ import annotations

import math

import numpy as np

NO_RESPONSE = float("-inf")


def is_response(value_db) -> bool:
    """True when a dB value carries energy (i.e. is not NO_RESPONSE)."""
    return value_db > NO_RESPONSE


def to_linear(value_db):
    """Convert dB to linear intensity. NO_RESPONSE maps to exactly 0."""
    if np.isscalar(value_db):
        return 10.0 ** (value_db / 10.0)
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0)


def to_db(linear):
    """Convert linear intensity to dB. Zero maps to NO_RESPONSE.

    Raises ValueError for negative or NaN intensities; they have no dB
    value.
    """
    if np.isscalar(linear):
        if not linear >= 0.0:
            raise ValueError(f"linear intensity must be >= 0, got {linear}")
        if linear == 0.0:
            return NO_RESPONSE
        return 10.0 * math.log10(linear)
    arr = np.asarray(linear, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("linear intensity must be >= 0")
    out = np.full(arr.shape, NO_RESPONSE)
    pos = arr > 0.0
    out[pos] = 10.0 * np.log10(arr[pos])
    return out


def power_sum_db(values_db) -> float:
    """Power-sum dB values: 10*log10(sum of linear intensities).

    NO_RESPONSE entries contribute nothing; an all-NO_RESPONSE (or empty)
    input yields NO_RESPONSE.
    """
    arr = np.asarray(values_db, dtype=float)
    if arr.size == 0:
        return NO_RESPONSE
    total = float(np.sum(to_linear(arr)))
    return to_db(total)
