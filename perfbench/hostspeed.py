"""Host speed probe: turns measured seconds into seconds at a fixed host speed.

On a shared host the same CPU work can take 1.6x longer for a minute or
more, because other tenants load the physical cores; the process's own
CPU time slows just as much, so no clock removes it. The benchmark
therefore times a fixed reference computation next to the phases it
measures and scales their seconds by REFERENCE_S over the mean of the
probes taken around them: the seconds they would take on this host when
the reference runs in REFERENCE_S. Probes on both sides of a phase (and
inside a long one) follow the host's speed better than one factor for a
whole run, since a slow spell can start or end within a run. The
reference uses numpy only, never flsim, so a change to flsim cannot
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference's duration, in seconds, at the host speed the scaled
# seconds refer to (about its median on a 2-vCPU Xeon virtual machine).
REFERENCE_S = 0.030
PROBE_REPS = 10

_DATA = np.random.default_rng(20221012).random(50_000)
_SMALL = _DATA[:64]


def reference_work() -> float:
    """Fixed work with the mix flsim runs: vector math, sorting and
    scatter-adds on arrays of 10^4-10^5 elements, and many numpy calls on
    small arrays from a Python loop, as in the null model's quadrature."""
    x, total = _DATA, 0.0
    for _ in range(5):
        total += float(np.sum(np.sqrt(x) * np.sin(x)))
        total += float(np.sort(x)[-1])
        total += float(np.bincount((x * 1000).astype(np.intp), weights=x).sum())
    for k in range(3000):
        total += float(np.sum(_SMALL * k)) + k % 7
    return total


def probe() -> float:
    """Mean duration of the reference work over PROBE_REPS runs (about
    0.2-0.3 s in all): the host's average speed at this moment."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def factor(probes) -> float:
    """Factor from measured seconds to seconds at the reference speed, for
    work whose probes took these seconds."""
    return REFERENCE_S / statistics.fmean(probes)
