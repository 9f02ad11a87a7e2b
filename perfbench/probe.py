"""Host-speed probe: a fixed piece of numpy work, timed between calls.

The shared 2-vCPU host this benchmark was built on runs the same
instructions at a rate that drifts by 10-30% over seconds to minutes, while
process CPU time tracks wall time (the slowdown is not lost scheduling).
Averaging over a run does not remove drift between runs, so every timed
call is scaled by the host's speed around it:

    scaled = elapsed * NOMINAL_S / local probe time

The probe is 20 sweeps of the benchmark's own batched see-saw on one fixed
d = 3 pair: the same mix of small numpy calls and Python dispatch as the
program's see-saw, about 3 ms. It never calls the program, so a change of
the program cannot change what the probe does. ``NOMINAL_S`` is the probe's
median time on the reference host; a scaled time is thus the time the call
would have taken at that host's typical speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from checks import _see_saw_batch
from corpus import haar_unitary

NOMINAL_S = 0.0029
SWEEPS = 20
# A single probe's time scatters by about 20% (interquartile range over its
# median), so after a long call, which leaves few probes per second, each
# gap takes up to MAX_PER_GAP of them: about GAP_SHARE of the call's time.
GAP_SHARE = 0.02
MAX_PER_GAP = 16
# Each call is scaled by the median of the two probes before it and the two after.
HALF_WINDOW = 2

_rng = np.random.default_rng(20130119)
_KETS = np.concatenate([haar_unitary(3, _rng).T for _ in range(2)])
_WEIGHTS = np.ones((2, 3))
_DIRECTIONS = _KETS.reshape(2, 3, 3)


def probe_s() -> float:
    """Time of one probe, in seconds."""
    start = time.perf_counter()
    _see_saw_batch(_KETS, _WEIGHTS, _DIRECTIONS, SWEEPS)
    return time.perf_counter() - start


def gap_probe_s(previous_call_s: float) -> float:
    """Median probe time at a gap between calls, after a call that took ``previous_call_s``."""
    count = min(MAX_PER_GAP, max(1, round(GAP_SHARE * previous_call_s / NOMINAL_S)))
    return statistics.median(probe_s() for _ in range(count))


def scale_factors(probes: list[float]) -> list[float]:
    """NOMINAL_S / local probe time for each call between consecutive probes.

    ``probes`` holds one gap's probe time before each call and one after
    the last, so call i sits between probes i and i + 1.
    """
    factors = []
    for i in range(len(probes) - 1):
        window = probes[max(0, i + 1 - HALF_WINDOW) : i + 1 + HALF_WINDOW]
        factors.append(NOMINAL_S / statistics.median(window))
    return factors
