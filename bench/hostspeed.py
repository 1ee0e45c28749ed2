"""Host-speed calibration for the timing metrics.

On a shared VM the same call can take 1.5-2x longer for tens of seconds
while neighbours are busy, with no steal time reported, so medians of raw
times spread across runs by more than any useful bound.  Every timed
call is therefore bracketed by a fixed calibration loop, and its times
are reported at the reference speed: ``t * CAL_REF_S / cal``, where
``cal`` is the mean of the loops just before and just after the call.  The
loop uses no barlineage code, so a change to the program cannot move it.
Raw times stay in each run's record.
"""

from __future__ import annotations

import time

CAL_ITERS = 5000
# the loop's time on a quiet 2-core Intel Xeon VM (Python 3.11, numpy 2.4);
# a constant, so reported times are comparable across runs and commits
CAL_REF_S = 0.0112


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    import numpy as np

    a = np.arange(1024.0)
    s = 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        s += (a * 1.0001).sum()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal: float) -> float:
    return seconds * CAL_REF_S / cal
