"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the interpreter's speed changes by up to 1.7x
from one second to the next, and a slow phase can outlast a whole run.  The
runner times this kernel after every tenth of a second of jobs and scales
each job's wall time by ``REFERENCE_S / mean kernel time`` around it: the
job's time at the reference speed.  The mean, not the median, because a job's
time sums over the fast and the slow moments alike.  Over 100 s of
`fixtures-cli`, the jobs done in 10 s windows ranged over 1070-1599 while
their count times the window's mean kernel time stayed within 2.5% of its
mean.

The kernel does what the engine spends its time on (exact ``Fraction``
elimination on small matrices, and JSON encoding), with the standard library
only, so no change to the engine changes it.  It runs with the garbage
collector off, so the size of the engine's heap does not slow it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from fractions import Fraction

# The kernel's typical time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7); a time at reference speed is a wall time scaled by
# REFERENCE_S over the kernel's time on the machine that ran it.
REFERENCE_S = 0.009


def _matrices():
    rng = random.Random(0)
    return [[[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9)]
             for _ in range(7)] for _ in range(4)]


MATRICES = _matrices()


def _rref(m: list) -> list:
    m = [list(row) for row in m]
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m


def kernel() -> None:
    for m in MATRICES:
        json.dumps({"rows": [[str(x) for x in row] for row in _rref(m)]}, sort_keys=True)


def sample() -> float:
    """Seconds of one timed run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor from wall time to time at reference speed, over kernel samples
    taken around the timed work."""
    return REFERENCE_S / statistics.fmean(samples)
