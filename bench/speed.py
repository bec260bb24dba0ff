"""Machine-speed gauge for normalising times on a shared machine.

On a machine shared with other jobs, the speed of one core drifts by tens of
percent within seconds, far more than the changes the benchmark must
resolve.  The gauge times a fixed kernel of exact rational Gaussian
elimination (the benchmark's own code, not posetrep's), which slows down with
the core just as posetrep's pure-Python arithmetic does.  A time measured
between two gauge samples is rescaled to the reference speed:

    normalised = measured * REFERENCE_KERNEL_S / mean(gauge before, gauge after)

so a normalised time reads as the time the work would take on a core that
runs the kernel in ``REFERENCE_KERNEL_S`` seconds.  The program never runs
the kernel, so no change to the program can move the gauge.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median kernel time on the 2-core machine the benchmark was defined on.
REFERENCE_KERNEL_S = 6.7e-4
_SAMPLES = 3
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
           for i in range(6)]


def _kernel():
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def kernel_seconds():
    """Fastest of a few kernel runs: the core's current speed, without the
    odd interrupt or collection that lands on one run."""
    best = None
    for _ in range(_SAMPLES):
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        best = took if best is None or took < best else best
    return best


class Gauge:
    """Successive gauge samples; ``scale()`` closes one measured interval."""

    def __init__(self):
        self.last = kernel_seconds()

    def scale(self):
        """Factor turning a time measured since the previous call into a
        time at reference speed."""
        now = kernel_seconds()
        factor = REFERENCE_KERNEL_S / ((self.last + now) / 2)
        self.last = now
        return factor
