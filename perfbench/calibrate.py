"""Reference kernel that tracks how fast the machine runs at the moment.

On a shared machine the same computation can take 1.8 times as long from
one second to the next, for reasons outside the program.  The benchmark
therefore times this fixed pure-Python kernel (exact rational arithmetic,
like misolab's own hot path) between requests and reports times scaled to
NOMINAL_S:

    reported = measured * NOMINAL_S / mean(kernel times)

The kernel's times cluster at two speeds that alternate within a second.
GAP_SAMPLES kernel runs are taken between every two requests, and a
request is scaled by those taken within one request length (at least
MIN_WINDOW_S) before its start and after its end: a short request by the
runs just around it, a long one by the speed over a span as long as
itself on either side.

The kernel is part of the benchmark, so no change to misolab changes it.
It runs with the garbage collector off: its Fractions would otherwise
trigger collections that walk every object misolab keeps alive, and a
change that keeps more alive would slow the kernel and so shrink its own
reported times.

Raw times and the run's speed factor are printed with every result.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Kernel time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11.7) in a quiet period.  It fixes the scale of reported times
# and must not change, or results before and after stop being comparable.
NOMINAL_S = 0.004
GAP_SAMPLES = 3
MIN_WINDOW_S = 0.05


def reference_kernel():
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 1000):
        acc = acc * x + Fraction(i, i + 1)
        if acc.denominator > 10 ** 30:
            acc = Fraction(acc.numerator % 1000, 7)
    return acc


def sample():
    """Wall time of one kernel run with the garbage collector off, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def gap():
    """Kernel times taken between two requests."""
    return [sample() for _ in range(GAP_SAMPLES)]


def slowdown(samples):
    """How much slower than nominal the machine ran, on average over these samples."""
    return statistics.fmean(samples) / NOMINAL_S


def window_slowdown(gaps, start, end):
    """Slowdown over the kernel runs in `gaps`, (time taken, kernel times)
    pairs, that lie within one request length of the request [start, end]."""
    reach = max(end - start, MIN_WINDOW_S)
    return slowdown([t for when, g in gaps if start - reach <= when <= end + reach for t in g])
