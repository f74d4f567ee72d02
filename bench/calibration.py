"""Calibration kernels that measure the machine's current speed for pure-Python work.

A shared machine's CPU speed can drift by a third over tens of seconds.
The benchmark times these kernels between jobs and scales each job time by
CAL_REF / calibrate(), which gives its time at a reference speed and removes
most of that drift from run-to-run comparisons.  The kernels never touch the
library, so they cannot hide a change in it.
"""

import gc
import math
from bisect import bisect_left
from time import perf_counter

# The kernels take about CAL_REF seconds on an x86-64 2-core VM under CPython 3.11.
CAL_REF = 0.01


def calibrate():
    """Seconds for two fixed kernels, each the best of 3 tries.

    Library code slows with these kernels: one splices long sorted tuples
    (like a carrier of capacity 250), the other slices short tuples into a
    dict (like the small-state and table work).  The garbage collector is
    off while they run, so the size of the library's heap does not leak
    into them.
    """
    gc.disable()
    try:
        return _best_of_3(_splice_kernel) + _best_of_3(_slice_kernel)
    finally:
        gc.enable()


def _best_of_3(kernel):
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def _splice_kernel():
    carrier = tuple(sorted(i * 7919 % 5 + 1 for i in range(250)))
    for i in range(1200):
        v = i % 5 + 1
        j = bisect_left(carrier, v) - 1
        carrier = carrier[:j] + (v,) + carrier[j + 1 :] if j >= 0 else (v,) + carrier[:-1]


def _slice_kernel():
    window, table = tuple(range(16)), {}
    for i in range(12000):
        window = window[1:] + (i,)
        table[i & 1023] = window
