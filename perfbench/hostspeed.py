"""The host's speed, sampled next to the measured work by a fixed loop.

On a shared host a CPU runs the same work up to 2x slower for seconds to
minutes at a time, while other tenants load it.  A wall time taken in such a
spell says more about the neighbours than about fleetcharge.  ``HostSpeed``
runs a fixed calibration loop right before and after each piece of measured
work, and ``scale`` turns that piece's wall seconds into *reference
seconds*: the seconds it would take on a host where the loop takes
``REF_LOOP_S``.  The program's code never runs inside the loop, so a change
to the program moves reference seconds exactly as it moves wall seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

LOOP_REPEATS = 5    # loops per sample; a sample keeps the fastest
REF_LOOP_S = 0.002  # the loop's time on the reference host
INTERVAL_S = 0.2    # wall time between samples inside a pass, at least


def calibration_loop() -> float:
    """Fixed work shaped like the program's: a Python loop over small arrays."""
    a = np.arange(64.0)
    acc = 0.0
    seen = {}
    for i in range(800):
        b = a * 1.0001 + i
        acc += float(b.sum())
        seen[i % 97] = acc
    return acc


class HostSpeed:
    """Samples of the calibration loop, in time order."""

    def __init__(self):
        self.mids = []    # perf_counter() at the middle of each sample
        self.loop_s = []  # fastest loop of each sample
        self.last_end = float("-inf")

    def sample(self):
        start = time.perf_counter()
        best = float("inf")
        for _ in range(LOOP_REPEATS):
            t0 = time.perf_counter()
            calibration_loop()
            best = min(best, time.perf_counter() - t0)
        self.last_end = time.perf_counter()
        self.mids.append((start + self.last_end) / 2.0)
        self.loop_s.append(best)

    def sample_if_due(self):
        """Sample when ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self.last_end >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end].

        Uses the mean loop time of the two samples around the interval's
        middle (the one sample there is at either end of the record).
        """
        i = bisect.bisect(self.mids, (start + end) / 2.0)
        near = self.loop_s[max(i - 1, 0):i + 1]
        return REF_LOOP_S / statistics.fmean(near) if near else 1.0

    def summary(self) -> dict:
        if not self.loop_s:
            return {}
        return {"samples": len(self.loop_s), "ref_loop_s": REF_LOOP_S,
                "loop_s_min": min(self.loop_s), "loop_s_median": statistics.median(self.loop_s),
                "loop_s_max": max(self.loop_s)}
