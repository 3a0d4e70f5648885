"""Host-speed-normalized timing.

On a shared host the same code runs up to about 40% slower for tens of
seconds to minutes at a time, and CPU time drifts as much as wall time (the
slowdown is in the hardware, not in scheduling).  No run length within the
benchmark's budget averages that away.  So every timed op is bracketed by
samples of a fixed pure-Python reference loop, and its wall time is rescaled
to *reference seconds*: seconds on a host where the reference loop takes
``REFERENCE_S``.  The reference never touches booktri, so a change to the
program moves normalized times exactly as it moves wall times at a fixed host
speed.  Raw wall times are kept in each run's record next to the results.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.002  # defines the unit: the reference loop's nominal duration
SAMPLE_EVERY_S = 0.1  # at most this long between two reference samples
_ITERATIONS = 5000


def reference() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    x, acc = 0x5DEECE66D, 0
    for _ in range(_ITERATIONS):
        x = (x * 0x5DEECE66D + 11) & 0xFFFFFFFFFFFF
        acc += (x & (x >> 7)).bit_count()
    return time.perf_counter() - t0


class Sampler:
    """Reference samples taken between ops, each tagged with the index of the
    op it precedes (the last one with the op count)."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self._at = 0.0

    def before(self, i: int) -> None:
        if i == 0 or time.perf_counter() - self._at >= SAMPLE_EVERY_S:
            self.samples.append((i, reference()))
            self._at = time.perf_counter()

    def finish(self, count: int) -> None:
        self.samples.append((count, reference()))

    def normalize(self, latencies: list[float]) -> list[float]:
        """Each latency in reference seconds, scaled by the mean of the last
        sample before its op and the first sample after it."""
        out = []
        k = 0
        for i, t in enumerate(latencies):
            while self.samples[k + 1][0] <= i:
                k += 1
            speed = (self.samples[k][1] + self.samples[k + 1][1]) / 2
            out.append(t * REFERENCE_S / speed)
        return out
