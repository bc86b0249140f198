"""Times in reference-speed seconds, steady on a shared machine.

On a small shared machine the speed of the processor changes from one tenth
of a second to the next, by a quarter or more, because of other tenants. A
plain wall time then spreads too widely between runs to gate a change on it.
While a timed region runs, a timer signal every SAMPLE_INTERVAL_S runs a fixed
pure-Python reference kernel and records how long it took. A region's time is
then reported as

    (wall time - time spent in the sampler) * REFERENCE_NOMINAL_S / s

where s is the median kernel time sampled during the region, widened to at
least WINDOW_S on each side of its middle. The result is the region's time at
the speed where the kernel takes REFERENCE_NOMINAL_S, about the median speed
of a 2-core Xeon 2.1 GHz VM running Python 3.11. Raw wall times are reported
next to it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.025
WINDOW_S = 0.1
REFERENCE_ITERATIONS = 6250
REFERENCE_NOMINAL_S = 0.5e-3


def reference_kernel() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return total


class SpeedProbe:
    """Samples the reference kernel while the ``with`` block runs.

    ``spent`` is the time spent in the sampler so far, to be taken out of the
    timed regions; ``reference_seconds`` converts a region.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net_clock(self) -> float:
        """``time.perf_counter`` without the time spent in the sampler."""
        return time.perf_counter() - self.spent

    def reference_seconds(self, net: float, start: float, end: float) -> float:
        """Convert ``net`` seconds measured over [start, end] to reference speed."""
        middle = 0.5 * (start + end)
        lo = bisect.bisect_left(self.starts, min(start, middle - WINDOW_S))
        hi = bisect.bisect_right(self.starts, max(end, middle + WINDOW_S))
        if lo == hi:  # a long native call held the sampler off: use the nearest sample
            lo = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                     key=lambda i: abs(self.starts[i] - middle))
            hi = lo + 1
        return net * REFERENCE_NOMINAL_S / statistics.median(self.durations[lo:hi])
