"""A speed ruler: the machine's current speed, sampled while a workload runs.

On a shared 2-core x86-64 VM the speed of pure Python code was seen to
drift by +-30% over seconds to minutes, while the ratio of the workload's
time to a fixed reference computation stayed within a few percent.  So
every time the benchmark reports is scaled to a fixed reference speed:
value = measured program time * REFERENCE_NS / ruler time measured around
it.  The ruler is standard-library code only (Fraction sums into a
dict, an integer loop), so no change to the package can move it.

While a ``Ruler`` is active, SIGALRM fires every ``PERIOD_S`` in the main
thread (no threads are started) and runs one ruler sample.  ``clock()`` is
perf_counter_ns minus the time spent in samples, so program times exclude
the ruler.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# typical ruler time on a 2-core x86-64 VM under Python 3.11
REFERENCE_NS = 700_000
PERIOD_S = 0.1
WINDOW_NS = 1_000_000_000  # samples within 1 s of an interval describe it


def ruler_work() -> int:
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(200):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    s = 0
    for x in range(1500):
        s += x * x % 7
    return s + len(acc)


def sample_ns() -> int:
    t = time.perf_counter_ns()
    ruler_work()
    return time.perf_counter_ns() - t


def reference_scale(reps: int = 3) -> float:
    """REFERENCE_NS over the median of ``reps`` samples taken now."""
    return REFERENCE_NS / statistics.median(sample_ns()
                                            for _ in range(reps))


class Ruler:
    def __init__(self) -> None:
        self.times: list[int] = []  # perf_counter_ns at each sample
        self.durs: list[int] = []
        self.stolen = 0  # ns spent in samples so far

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter_ns()
        ruler_work()
        d = time.perf_counter_ns() - t
        self.times.append(t)
        self.durs.append(d)
        self.stolen += d

    def __enter__(self) -> "Ruler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(3):  # so that even a very short run has samples
            self._tick(None, None)

    def clock(self) -> int:
        """perf_counter_ns without the time spent in ruler samples."""
        while True:
            stolen = self.stolen
            t = time.perf_counter_ns()
            if stolen == self.stolen:
                return t - stolen

    def stolen_between(self, start: int, end: int) -> int:
        lo = bisect_left(self.times, start)
        return sum(self.durs[lo:bisect_right(self.times, end)])

    def scale(self, start: int, end: int) -> float:
        """REFERENCE_NS over the median sample near [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_NS)
        hi = bisect_right(self.times, end + WINDOW_NS)
        return REFERENCE_NS / statistics.median(self.durs[lo:hi]
                                                or self.durs)
