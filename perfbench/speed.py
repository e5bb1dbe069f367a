"""Reference seconds: request and import times with the machine's speed
taken out.

A shared virtual machine's speed moves by up to half, in streaks that last
from seconds to minutes, so a 30 s run can fall wholly in a fast or a slow
stretch and its raw times then differ by 30% from the same run an hour
later.  A fixed pure-Python kernel is timed beside the work: at most every
KERNEL_EVERY_S between requests, and in each interpreter that times the
import.  Over a window of KERNEL_WINDOW kernel timings, each request time
is scaled by REFERENCE_KERNEL_S / the window's median kernel time, which
is the time it would have taken on a machine where the kernel takes
REFERENCE_KERNEL_S.  The kernel uses nothing of the engine, so a change to
the engine moves reference seconds as much as it moves wall time.

Timed beside a fixed batch of requests on a shared 2-core VM, the kernel's
time correlated 0.65-0.91 with the batch's on the three workloads, closer
than an integer loop or Fraction elimination alone, and scaling by it cut
the spread of batch times by a fifth to a half.  Over sets of ten 30 s runs per
workload, one per seed, the spread (interquartile range / median) of the
runs' median request times was 5-29% measured and 2-7% scaled.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's time at the reference speed: about its median on a shared
# 2-core VM under Python 3.11.
REFERENCE_KERNEL_S = 0.004
KERNEL_EVERY_S = 0.1
KERNEL_WINDOW = 9


def kernel():
    """A pure-Python integer loop, then exact elimination on a fixed 7 x 7
    Fraction matrix: the two kinds of work the engine does most."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] += 7
    for c in range(n):
        for r in range(n):
            if r != c:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return s, m


def kernel_time(repeats: int = 5) -> float:
    """Median time of `repeats` kernel runs."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return statistics.median(out)


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


class Clock:
    """Collects request times and kernel timings in time order, and scales
    each window of KERNEL_WINDOW kernel timings' requests by that window's
    median kernel time."""

    def __init__(self):
        kernel_time()  # warm-up
        self.last = float("-inf")
        self.kernels = []  # every kernel timing, for the report
        self.window_kernels = []
        self.window = []
        self.scaled = []
        self.median = None

    def tick(self):
        """Call before each request: times the kernel if it is due."""
        now = time.perf_counter()
        if now - self.last < KERNEL_EVERY_S:
            return
        k = kernel_time(1)
        self.kernels.append(k)
        self.window_kernels.append(k)
        self.last = time.perf_counter()

    def add(self, seconds: float):
        self.window.append(seconds)
        if len(self.window_kernels) >= KERNEL_WINDOW:
            self._close()

    def _close(self):
        if self.window_kernels:
            self.median = statistics.median(self.window_kernels)
        self.scaled += [to_reference(t, self.median) for t in self.window]
        self.window, self.window_kernels = [], []

    def finish(self) -> list[float]:
        """Request times in reference seconds, in the order added."""
        if self.window:
            self._close()
        return self.scaled

    def kernel_median(self) -> float:
        return statistics.median(self.kernels)
