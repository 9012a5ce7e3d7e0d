"""Reference-normalised timing.

The machine this benchmark was built on drifts between fast and slow
states that last from a fraction of a second to tens of seconds, so raw
wall times of the same work differ by a third between processes.  A
sampler thread therefore runs a small fixed reference kernel every 15 ms
for the whole run.  The normalised duration of an interval is its wall
time, less the time the kernel itself took, scaled by the mean of
(nominal kernel time / measured kernel time) over the samples taken
during the interval: the integral of the machine's relative speed.

The kernel is one Brandes-style breadth-first pass on an 8 x 8 grid,
indexing small numpy arrays from a pure-Python loop, plus a few
small-array numpy calls: the two kinds of work the package does.
Measured on that machine, it tracked both the sampler and the centrality
code to 4-5% per half-second stretch where the raw times varied by 20%;
a 10 ms kernel timed only before and after each stretch left 17% for the
sampler and 26% for centrality (28% raw), because the state changes
within a stretch.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# The kernel's time on an unloaded machine in its fast state.
NOMINAL_KERNEL_S = 200e-6
SAMPLE_INTERVAL_S = 0.015
# Intervals holding fewer than three samples borrow the samples this close.
_PAD_S = 0.05

_SIDE = 8
_NEIGHBOURS = [[j for j in (i - 1, i + 1, i - _SIDE, i + _SIDE)
                if 0 <= j < _SIDE * _SIDE and (abs(j - i) != 1 or j // _SIDE == i // _SIDE)]
               for i in range(_SIDE * _SIDE)]
_PSI = np.linspace(-2.0, 2.0, 169)


def reference_kernel() -> float:
    """Path counts and dependencies from one corner of an 8 x 8 grid."""
    n = len(_NEIGHBOURS)
    sigma = np.zeros(n)
    dist = np.full(n, np.inf)
    sigma[0], dist[0] = 1.0, 0.0
    order, head = [0], 0
    while head < len(order):
        u = order[head]
        head += 1
        du = dist[u]
        for v in _NEIGHBOURS[u]:
            if dist[v] == np.inf:
                dist[v] = du + 1
                order.append(v)
            if dist[v] == du + 1:
                sigma[v] += sigma[u]
    delta = np.zeros(n)
    for w in reversed(order):
        for v in _NEIGHBOURS[w]:
            if dist[v] == dist[w] - 1:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
    lam = np.exp(np.clip(_PSI + delta[0] * 1e-3, -30.0, 30.0))
    return float(delta.sum() + lam.sum())


class Clock:
    """Samples the reference kernel in a thread and normalises intervals."""

    def __init__(self):
        self._starts = []
        self._ends = []
        self.intervals = []         # wall intervals of the package's timed calls
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="reference-kernel",
                                        daemon=True)
        self._thread.start()

    def _sample(self):
        while True:
            start = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            self._ends.append(end)
            self._starts.append(start)
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def kernel_times(self) -> list:
        count = len(self._starts)
        return [e - s for s, e in zip(self._starts[:count], self._ends[:count])]

    def normalise(self, start: float, end: float) -> float:
        """Reference-normalised seconds of the wall interval [start, end]."""
        count = len(self._starts)
        starts, ends = self._starts[:count], self._ends[:count]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(ends, end)
        busy = sum(ends[i] - starts[i] for i in range(lo, hi))
        if hi - lo < 3:
            lo = bisect.bisect_left(starts, start - _PAD_S)
            hi = bisect.bisect_right(ends, end + _PAD_S)
        if hi <= lo:
            raise RuntimeError("no reference-kernel samples near the interval")
        speed = statistics.fmean(NOMINAL_KERNEL_S / (ends[i] - starts[i]) for i in range(lo, hi))
        return (end - start - busy) * speed

    def timed(self, fn, *args, **kwargs):
        """Run fn; return (result, its reference-normalised seconds)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.intervals.append((start, end))
        return result, self.normalise(start, end)

    def inside(self, t: float) -> bool:
        """Whether t falls in one of the timed intervals."""
        return any(start <= t <= end for start, end in self.intervals)
