"""A fixed reference computation that measures the machine's current speed.

On a machine shared with other tenants the same job can take 1.5 times
longer a few minutes later, or halfway through itself.  Timing this
reference right before and after every job, and every INTERVAL seconds
while it runs, gives the speed the job actually ran at.  The benchmark
reports each time scaled to the reference speed:

    calibrated seconds = (measured seconds - time spent sampling)
                         * REFERENCE_S / mean reference time

The reference is benchmark code that no change to teleroute touches:
breadth-first searches over adjacency lists (the dict, deque and list
work the routers and the verifier do), numpy passes over a bit matrix
(the stabilizer tableau's kind of work) and small float32 matrix
products (the exact expansion enumeration's).
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from contextlib import contextmanager

import numpy as np

# median reference time on the development machine (2-vCPU VM, Python
# 3.11, numpy 2.4) in a quiet minute; it only fixes the scale of the
# calibrated seconds
REFERENCE_S = 0.0045
REPEATS = 5
MATMULS = 70
INTERVAL = 0.2   # seconds between samples inside a timed region

_SIDE = 24
_ADJ = [[] for _ in range(_SIDE * _SIDE)]
for _r in range(_SIDE):
    for _c in range(_SIDE):
        _v = _r * _SIDE + _c
        if _c + 1 < _SIDE:
            _ADJ[_v].append(_v + 1)
            _ADJ[_v + 1].append(_v)
        if _r + 1 < _SIDE:
            _ADJ[_v].append(_v + _SIDE)
            _ADJ[_v + _SIDE].append(_v)
_BITS = (np.arange(512 * 512, dtype=np.uint32) * 2654435761 % 251 % 2
         ).astype(np.uint8).reshape(512, 512)
_MEMBER = _BITS[:, :24].astype(np.float32)
_CUT = _BITS[:24, 24:48].astype(np.float32)


def _reference() -> int:
    total = 0
    for src in range(0, len(_ADJ), 37):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(sorted(dist.values())[-10:])
    rows = _BITS
    for k in range(1, 32):
        rows = rows ^ np.roll(_BITS, k, axis=1)
    inside = _MEMBER
    for _ in range(MATMULS):
        inside = np.minimum(inside @ _CUT, 1.0)
    return total + int(rows.sum()) + int(inside.sum())


def reference_time() -> float:
    """Median seconds of REPEATS runs of the reference computation."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Reference samples taken on SIGALRM every INTERVAL seconds inside
    ``sampling()``, plus the blocks timed around it by ``calibrate``.
    ``on_sample(start, end)`` is called for each sample, so a tracer can
    keep it out of the span it interrupted."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        if self.on_sample is not None:
            self.on_sample(start, end)

    @contextmanager
    def sampling(self):
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, before: float, after: float) -> float:
        """Factor from this region's measured seconds to calibrated
        seconds, given the reference blocks timed around it."""
        return REFERENCE_S / statistics.fmean([before, after, *self.samples])
