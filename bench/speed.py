"""Speed gauge: how fast the machine runs right now, for adjusting timings.

On a shared host a process's speed swings by half for tens of seconds at a
time, as other tenants come and go, so two runs of the same code can read
50% apart.  The gauge times a fixed reference kernel between ops.  The kernel
works like the package does, small numpy calls from a Python loop, so it
slows with the package, and it calls no amdl code, so no change to amdl can
speed it up.  An adjusted time is `ms * REF_MS / gauge`: what the op would
have taken had the kernel taken REF_MS, its time on a quiet machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 1.4          # the kernel's time on the quiet 2-core x86 host it was tuned on
WINDOW_S = 1.0        # readings this close to a stretch of work set its speed

_VECS = [np.random.default_rng(v).random(64) for v in range(4)]


def kernel() -> float:
    """The fixed reference work."""
    g = np.random.default_rng(1)
    total = 0.0
    for i in range(80):
        for a in _VECS:
            total += float(np.dot(a, a)) + float(a.max())
        w = np.exp(-_VECS[i % 4])
        w /= w.sum()
        total += int(np.bincount(g.integers(0, 64, size=32), minlength=64).argmax())
    return total


def reading(calls: int) -> float:
    """The kernel's time now, in ms: the median of `calls` timed calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def adjust(ms: float, gauge_ms: float, slope: float = 1.0) -> float:
    """`ms` measured while the kernel took `gauge_ms`, at the kernel's quiet
    speed, for code whose time goes as the kernel's to the power `slope`."""
    return ms * (REF_MS / gauge_ms) ** slope


class Gauge:
    """Readings taken between stretches of measured work.

    The runner reads before each op and after the last; an op may read
    inside itself too, between its phases.  `read` ends the stretch of work
    in progress, takes a reading and starts the next stretch, so its own
    time is in no stretch.  A stretch belongs to the op current when it ran."""

    def __init__(self, calls: int):
        self.calls = calls
        self.readings: list[float] = []
        self.at: list[float] = []           # perf_counter when each reading began
        self.stretches: list[tuple[int, float, float]] = []   # op, start, end
        self._op: int | None = None
        self._t0 = 0.0

    def _close(self) -> None:
        if self._op is not None:
            self.stretches.append((self._op, self._t0, time.perf_counter()))

    def read(self) -> None:
        self._close()
        self.at.append(time.perf_counter())
        self.readings.append(reading(self.calls))
        self._t0 = time.perf_counter()

    def start(self, op: int) -> None:
        self._op, self._t0 = op, time.perf_counter()

    def stop(self) -> None:
        self._close()
        self._op = None

    def op_ms(self, ops: int, slope: float) -> tuple[list[float], list[float]]:
        """Each op's time, as measured and adjusted.  The host switches
        between fast and slow spells within a second, faster than a reading
        next to a short op can follow, so a stretch is taken to have run at
        the mean of the readings begun within WINDOW_S of it; these include
        the readings at both its ends."""
        raw, adj = [0.0] * ops, [0.0] * ops
        at, g = np.array(self.at), np.array(self.readings)
        for op, t0, t1 in self.stretches:
            near = g[np.searchsorted(at, t0 - WINDOW_S):np.searchsorted(at, t1 + WINDOW_S)]
            ms = 1e3 * (t1 - t0)
            raw[op] += ms
            adj[op] += adjust(ms, float(near.mean()), slope)
        return raw, adj
