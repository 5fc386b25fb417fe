"""A speed probe that makes timings on a shared machine comparable.

A shared 2-core Xeon VM changes speed by up to 1.8x in phases lasting from
seconds to minutes (other tenants on the host), which puts 15-40% of spread
between runs of identical work.  While a run measures,
a SIGALRM handler times a fixed exact-arithmetic kernel every INTERVAL
seconds.  A measured interval is then reported as

    (wall time - time spent in the probe) * REFERENCE_S / mean probe time,

that is, in seconds at the speed at which the probe takes REFERENCE_S.

The probe runs in the program's process, so it shares the interpreter and
the program's heap.  Its kernel frees everything it allocates and runs with
the garbage collector off, so it never collects the program's heap.  Against
an int-only kernel ticking beside it, which cancels the machine's speed, its
time moved by under 3% (the resolution of that test) between three of the
workloads and between synthetic Fraction-heavy, Fraction-free and
1.5M-object-heap work.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

perf = time.perf_counter

INTERVAL = 0.005
REFERENCE_S = 170e-6  # the probe's typical time on a 2-core Xeon with Python 3.11
MIN_SAMPLES = 20  # samples behind each speed estimate
STALL = 2.0  # a tick this many times the typical one was stalled

_THIRD = Fraction(1, 3)


def _kernel() -> None:
    s = Fraction(0)
    for i in range(30):
        s = s + _THIRD * Fraction(i % 7, 5)


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 80%: a tick that pays for a garbage collection is not a speed."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Probe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.on_tick = None  # called with each tick's duration, e.g. to take it off open spans
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # the kernel frees all it allocates; it must not start a collection of the program's heap
        start = perf()
        _kernel()
        duration = perf() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.durations.append(duration)
        if self.on_tick is not None:
            self.on_tick(duration)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _speed(self, lo: int, hi: int) -> float:
        """Typical probe time of the ticks lo..hi, or of the nearest MIN_SAMPLES for a short interval."""
        if hi - lo < MIN_SAMPLES:
            pad = (MIN_SAMPLES - (hi - lo) + 1) // 2
            lo, hi = max(0, lo - pad), min(len(self.durations), hi + pad)
        return trimmed_mean(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second of program time in [start, end)."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return REFERENCE_S / self._speed(lo, hi)

    def normalize(self, start: float, end: float, cpu: float | None = None) -> float:
        """The interval [start, end) in reference seconds, probe time excluded;
        or, given the process CPU time spent in it, that CPU time likewise.

        A stalled tick (a collection, or the process preempted) counts only a
        typical tick's time as the probe's: the stall would have hit the
        program all the same."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        speed = self._speed(lo, hi)
        probe_s = sum(d if d < STALL * speed else speed for d in self.durations[lo:hi])
        spent = (end - start) if cpu is None else cpu
        return (spent - probe_s) * REFERENCE_S / speed
