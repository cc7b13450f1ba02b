"""Machine-speed probe: durations of program work corrected for a shared host.

On a shared host the benchmark sees stretches of seconds in which all code
runs up to 1.8x slower.  CPU time slows as much as wall time, so this is
not preemption that CPU time could leave out.  While a timed region runs,
`SpeedProbe` runs a fixed reference loop (stdlib Fraction arithmetic,
about 4 ms) from a SIGALRM handler every INTERVAL seconds and records when
each run of the loop started and ended.  The loop uses no program code, so
a change to the program cannot move it.

`probe.busy(a, b)` is the duration of [a, b] without the loop's own time.
`probe.steady(a, b)` also scales each stretch between two runs of the loop
by (REFERENCE_LOOP_S / local loop time); the local loop time is the median
of the NEAR readings before and the NEAR after the stretch.  It is the
time the work takes at the reference speed, the speed at which the loop
takes REFERENCE_LOOP_S, so it does not depend on how much of a run the
host spent in slow stretches.  A fixed reference, not the fastest reading
of each run, because some runs never see an undisturbed stretch.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.1  # seconds between runs of the reference loop
# the loop's time in undisturbed stretches on a 2-core Intel Xeon VM with
# Python 3.11 was 3.1-3.5 ms
REFERENCE_LOOP_S = 0.0032
# readings on each side of a stretch whose median is its local loop time:
# two slow outliers among six cannot move it
NEAR = 3


def reference_loop() -> Fraction:
    s, a = Fraction(0), Fraction(3, 7)
    for i in range(1, 600):
        s += a * Fraction(i, i + 1) - Fraction(1, i)
    return s


class SpeedProbe:
    """Context manager; readings are taken on entry, on exit and every
    INTERVAL seconds in between."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._saved = None

    def _reading(self, signum=None, frame=None) -> None:
        # with the collector off, the loop's time does not depend on how
        # many objects the program holds
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "SpeedProbe":
        self._reading()
        self._saved = signal.signal(signal.SIGALRM, self._reading)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._reading()
        return False

    def loop_times(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def stretches(self, a: float, b: float) -> list[tuple[float, float]]:
        """(overlap with [a, b], local loop time) for every stretch between
        two readings that overlaps [a, b]; the stretches before the first
        and after the last reading take the loop time of that reading."""
        loops = self.loop_times()
        k = len(loops)
        out = []
        j = bisect.bisect_right(self.ends, a)  # the stretch that holds a
        while j <= k:
            lo = self.ends[j - 1] if j > 0 else a
            hi = self.starts[j] if j < k else b
            if lo >= b:
                break
            near = loops[max(j - NEAR, 0):j + NEAR]
            out.append((max(0.0, min(hi, b) - max(lo, a)), statistics.median(near)))
            j += 1
        return out

    def busy(self, a: float, b: float) -> float:
        return sum(overlap for overlap, _ in self.stretches(a, b))

    def steady(self, a: float, b: float) -> float:
        return steady_time(self.stretches(a, b))


def steady_time(stretches: list[tuple[float, float]]) -> float:
    """Duration of the stretches, each scaled from its local loop time to
    the reference loop time."""
    return sum(overlap * REFERENCE_LOOP_S / local for overlap, local in stretches)
