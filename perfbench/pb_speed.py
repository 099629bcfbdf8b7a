"""Machine speed, measured with a fixed reference loop.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU KVM guest (Xeon, Sapphire Rapids) the same pure-Python loop took
anywhere from 5.5 to 8.8 ms within twenty seconds, and wall times of the
program's ops drifted with it, by more than any bound a regression gate
could use.

So the benchmark times this loop, which no change to the program
touches, next to the program's ops, and reports every time in
*reference seconds*: wall time multiplied by ``NOMINAL_S / loop time``,
with the loop timed around it.  That is the time the work would take
with the machine at the speed at which it runs the loop in
``NOMINAL_S``, the loop's usual time on that guest.  A faster program
shows as fewer reference seconds; a faster machine does not.

Nothing here imports anything but the standard library: ``run.py``
imports it first, to time the loop where set-up begins.
"""

import bisect
import signal
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

#: iterations of the reference loop
ITERATIONS = 10_000

#: the loop's usual time on the 2-vCPU guest above, in seconds
NOMINAL_S = 0.002


def _once() -> float:
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(ITERATIONS):
        total += (i * i) % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def loop_seconds() -> float:
    """Wall seconds the reference loop takes now: the faster of two runs,
    so that an interrupt landing in one does not read as a slow machine."""
    return min(_once(), _once())


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second over an interval the loop was
    timed before and after."""
    return NOMINAL_S / ((before + after) / 2.0)


class Meter:
    """Loop timings along a run, and the reference seconds of any
    interval of it.

    Samples are taken by :meth:`sample` between ops, or every ``period``
    seconds by a ``SIGALRM`` handler inside :meth:`periodic`, which
    interrupts a long op so that its speed is known all along it.  Between
    two samples the speed is taken as their mean.  Time spent taking a
    sample is not part of any interval.
    """

    def __init__(self) -> None:
        # (perf_counter when taken, loop seconds, seconds the sample took)
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        loop = loop_seconds()
        self.samples.append((start, loop, time.perf_counter() - start))

    @contextmanager
    def periodic(self, period: float) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def integrate(self, start: float, end: float) -> Tuple[float, float]:
        """(wall seconds, reference seconds) from ``start`` to ``end``,
        less the samples taken inside.  Needs a sample before ``start``
        and one after ``end``."""
        times = [s[0] for s in self.samples]
        k = bisect.bisect_right(times, start) - 1
        if k < 0 or times[-1] < end:
            raise ValueError("interval not bracketed by samples")
        wall = reference = 0.0
        lo = start
        while lo < end:
            t, loop, took = self.samples[k]
            lo = max(lo, t + took)
            t_next, loop_next, _ = self.samples[k + 1]
            hi = min(end, t_next)
            if hi > lo:
                wall += hi - lo
                reference += (hi - lo) * scale(loop, loop_next)
            lo = hi
            k += 1
        return wall, reference
