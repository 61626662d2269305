"""Timing against a reference loop, for a host shared with other work.

On a shared host the speed a process gets drifts, by up to twice, over
tens of seconds as other tenants load the machine; a bare wall time then
measures the neighbours as much as the program. So while a region is
timed, an interval timer (SIGALRM) interrupts it every PERIOD_S seconds to
run and time a fixed pure-Python loop. The region's reported time is its
wall time, less the time spent in those interruptions, scaled by
REFERENCE_S / (the loop's mean time within the region): the seconds the
region would take at the speed at which the loop takes REFERENCE_S, about
that of a quiet 2-core Intel Xeon VM.

A change to the program moves the region's wall time and not the loop's,
so it moves the scaled time by the same share. On such a VM under load
from other tenants, over iterations of one workload the loop's mean time
correlated 0.97-0.99 with the wall time of `synthetic_cli_sweep` and
`memf_two_epoch`, and scaling cut the spread of the iteration times from
0.39 to 0.06 and from 0.21 to 0.03 ((q3 - q1) / median).

The handler runs between bytecodes of the main thread, so a long call
into compiled code delays a sample; it does not lose the region's time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
LOOP_N = 1500
REFERENCE_S = 2.0e-4


def _loop() -> float:
    table = {}
    acc = 0.0
    for i in range(LOOP_N):
        table[i & 255] = acc
        acc += (i * 0.5) % 3.0
    return acc


def _sample() -> float:
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Timed:
    """Context manager that times one region. After exit, `wall` is the
    region's wall time less the interruptions, `loop_s` the loop's mean
    time and `scaled` the wall time at the reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.wall = self.loop_s = self.scaled = 0.0

    def _tick(self, signum, frame):
        self.samples.append(_sample())
        self.spent += self.samples[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = elapsed - self.spent
        while len(self.samples) < 3:  # a region shorter than a few periods
            self.samples.append(_sample())
        self.loop_s = statistics.fmean(self.samples)
        self.scaled = self.wall * REFERENCE_S / self.loop_s
        return False
