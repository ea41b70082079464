"""A fixed pure-Python reference task that gauges the interpreter's speed.

The machines this benchmark runs on share cores with other tenants, and
their speed for interpreted Fraction arithmetic swings by up to 2x within
seconds. Every timing is therefore taken together with this task and
reported in calibrated seconds:

    (measured seconds - time spent in the task) * NOMINAL_S / median task time

While an operation runs, a `Probe` runs the task from a SIGALRM handler
every INTERVAL_S of wall time, so the speed is sampled during the
operation itself, not only around it. The task is exact rational
elimination written out here rather than shared with gates.py or taken
from lieconf, so that no change elsewhere can rescale the timings.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

# about the task's time on an uncontended 2.0 GHz x86-64 core, Python 3.11
NOMINAL_S = 0.0005
INTERVAL_S = 0.05

_rng = random.Random(20160819)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(8)] for _ in range(7)]


def _task() -> int:
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / top[col]
            rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _timed_task() -> float:
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start


def sample(runs: int = 9) -> float:
    """Median seconds of `runs` runs of the task, right now."""
    return statistics.median(_timed_task() for _ in range(runs))


class Probe:
    """Speed samples taken around and during one measured interval."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the handler took inside the interval

    def around(self) -> None:
        """Sample outside the measured interval."""
        self.samples.append(sample(3))

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_timed_task())
        self.spent += time.perf_counter() - start

    @contextmanager
    def running(self) -> Iterator["Probe"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def calibrate(self, seconds: float) -> float:
        return (seconds - self.spent) * NOMINAL_S / statistics.median(self.samples)
