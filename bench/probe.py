"""Machine-speed probe: a thread that times one fixed piece of work every 0.1 s.

The benchmark runs on a few cores of a shared host, whose speed for the same
work drifts by 20% and more over tens of seconds as other tenants come and
go.  A median over one run's rounds cannot remove a drift that lasts the
whole run.  The probe samples the speed of the very CPU the workload runs on
(``run.py`` pins the process to one CPU), all through every round, so a
round's wall time divided by the mean probe sample taken during it changes
with the program and hardly with the host's load.

A sample is about 2 ms of small-array NumPy calls from a Python loop, the
kind of work that carries most of every workload's time.  It is timed in
thread CPU time, so that the time the workload thread holds the CPU between
two of the probe's own steps is not counted.  (A second part that streamed
8 MB arrays through the last-level cache was tried beside it; over ten
seeds per workload on a shared 2-vCPU Xeon host it tracked the rounds worse
and widened the spread of the normalised figure on every workload.)  The
probe's work is fixed here and never calls the package, so no change to the
package can make it faster or slower.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
STEPS = 150  # about 2 ms: under the interpreter's 5 ms switch interval


class SpeedProbe:
    """Context manager that keeps sampling until it is left."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.normal(size=(40, 64))
        self._weights = rng.normal(size=(64, 2))
        self._times: list[float] = []  # perf_counter at the end of each sample
        self._samples: list[float] = []  # thread CPU seconds of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _sample(self) -> float:
        started = time.thread_time_ns()
        acc = 0.0
        for _ in range(STEPS):
            pooled = np.maximum(self._frames - 0.1, 0.0).max(axis=0)
            acc += float((pooled @ self._weights).sum())
        return (time.thread_time_ns() - started) / 1e9

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            sample = self._sample()
            self._samples.append(sample)  # before its time: readers bisect the times
            self._times.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # warm the code path before the first timed sample
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_between(self, start: float, end: float) -> float:
        """Mean sample time, in seconds, of the samples that ended in [start, end]."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        window = self._samples[lo:hi]
        if not window:
            raise RuntimeError(f"no probe sample between {start:.3f} and {end:.3f}")
        return statistics.fmean(window)
