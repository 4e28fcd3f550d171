"""Reference-speed timing on a shared CPU.

On a shared host the CPU a process runs on switches, every few seconds,
between a fast state and states up to about 2.5 times slower (another tenant
on the same core), independently for each CPU.  Raw wall times of the same
job then spread by 25-35 % over minutes, more than any useful bound.

So the benchmark pins itself and the processes it starts to one CPU, and a
background thread times a fixed exact-arithmetic loop on that CPU every
``PERIOD_S``.  A span measured in ``[start, end]`` is rescaled by
``REFERENCE_S / (mean probe time inside the span)``: the result is the time
the span would take at the speed at which the probe loop takes
``REFERENCE_S`` seconds.  The probe takes about 2 % of the CPU, a constant
share that the rescaling does not remove.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.02
# about the probe loop's fastest time on the 2-vCPU Intel Xeon host the
# benchmark was tuned on, so there reference seconds match uncontended seconds
REFERENCE_S = 0.0003
MIN_SAMPLES = 3


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and so every thread and child it starts later,
    to the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(1, i)
    return acc


class SpeedProbe:
    """Background thread sampling the current CPU's speed; use as a context
    manager so the thread is stopped and joined."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while len(self.samples) < MIN_SAMPLES:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            _probe_work()
            self.samples.append((start, time.perf_counter()))
            self._stop.wait(PERIOD_S)

    def scale(self, start: float, end: float) -> float:
        """Factor turning seconds measured in [start, end] into seconds at the
        reference speed.  Uses the samples inside the span, or the nearest
        ``MIN_SAMPLES`` when the span is too short to hold that many."""
        samples = list(self.samples)
        inside = [b - a for a, b in samples if a >= start and b <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] + s[1] - 2 * middle))
            inside = [b - a for a, b in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.mean(inside)
