"""The machine's speed during a run, from a fixed kernel timed between ops.

On a shared host the speed of one core drifts by a third or more, in
phases that last from seconds to minutes: another tenant's load slows
every instruction, so CPU time drifts as much as wall time does.  A run
of a fixed length cannot average such phases away.  The benchmark
therefore times, between its ops, a fixed kernel of the same kind of work
as the program (a Python loop and small numpy calls on fixed inputs, none
of it from mparray), and reports times scaled to the speed at which the
kernel takes REFERENCE_S.  Each op run is scaled by the two samples that
bracket it, so a phase change within a run is followed too:

    scaled time = measured time * REFERENCE_S / (mean of the two samples)

A change to the program does not change the kernel, so it moves the
scaled time as it moves the measured one.  The measured times are printed
beside every scaled figure.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure for the kernel's time on the machine the benchmark was
# defined on (a 2-core Intel Xeon virtual machine, numpy 2.4, Python 3.11),
# where its median ran from about 2.3 to 4.7 ms at different hours.
REFERENCE_S = 0.003
# Least time between two kernel samples during a run.
INTERVAL_S = 0.1


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._poly = rng.standard_normal(25)
        self._signal = rng.standard_normal(4096)
        self.samples: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> None:
        s = 0
        for i in range(12000):
            s += i * i % 7
        for _ in range(12):
            np.roots(self._poly)
            np.fft.rfft(self._signal)

    def sample(self) -> float:
        """Time the kernel once and keep the sample.

        The kernel runs once untimed first, so the timed run finds its own
        data in the caches, whatever the program's op left there.
        """
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self._last = time.perf_counter()
        return dt

    def sample_due(self) -> None:
        """Time the kernel if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale_at(self, mark: int) -> float:
        """Factor from measured to reference seconds for an op run between
        samples ``mark - 1`` and ``mark``: the mean of those two samples."""
        return REFERENCE_S / statistics.fmean(self.samples[max(mark - 1, 0):mark + 1])
