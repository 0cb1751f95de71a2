"""A fixed calibration kernel that measures how fast the machine runs right now.

The shared machine's speed drifts, in CPU time too: the kernel below takes
about 3.8 ms in one moment and 6-7 ms in the next, switching within
seconds, and a run's median moves by 10-15% from run to run.  The kernel
mixes what the package's hot loops do (scalar ``math`` calls in a Python
loop, as in ``bemt``; small numpy vector ops, interpolation and solves, as
in ``q3e``, ``beamforming`` and ``neuro``).  While a pass runs, a profiling
timer interrupts it every ``PERIOD_S`` of CPU time and the signal handler
times one kernel run.  The benchmark scales the pass's CPU times by
``REFERENCE_MS / mean kernel time`` of its samples, so that they read as on
a machine where the kernel takes ``REFERENCE_MS``.  The handler's own CPU
time is left out of ``clock()``, the clock every timing uses.  A set-up
is scaled by ten kernel runs made right after it.

The kernel uses only the standard library and numpy, never the package, so
a change to the package cannot change it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 5.0  # a kernel run takes this long on the reference machine
PERIOD_S = 0.2  # CPU time between two samples


def kernel() -> float:
    acc = 0.0
    for i in range(6000):
        x = 0.001 * i
        acc += math.sin(x) * math.cos(x) + math.atan2(x, 1.0 + x)
    grid = np.linspace(0.0, 1.0, 64)
    m = np.outer(grid, grid) + np.eye(64)
    for _ in range(300):
        v = np.interp(grid * 0.9, grid, grid**2)
        acc += float(np.dot(m[0], v)) + float(np.tanh(v).sum())
    for _ in range(30):
        acc += float(np.linalg.solve(m, grid)[0])
    return acc


def block(runs: int) -> list[float]:
    """CPU times in ms of ``runs`` kernel runs made now."""
    times = []
    for _ in range(runs):
        t0 = time.thread_time()
        kernel()
        times.append(1e3 * (time.thread_time() - t0))
    return times


class Sampler:
    """Times one kernel run every ``PERIOD_S`` of CPU time, from a SIGPROF handler."""

    def __init__(self):
        self.samples: list[float] = []  # kernel CPU times in ms
        self.spent = 0.0  # CPU seconds spent in the handler
        self._busy = False

    def take(self) -> None:
        """Time one kernel run now."""
        ms = block(1)[0]
        self.samples.append(ms)
        self.spent += 1e-3 * ms

    def _on_signal(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self.take()
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


SAMPLER = Sampler()


def clock() -> float:
    """CPU time of the calling thread in seconds, without the time spent taking samples.

    The workloads run in one thread (BLAS too), so this is their CPU time.
    Not ``time.process_time``: while a profiling timer is armed, Linux
    advances the process clock only at scheduler ticks (every few ms), while
    the thread clock stays exact.
    """
    return time.thread_time() - SAMPLER.spent


def scale(samples: list[float]) -> float:
    """Factor that turns CPU times measured alongside ``samples`` into reference-machine times."""
    return REFERENCE_MS / statistics.fmean(samples)
