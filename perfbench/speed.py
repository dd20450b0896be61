"""The speed of the core a worker runs on, sampled while the worker runs.

On a shared host the same work can take 1.5 times as long for minutes at a
time, because the core itself runs slower (wall time equals CPU time).  A
worker therefore times a fixed reference kernel, which calls no loopnet
code, on a timer signal.  The signal handler runs in the worker's own
thread between two bytecodes, so each sample measures the speed of the core
at that moment of the work.  It runs the kernel once untimed first, so that
the timed run finds its code and data in the caches whatever the work left
there.

``SpeedProbe.normalised(start, end)`` turns the wall time of the work into
seconds at the reference speed: each stretch of work between two samples is
scaled by the probe's reference time over the kernel time measured around
it, and the time spent in the kernel itself is left out.  A change to
loopnet moves this figure exactly as it moves wall time on a steady
machine; a slow spell of the host moves the kernel as much as the work and
cancels out.

Two probes use two kernels.  Set-up is timed with a pure-Python kernel,
because numpy is not imported yet when its probe starts; the workload is
timed with that kernel followed by small numpy calls.

This module imports nothing outside the standard library at import time:
``worker.py`` starts the set-up probe before its own imports.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

SETUP_INTERVAL_S = 0.05
WORK_INTERVAL_S = 0.25
# About the kernel times on an idle core of the 2-core x86-64 VM the
# benchmark was tuned on (CPython 3.11, numpy 2.4).  They only set the
# scale: normalised seconds equal wall seconds on a core that runs the
# kernel this fast.  Changing one changes every reported time of its kind,
# so they stay fixed.
PYTHON_REFERENCE_S = 0.0008
MIXED_REFERENCE_S = 0.001
_NEIGHBOURS = 2      # samples on each side whose median scales a stretch


def python_kernel() -> float:
    """Fixed loop of dict updates and arithmetic, about 0.8 ms."""
    table = {}
    acc = 0.0
    for i in range(3000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += (i * 7 % 13) * 0.5
    return acc + len(table)


def mixed_kernel() -> float:
    """``python_kernel`` and 150 small numpy calls, about 1 ms."""
    np = sys.modules["numpy"]
    acc = python_kernel()
    vec = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        vec = np.sin(vec) * 0.5 + vec * 0.5
        acc += float(vec[3])
    return acc


class SpeedProbe:
    """Samples a reference kernel on a timer while it is started."""

    def __init__(self, kernel, reference_s: float, interval_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.starts: list[float] = []     # handler entry and exit
        self.ends: list[float] = []
        self.times: list[float] = []      # the timed kernel run
        self._previous = None

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.kernel()   # untimed: brings the kernel back into the caches
        timed = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.times.append(end - timed)
        self.ends.append(end)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def median_kernel_s(self) -> float:
        return statistics.median(self.times)

    def normalised(self, start: float, end: float) -> float:
        """Work time within [start, end] in seconds at the reference speed.

        Work before the first sample, such as interpreter start, is scaled
        by the first samples.
        """
        times = self.times
        edges = [start] + self.ends
        total = 0.0
        for k in range(len(times)):
            lo, hi = max(edges[k], start), min(self.starts[k], end)
            if hi <= lo:
                continue
            near = times[max(0, k - _NEIGHBOURS):k + _NEIGHBOURS]
            total += (hi - lo) * self.reference_s / statistics.median(near)
        return total
