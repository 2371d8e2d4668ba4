"""The machine's speed, sampled while a run measures, to scale operation times by.

On a shared virtual machine the same code runs up to 1.7 times as slow for
seconds to minutes at a time, and CPU time does not hide it: the slowdown is
contention on the host that the guest cannot see (it reports no steal time).
So every run also times a reference kernel, a fixed piece of interpreter work
(lists, dicts, sorting, calls) that uses nothing from kumfib.  The kernel runs
from a SIGALRM handler every PERIOD_S of wall time, and each sample is kept
with its moment.  (A CPU-time timer would not do: while one is armed, Linux
reads the process's CPU clock in 4 ms ticks.)  An operation's CPU time, less the
kernel's share of it, is scaled by NOMINAL_MS over the median kernel time
within WINDOW_NS of the operation: it reads as CPU time at the reference
speed, the speed at which the kernel takes NOMINAL_MS.  The median, rather
than the mean, keeps a kernel sample slowed by the operation it interrupted
from setting the scale.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

KERNEL_ROUNDS = 120
#: A fixed reference speed.  On the machine the README's figures come from the
#: kernel took 0.54 ms in quiet hours and up to 1.4 ms in busy ones.
NOMINAL_MS = 0.75
PERIOD_S = 0.1
#: Kernel samples this far around an operation set its scale: about 14 of them.
WINDOW_NS = 700_000_000


def _probe(index: dict, i: int) -> int:
    return index[i % 24] - index[(i * 5) % 24]


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ROUNDS):
        row = [(j * i + 7) % 13 for j in range(24)]
        index = {j: v for j, v in enumerate(row)}
        total += sum(sorted(index.values())) + _probe(index, i)
    return total


class Calibrator:
    def __init__(self):
        self.moments: list[int] = []  # perf_counter_ns at each sample
        self.kernel_ms: list[float] = []
        self.spent_ns = 0  # CPU time spent in the kernel, to take out of operation times
        self._busy = False
        self._previous = None

    def sample(self) -> float:
        if self._busy:
            return 0.0
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the kernel's garbage is freed at once; no collection runs in it
        try:
            t0 = time.process_time_ns()
            kernel()
            t1 = time.process_time_ns()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.moments.append(time.perf_counter_ns())
        self.kernel_ms.append((t1 - t0) / 1e6)
        self.spent_ns += t1 - t0
        return (t1 - t0) / 1e6

    def burst(self, samples: int) -> float:
        """Mean kernel time of `samples` runs in a row, outside any operation."""
        return statistics.fmean(self.sample() for _ in range(samples))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scale(self, start_ns: int, end_ns: int) -> float:
        """NOMINAL_MS over the median kernel time around [start_ns, end_ns]."""
        if not self.moments:
            return 1.0
        lo = bisect.bisect_left(self.moments, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.moments, end_ns + WINDOW_NS)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(lo, len(self.moments) - 1)
            hi = lo + 1
        return NOMINAL_MS / statistics.median(self.kernel_ms[lo:hi])
