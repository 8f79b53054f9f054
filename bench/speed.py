"""Wall time scaled to a reference CPU speed, measured by a calibration kernel.

The machine this benchmark runs on is shared, and its speed for one process
drifts by up to a factor of two over seconds to minutes: every instruction
is slower, so the ratio of the workload's time to a fixed kernel's time stays
put while both swing.  `SpeedClock` samples the kernel at the start and end
of every pass and, when armed, every INTERVAL_S seconds inside it (from a
SIGALRM handler, so long library calls are sampled too), and integrates

    reference seconds = sum over sample intervals of wall * REF_KERNEL_S / kernel

with the kernel time averaged over the two ends of each interval.  The time
spent in the kernel is left out.  The kernel is the benchmark's own code
(Fraction elimination, small NumPy solves, list and dict work, the mix the
library runs), so a change to the library never changes it.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# about the median kernel time on the 2-CPU x86-64 container the baseline
# was taken on (3.4-3.8 ms), so that reference seconds read close to the
# wall seconds usually seen there
REF_KERNEL_S = 0.0034
INTERVAL_S = 0.25
_REPEATS = 3

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(9)] for i in range(9)]


@functools.cache
def _dense():
    # NumPy is imported on first use, after run.py has pinned the BLAS threads
    import numpy as np

    return np, np.random.default_rng(0).standard_normal((24, 24)) + 24 * np.eye(24)


def _kernel() -> None:
    rows = [list(row) for row in _MATRIX]
    for c in range(len(rows)):
        pivot = rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / pivot
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    counts: dict = {}
    for k in range(300):
        key = (k % 17, k % 5)
        counts[key] = counts.get(key, 0) + 1
    np, dense = _dense()
    vec = dense[0]
    for _ in range(40):
        vec = np.linalg.solve(dense, vec) + 1.0j * vec


def kernel_seconds() -> float:
    """Median time of a few kernel runs, after one untimed run to warm the caches."""
    _kernel()
    times = []
    for _ in range(_REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedClock:
    """Accumulates wall seconds and reference seconds between kernel samples."""

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.kernels: list[float] = []
        self._last: tuple[float, float] | None = None  # (end of last sample, its kernel time)

    def sample(self) -> None:
        start = perf_counter()
        kernel = kernel_seconds()
        if self._last is not None:
            end_prev, kernel_prev = self._last
            wall = start - end_prev
            self.wall_s += wall
            self.ref_s += wall * REF_KERNEL_S / (0.5 * (kernel + kernel_prev))
        self.kernels.append(kernel)
        self._last = (perf_counter(), kernel)

    @contextlib.contextmanager
    def timing(self, armed: bool = True):
        """Sample at entry and exit, and every INTERVAL_S in between when armed."""
        self.sample()
        if armed:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self.sample()
