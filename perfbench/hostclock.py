"""The host's speed during a run, from two fixed reference kernels.

On a shared host the same op takes up to 30% longer from one minute to
the next, and ten runs of a workload span several minutes.  A run times
two kernels of the benchmark's own between its passes, never inside a
timed window: a pure-Python loop and a NumPy pass over a 5 MB array.
Neither calls the program nor allocates, so a change to the program
cannot change them.  :meth:`HostClock.scale` compares their medians with
their times on the reference machine; the runner multiplies every host
time it reports by it, which puts runs made at different host speeds on
one scale.  The kernels' own medians are reported with ``--trace 1``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: The kernels' median seconds on the reference machine (2 vCPUs,
#: x86-64, CPython 3.11, NumPy 2.4); a run at that speed reports raw times.
NOMINAL_PY_S = 0.0075
NOMINAL_NUMPY_S = 0.0120


class HostClock:
    """Samples the reference kernels and turns them into a time scale."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((64, 64, 160))
        self._b = np.empty_like(self._a)
        self._taken = np.empty_like(self._a)
        self._peak = np.empty((64, 64))
        self._rows = rng.integers(0, 64, 64)
        self._slots = dict.fromkeys(range(997), 0)
        self.py_s: list[float] = []
        self.numpy_s: list[float] = []

    def _time_py(self) -> float:
        slots = self._slots
        acc = 0
        t0 = time.perf_counter()
        for i in range(40000):
            acc = (acc + i * i) & 0xFFFFF
            slots[i % 997] = acc
        return time.perf_counter() - t0

    def _time_numpy(self) -> float:
        a, b = self._a, self._b
        t0 = time.perf_counter()
        for _ in range(4):
            np.multiply(a, 1.5, out=b)
            np.add(b, a, out=b)
            np.max(b, axis=2, out=self._peak)
            np.take(b, self._rows, axis=0, out=self._taken)
        return time.perf_counter() - t0

    def sample(self, n: int = 3) -> None:
        """Time each kernel ``n`` times (about 20 ms per round)."""
        for _ in range(n):
            self.py_s.append(self._time_py())
            self.numpy_s.append(self._time_numpy())

    def scale(self) -> float:
        """Reference-machine seconds per host second during the samples.

        The geometric mean of the two kernels' speed ratios: below 1 when
        the host ran slower than the reference machine.
        """
        return math.sqrt(
            NOMINAL_PY_S / statistics.median(self.py_s)
            * NOMINAL_NUMPY_S / statistics.median(self.numpy_s)
        )
