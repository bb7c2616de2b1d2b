"""Host speed, measured with a fixed reference kernel next to the requests.

The reference machine is a shared 2-core virtual machine that switches
between speeds up to a factor of two apart, often within a second, in
process CPU time as much as in wall time.  So every timing of a run is
scaled to a fixed host speed: the benchmark times a reference kernel
every SAMPLE_EVERY seconds of a run, between timed calls, and a
duration measured at time t is multiplied by NOMINAL_S over the median
kernel time within WINDOW_S of t.  The kernel is an exact continuant
recurrence on Fractions, the arithmetic that dominates the library's
exact and symbolic modes, and it uses only the standard library and the
benchmark's own code, so no change to ``comrade`` can move it.  Scaled figures are reported in the
units of the raw ones: a "ms" is a millisecond of a host that runs the
kernel in NOMINAL_S.
"""

from __future__ import annotations

import random
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

from checks import last_row_expansion

#: A fixed constant near the kernel's median time on the reference machine.
NOMINAL_S = 0.0034
SAMPLE_EVERY = 0.05
WINDOW_S = 1.0


def _kernel_data():
    """A fixed 120 x 120 band of small fractions, built from its own seed."""
    rng = random.Random("perfbench:speed-kernel")
    pick = lambda count: [Fraction(rng.randint(1, 8), rng.randint(2, 9)) for _ in range(count)]
    n = 120
    return pick(n), pick(n - 1), pick(n - 1), pick(n)


_DATA = _kernel_data()


def kernel() -> None:
    last_row_expansion(*_DATA)


class Speed:
    """Kernel timings of one run, and the scale factor they give."""

    def __init__(self):
        self.at, self.took = [], []
        self._last = -1.0

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless it was timed within SAMPLE_EVERY."""
        now = time.perf_counter()
        if force or now - self._last >= SAMPLE_EVERY:
            kernel()
            self._last = time.perf_counter()
            self.at.append(now)
            self.took.append(self._last - now)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the nominal host speed."""
        mid = start + seconds / 2
        lo = bisect_left(self.at, mid - WINDOW_S)
        hi = bisect_right(self.at, mid + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return seconds * NOMINAL_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(self.took)
