"""Wall time scaled to a reference machine speed.

The speed of a shared machine drifts, here by up to 2x, for seconds and for
minutes at a time, and the fastest of a few repetitions does not escape a
slow minute.  So a fixed piece of stdlib work, `calibration_kernel`, is
timed right before and right after each measured call, and the call's wall
time is scaled by K_REF_S over the mean of the two: drift that outlasts the
call cancels.  Over four minutes in which the raw times of a pool of reports
drifted by 35%, their scaled sum moved by about 1%.  A change of the program
moves the call and not the kernel, so it shows in full.

Reference seconds equal wall seconds on a machine where the kernel takes
K_REF_S; that is about its time on an unloaded 2-vCPU Intel Xeon VM.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

K_REF_S = 0.2e-3

_TERMS = {(i, j, k): Fraction(i - j + 1, k + 2)
          for i in range(2) for j in range(2) for k in range(2)}


def calibration_kernel() -> dict:
    """Fixed work like the program's inner loops: the product of two sparse
    polynomials with Fraction coefficients, in dicts keyed by exponent tuples."""
    out = {}
    for ea, ca in _TERMS.items():
        for eb, cb in _TERMS.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def kernel_seconds(runs=1) -> float:
    """The kernel's wall time: the median of `runs` runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Scales the wall time of consecutive calls, with one kernel between two
    calls: the closing kernel of one call opens the next."""

    def __init__(self):
        self.last = None
        self.kernels = []

    def _kernel(self) -> float:
        k = kernel_seconds()
        self.kernels.append(k)
        return k

    def start(self):
        """Time the kernel before a call, unless the previous call's closing
        kernel ran right before it."""
        if self.last is None:
            self.last = self._kernel()

    def pause(self):
        """Unmeasured work follows: the next call times its own opening kernel."""
        self.last = None

    def scale(self, seconds):
        """Wall seconds (one value or a list) of the calls since `start`, in
        reference seconds."""
        after = self._kernel()
        factor = 2 * K_REF_S / (self.last + after)
        self.last = after
        if isinstance(seconds, list):
            return [s * factor for s in seconds]
        return seconds * factor
