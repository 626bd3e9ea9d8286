"""The host's current speed, read from a fixed reference kernel.

On a shared host a core runs up to twice as slow for stretches that last
from under a second to many minutes, and CPU time slows as much as wall
time.  A pipeline's wall time alone therefore moves by tens of percent from
one run to the next.  The benchmark runs this reference kernel, which does
not use bmcut, between consecutive pipelines.  The kernel's time per unit
around a pipeline, divided by ``REF_UNIT_S``, is the slowdown the pipeline
ran under, and the pipeline's time divided by that slowdown is its time at
the reference speed.

The kernel mixes what bmcut's pipelines spend time on: small BLAS products
with rank-r factors, small numpy operations with their per-call overhead,
an O(n) scan, and interpreted Python.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds per unit on an unloaded core of the machine the benchmark was
# defined on (2-core VM, Intel Xeon at 2.0 GHz, one BLAS thread).  It only
# scales the figures: there, a pipeline's normalised time equals its wall
# time when nothing else slows the core.
REF_UNIT_S = 2.3e-4
MIN_UNITS = 8


class Reference:
    """The reference kernel on fixed data; units are identical every call."""

    def __init__(self, n: int = 240, r: int = 22):
        rng = np.random.default_rng(20180711)
        self.mat = rng.standard_normal((n, n)) / n
        self.factor = rng.standard_normal((n, r))
        self.scan = rng.standard_normal(1000)
        self._row = 0

    def unit(self) -> float:
        acc = 0.0
        mat, factor, n = self.mat, self.factor, len(self.mat)
        for _ in range(40):
            i = self._row
            self._row = (i + 1) % n
            g = mat[i] @ factor
            norm = float(np.sqrt(g @ g))
            factor[i] = g / norm
            acc += norm
        acc += float(self.scan[int(np.argmax(self.scan))])
        counts: dict[int, int] = {}
        for k in range(160):
            counts[k & 7] = counts.get(k & 7, 0) + k
        return acc + counts[0]

    def seconds_per_unit(self, seconds: float) -> float:
        """Run whole units for at least ``seconds``; the mean time of one."""
        t0 = perf_counter()
        units = 0
        while units < MIN_UNITS or perf_counter() - t0 < seconds:
            self.unit()
            units += 1
        return (perf_counter() - t0) / units
