"""Host speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts.  On a shared
2-core x86 container (Python 3.11.7) a fixed pure-Python loop took
between 44 and 70 ms per 5 s window within one minute, and 30 s runs of
the same workload drifted by up to 25 % from one minute to the next:
more than any bound a timing metric could have.

So a fixed slice of exact-rational arithmetic (the kind of work plovkit
does: `Fraction` products and quotients) is timed between operations,
and every time the benchmark reports is scaled by `REFERENCE_S` over the
median of the slices nearest to it.  A reported time reads as the time
the operation takes when the slice takes `REFERENCE_S`.  On that
container this cut the variation of one `analyze` operation between
6 s windows from 21 % to 5 % (coefficient of variation).  The slices
run outside the timed operations, and the program under test cannot
change their cost.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

#: About the median slice time on that container.
REFERENCE_S = 0.007
#: Operation time between two slices.
EVERY_S = 0.25
#: Slices whose median scales one time.
NEAREST = 5

_rng = random.Random("hostspeed")
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(8)]
           for _ in range(8)]
_COLUMNS = list(zip(*_MATRIX))


def slice_seconds() -> float:
    """Time one fixed slice of Fraction matrix work."""
    t0 = perf_counter()
    m = _MATRIX
    for _ in range(3):
        m = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in _COLUMNS]
             for row in m]
        m = [[x / (1 + abs(x)) for x in row] for row in m]
    return perf_counter() - t0


class HostSpeed:
    """Slices timed along a run, indexed by the operation time elapsed
    when each was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []

    def sample(self, position: float) -> None:
        """Time a slice if `EVERY_S` of operation time passed since the last."""
        if not self.at or position - self.at[-1] >= EVERY_S:
            self.at.append(position)
            self.cost.append(slice_seconds())

    def scale(self, position: float) -> float:
        """REFERENCE_S over the median of the slices nearest `position`."""
        i = bisect_left(self.at, position)
        lo = max(0, min(i - NEAREST // 2, len(self.cost) - NEAREST))
        return REFERENCE_S / statistics.median(self.cost[lo:lo + NEAREST])


def scale_now() -> float:
    """REFERENCE_S over the median of `NEAREST` slices taken now."""
    return REFERENCE_S / statistics.median(slice_seconds() for _ in range(NEAREST))
