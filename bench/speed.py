"""Machine-speed calibration for the end-to-end timings.

On a shared machine the processor's speed for a single-threaded Python
process can change by more than half for seconds or minutes at a time,
and two runs of the same code then differ by that much.  So the timed
loop runs a short fixed burst of pure-Python work between instances,
about every EVERY_S seconds of measured time, and each instance's time
is scaled by REFERENCE_S over the median time of the WINDOW bursts run
nearest to it.  A scaled time is the time the instance would have
taken had the machine been running the burst in REFERENCE_S: a change
to the program moves it fully, a change in the machine's speed hardly.
The burst uses no code of the program, and runs with the garbage
collector off, so that the size of the program's heap does not change
its time.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005  # a burst's time at the reference speed
EVERY_S = 0.1  # measured seconds between bursts
WINDOW = 5  # bursts that scale one time: the ones nearest to it


def burst() -> float:
    """Seconds taken by a fixed mix of the work the program does:
    small rational arithmetic, dict and set updates, and a sort."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table, seen = {}, set()
        for i in range(1, 300):
            x = Fraction(i, 3 * i + 1) * Fraction(2 * i + 1, i + 5) - Fraction(1, i)
            table[i] = (x.numerator % 97, x < Fraction(1, 2))
            seen.add(i * i % 1013)
        sorted(table.items(), key=lambda kv: kv[1])
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Bursts, each at a position in a sequence of timed samples."""

    def __init__(self):
        self.positions: list[int] = []
        self.times: list[float] = []

    def sample(self, position: int) -> None:
        """Run one burst just before the timed sample at `position`."""
        self.positions.append(position)
        self.times.append(burst())

    def scale(self, position: int) -> float:
        """Factor for the timed sample at `position`: REFERENCE_S over the
        median of the WINDOW bursts nearest to it."""
        i = bisect_left(self.positions, position)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.median(self.times[lo : lo + WINDOW])
