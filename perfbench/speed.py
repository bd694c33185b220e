"""Times normalised to a reference CPU speed.

The benchmark runs on shared machines whose cores slow down by up to
about 1.8x for stretches of a fraction of a second to tens of seconds,
because of load outside the benchmark's control.  Wall times of the same
work then spread by 12-35% from run to run, wider than any useful bound.

While a ``SpeedProbe`` is active, a timer signal interrupts the measured
code every ``PERIOD_S`` seconds and runs a fixed piece of reference work
(a row update over ``Fraction`` values, as in an LP pivot, and a JSON
round trip: the program's own mix of work).  How long that takes gives
the core's current speed.  ``normalized(a, b)``
then converts the interval ``[a, b]`` into the seconds it would take on a
core where the reference work takes ``REFERENCE_S``, excluding the probe's
own time.  A change to the program moves normalised times as it moves
wall times at constant speed; a slow neighbour slows both the program and
the reference work, and largely cancels out.  README.md gives the spreads
with and without normalisation.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# Near the reference work's fastest time on the 2-vCPU x86-64 VM the
# benchmark was defined on (CPython 3.11).  It only sets the unit of
# normalised seconds; being a constant, it cancels in every comparison.
REFERENCE_S = 0.25e-3


_ROW = [Fraction(i + 1, 3 + i % 7) for i in range(48)]


def reference_work() -> int:
    """A row update over Fractions, as in an LP pivot, then a JSON round trip."""
    f = Fraction(5, 11)
    row = [x - f * y for x, y in zip(_ROW, reversed(_ROW))]
    table = {str(i): [x.numerator % 1000, i] for i, x in enumerate(row[:24])}
    return len(json.loads(json.dumps(table, sort_keys=True, indent=2)))


def scale_now(samples: int = 25) -> float:
    """Speed scale from reference work run back to back, for a process too
    short-lived to sample under a probe."""
    durations = []
    for _ in range(samples):
        start = perf_counter()
        reference_work()
        durations.append(perf_counter() - start)
    return REFERENCE_S / statistics.median(durations)


class SpeedProbe:
    """Samples core speed by interleaving reference work with the caller."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.scale: list[float] = []  # REFERENCE_S / sample duration
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal) -> None:
        # A collection triggered here would charge the program's heap to
        # the reference work.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_work()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.scale.append(REFERENCE_S / (end - start))

    def _scale_before(self, j: int) -> float:
        """Speed scale for the stretch between samples j-1 and j."""
        near = [self.scale[k] for k in (j - 1, j) if 0 <= k < len(self.scale)]
        return sum(near) / len(near)

    def normalized(self, a: float, b: float) -> float:
        """Reference-speed seconds of the caller's own work in ``[a, b]``.

        Samples run between bytecodes of the caller, so each one lies wholly
        inside or outside any interval the caller timed.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        total = 0.0
        for j in range(lo, hi + 1):
            seg_start = a if j == lo else self.ends[j - 1]
            seg_end = b if j == hi else self.starts[j]
            total += (seg_end - seg_start) * self._scale_before(j)
        return total
