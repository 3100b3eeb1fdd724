"""Host speed reference: host time read at a fixed host speed.

On a shared virtual machine the same Python code runs up to twice as fast
or as slow from one stretch of seconds to the next, because other tenants
share the physical cores; wall-clock and CPU time both see it.  The
benchmark therefore times a fixed pure-Python loop every ``SAMPLE_EVERY_S``
of CPU time and scales each stretch of CPU time by ``REFERENCE_LOOP_S`` over
the loop's time, interpolated between the timings around the stretch
(``reference_s``): a number then reads as if the host ran that loop in
``REFERENCE_LOOP_S``.  The loop is timed when ``clock`` is read and is due,
and its own time is left out of the clock.  Workloads read the clock between
requests and, in long requests, between slices of their input, so a speed
change in the middle of an iteration is seen there.  The loop belongs to the benchmark, not to the program, so a
change to the program moves the workload's time and leaves the loop's alone.
It allocates nothing (its values are small cached ints), so the state of the
program's heap does not change its speed.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: CPU seconds one reference loop takes on a 2-vCPU Intel Xeon virtual
#: machine at 2.0 GHz running CPython 3.11 (the middle of the range seen
#: there, 0.7 to 1.2 ms).
REFERENCE_LOOP_S = 0.001
#: CPU seconds between two timings of the loop; one timing costs ~7 ms.
SAMPLE_EVERY_S = 0.2
_KEYS = tuple(i & 127 for i in range(20_000))
_TABLE = {i: (i * 7) & 127 for i in range(128)}
_REPEATS = 7


def _reference_loop() -> int:
    total = 0
    table = _TABLE
    for key in _KEYS:
        total ^= table[key]
    return total


def loop_s() -> float:
    """CPU seconds of one reference loop now (median of a few)."""
    samples = []
    for _ in range(_REPEATS):
        start = time.process_time()
        _reference_loop()
        samples.append(time.process_time() - start)
    return statistics.median(samples)


class _Clock:
    """CPU time with the loop's timings along it and their running integral."""

    def __init__(self) -> None:
        self.left_out = 0.0          # CPU seconds spent timing the loop
        self.times: List[float] = []     # clock readings of the timings
        self.factors: List[float] = []   # REFERENCE_LOOP_S / loop time
        self.integral: List[float] = []  # reference seconds up to each

    def read(self) -> float:
        now = time.process_time() - self.left_out
        if not self.times or now >= self.times[-1] + SAMPLE_EVERY_S:
            self.sample(now)
        return now

    def sample(self, now: float) -> None:
        start = time.process_time()
        factor = REFERENCE_LOOP_S / loop_s()
        self.left_out += time.process_time() - start
        if self.times:
            self.integral.append(self.integral[-1] + (now - self.times[-1])
                                 * (self.factors[-1] + factor) / 2)
        else:
            self.integral.append(0.0)
        self.times.append(now)
        self.factors.append(factor)

    def reference_s(self, at: float) -> float:
        """Reference seconds from the first timing to the reading ``at``."""
        times, factors = self.times, self.factors
        i = bisect.bisect_right(times, at) - 1
        if i == len(times) - 1:
            return self.integral[i] + (at - times[i]) * factors[i]
        share = (at - times[i]) / (times[i + 1] - times[i])
        factor_at = factors[i] + share * (factors[i + 1] - factors[i])
        return self.integral[i] + (at - times[i]) * (factors[i]
                                                     + factor_at) / 2


_CLOCK = _Clock()


def clock() -> float:
    """CPU seconds, without the loop's own timings.

    Reading it times the loop when ``SAMPLE_EVERY_S`` have passed since the
    last timing; only differences between readings are meaningful.
    """
    return _CLOCK.read()


def reference_s(start: float, end: float) -> float:
    """Host seconds between two ``clock`` readings at the reference speed.

    The speed is interpolated linearly between the loop timings around each
    stretch; if none follows ``end`` yet, one is taken first.
    """
    now = clock()
    if _CLOCK.times[-1] < end:
        _CLOCK.sample(now)
    return _CLOCK.reference_s(end) - _CLOCK.reference_s(start)
