"""Host-speed normalisation of measured times.

The benchmark's host is shared: identical CPU work runs up to a third slower
for stretches of seconds to minutes, and CPU time slows with wall time, so
neither clock alone repeats between runs.  A fixed reference kernel, which
uses only the standard library and never the code under test, is timed
between measured intervals.  An interval is then scaled by
``REFERENCE_S / median kernel time`` over the kernel samples taken within
``WINDOW_S`` of it: it reads as the time the interval would take on a host
that runs the kernel in ``REFERENCE_S``.  A change to contactloci moves the
interval and not the kernel, so it shows in full.

Over 200 s on a shared 2-core VM, the medians over 25 s stretches of five
job kinds (chains of 800 and 90000 divisors, a stratum sum, a jet count and
a fresh ``python -m contactloci`` process) moved by 31-60% of their median
raw, and by 7-15% after scaling.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# About the kernel's time on the 2-core x86 VM that defined the benchmark,
# where it took 0.5-0.9 ms over fast and slow stretches of the host.
REFERENCE_S = 0.001
WINDOW_S = 1.0
PER_PROBE = 3


def kernel(n: int = 750) -> int:
    """Tuple, dict and list allocation, a keyed sort and integer arithmetic:
    the mix that the library and the interpreter start-up spend time on."""
    table = {}
    rows = []
    for i in range(n):
        row = (i, i * i % 97, (i * 31) // 7)
        table[row] = table.get(row[1:], 0) + i
        rows.append(row)
    rows.sort(key=lambda row: (row[1], -row[0]))
    total = 0
    for a, b, c in rows:
        total = (total * 3 + a * b + c) % 1000003
    return total


class HostSpeed:
    """A time series of kernel samples, and intervals scaled by it."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the end of each sample
        self.samples: list[float] = []

    def probe(self) -> None:
        """Time the kernel a few times, with the collector off so that the
        heap the library left behind is not traversed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(PER_PROBE):
                start = perf_counter()
                kernel()
                end = perf_counter()
                self.times.append(end)
                self.samples.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] at reference speed.  It must have been
        probed right before and right after."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.samples[lo:hi]
        return (end - start) * REFERENCE_S / statistics.median(window)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
