"""Reference milliseconds: op latencies scaled by the machine's speed.

On a shared host the same Python code can run up to half again as slowly,
because of load outside the container; the speed changes within a second
and also over stretches of minutes.  The slowdown is in execution, so CPU
time shows it as much as wall time, and a run of under a minute cannot
outlast it: medians of raw latencies move with it from run to run.

So the benchmark also runs a fixed reference kernel of its own every
``EVERY`` seconds, between ops.  The kernel is stdlib code from ``gen``
over fixed inputs, much like the program's own work (loops over row
bitmasks, small containers, JSON), plus a strided walk over half a MiB of
memory; it never changes with the program.  An op's latency in reference
milliseconds (``ref_ms``) is its time divided by the median time of the
kernel runs made within ``WINDOW`` seconds of it: 1 ref_ms is the time one
kernel run takes on the same machine at the same moment.  One kernel run
takes 1.2 to 1.5 ms on a 2-vCPU x86-64 VM with CPython 3.11, and the kernel
runs take about 6% of a run's time.

A change to the program moves ref_ms as it moves ms.  A slow stretch of the
machine slows the op and the kernel runs beside it alike, though not
exactly alike, so it moves ref_ms much less than ms.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from array import array

import gen

# The host's speed changes within a second, so the kernel runs often and an
# op is scaled by the kernel runs close to it.  On recorded runs of
# extend-large and corpus-small, these settings made repeated runs of one
# op agree better than kernel runs every 0.05 s or 0.1 s, or windows of 0.5
# to 8 s.
EVERY = 0.02  # seconds between kernel runs
WINDOW = 0.25  # seconds either side of an op whose kernel runs scale it


def _kernel():
    rnd = random.Random("reference")
    order = gen.partial_order(rnd, 32, width=8)["rows"]
    words = array("q", range(1 << 16))  # 512 KiB, walked with a stride

    def kernel():
        system = gen.bubble_system(random.Random(0), 20)
        gen.is_negatively_transitive(system["rows"])
        gen.closure(order)
        json.loads(gen.relation_json(system))
        sum(words[::3])

    return kernel


class Speed:
    """Kernel runs of one measurement, as (midpoint, seconds) pairs."""

    def __init__(self):
        self.kernel = _kernel()
        for _ in range(20):  # warm up
            self.kernel()
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.due = 0.0

    def sample(self, force: bool = False) -> None:
        """Run the kernel once if ``EVERY`` seconds have passed since the
        last run (always, with ``force``)."""
        t0 = time.perf_counter()
        if t0 < self.due and not force:
            return
        self.kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)
        self.due = t1 + EVERY

    def ref_ms(self, start: float, latency: float) -> float:
        """``latency`` (seconds, starting at ``start``) in ref_ms."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, start + latency + WINDOW)
        return latency / statistics.median(self.seconds[lo:hi])
