"""Machine-speed meter: rescales host time to the machine's full speed.

The shared 2-vCPU VM this benchmark was built on runs at full speed, or
at roughly a half or a quarter of it, in stretches of a fraction of a
second to minutes, depending on load outside the VM. The guest sees no
steal time: CPU time slows with wall time, so neither clock alone gives
a steady number. Over ten 20-second runs of one workload, the quartile
spread of raw per-run medians reached 19-24%.

:class:`SpeedMeter` samples the speed every :data:`PERIOD_S` seconds of
wall time: a ``SIGALRM`` handler times a fixed pure-Python reference
loop (heap pushes and pops, integer arithmetic, dict updates) that
takes :data:`REFERENCE_NOMINAL_S` at full speed. An interval's host
time, minus the loops run inside it, times the mean of
``REFERENCE_NOMINAL_S / loop time`` over those loops, is the time the
interval would have taken at full speed. The loop uses only the
standard library, so no change under ``src/`` moves it; it costs about
2% of each interval.
"""

import heapq
import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.03
REFERENCE_ITERATIONS = 1000
#: The loop's duration at full speed on that VM (2-vCPU Xeon, Python 3.11).
REFERENCE_NOMINAL_S = 0.0006


def reference_s() -> float:
    """Seconds this process takes to run the fixed reference loop once."""
    start = time.perf_counter()
    heap = []
    totals = {}
    state = 12345
    for seq in range(REFERENCE_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (state % 997, seq, state & 15))
        if len(heap) > 16:
            _, _, kind = heapq.heappop(heap)
            totals[kind] = totals.get(kind, 0) + 1
    return time.perf_counter() - start


class SpeedMeter:
    """Periodic speed samples of this process, taken on ``SIGALRM``."""

    def __init__(self) -> None:
        #: (perf_counter at the sample, reference loop seconds).
        self.samples: List[Tuple[float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        at = time.perf_counter()
        self.samples.append((at, reference_s()))

    def rescale(self, start: float, end: float) -> Tuple[float, float]:
        """``(host seconds, full-speed seconds)`` of ``[start, end)``.

        Both exclude the reference loops that ran inside the interval. An
        interval shorter than one period borrows every sample's speed.
        """
        inside = [took for at, took in self.samples if start <= at < end]
        host = end - start - sum(inside)
        basis = inside or [took for _at, took in self.samples]
        if not basis:
            return host, host
        speed = statistics.fmean(REFERENCE_NOMINAL_S / took for took in basis)
        return host, host * speed
