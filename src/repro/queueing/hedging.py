"""Client-side request hedging (the §7 "tail at scale" alternative).

The paper contrasts RPCValet with client-side techniques that
"duplicate/hedge requests across multiple servers" [Dean & Barroso]:
hedging shrinks the tail but *increases global load* — and at µs scale
the extra load is substantial because duplication must be aggressive.
This module simulates hedged dispatch over partitioned queues so the
trade-off can be quantified against RPCValet's server-side approach
(see ``benchmarks/bench_extensions.py``).

Model: every request is sent to ``copies`` distinct uniformly chosen
queues; the first copy to *finish* wins, which cancels its siblings.
Cancellation removes only copies still waiting in a queue (a copy
already occupying a server runs to completion, which is how practical
cancellation behaves at µs scale, where the cancel message races the
work itself).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Set, Tuple

import numpy as np

__all__ = ["simulate_hedged_queues", "HedgingResult"]


class HedgingResult:
    """Sojourns of the winning copies plus wasted-work accounting."""

    __slots__ = ("sojourns", "wasted_work", "total_work")

    def __init__(self, sojourns: np.ndarray, wasted_work: float, total_work: float) -> None:
        self.sojourns = sojourns
        self.wasted_work = wasted_work
        self.total_work = total_work

    @property
    def waste_fraction(self) -> float:
        """Fraction of executed server work that was redundant."""
        return self.wasted_work / self.total_work if self.total_work else 0.0


def simulate_hedged_queues(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    num_queues: int,
    copies: int = 2,
    rng: np.random.Generator = None,
) -> HedgingResult:
    """Hedge each request across ``copies`` single-server FIFO queues.

    Each copy re-samples nothing: both copies carry the same service
    requirement (the duplicate does the same work). Returns the
    first-completion sojourn per request.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    services = np.asarray(service_times, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError("arrivals and services must have identical shapes")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    if num_queues < 2:
        raise ValueError(f"need at least 2 queues to hedge, got {num_queues!r}")
    if not 1 <= copies <= num_queues:
        raise ValueError(f"copies must be in [1, num_queues], got {copies!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    n = arrivals.size
    sojourns = np.full(n, np.nan)
    done: Set[int] = set()
    queues: List[Deque[int]] = [deque() for _ in range(num_queues)]
    busy: List[bool] = [False] * num_queues
    # (completion_time, seq, queue_id, request)
    events: List[Tuple[float, int, int, int]] = []
    seq = 0
    next_arrival = 0
    total_work = 0.0

    def start(queue_id: int, request: int, now: float) -> None:
        nonlocal seq, total_work
        busy[queue_id] = True
        total_work += services[request]
        heapq.heappush(events, (now + services[request], seq, queue_id, request))
        seq += 1

    def pump(queue_id: int, now: float) -> None:
        """Start the next un-cancelled copy waiting at this queue."""
        while queues[queue_id]:
            request = queues[queue_id].popleft()
            if request in done:
                continue  # cancelled while waiting
            start(queue_id, request, now)
            return
        busy[queue_id] = False

    time = 0.0
    while next_arrival < n or events:
        next_event_time = events[0][0] if events else np.inf
        next_arrival_time = arrivals[next_arrival] if next_arrival < n else np.inf
        if next_arrival_time <= next_event_time:
            time = next_arrival_time
            request = next_arrival
            next_arrival += 1
            targets = rng.choice(num_queues, size=copies, replace=False)
            for queue_id in targets:
                queue_id = int(queue_id)
                if not busy[queue_id]:
                    start(queue_id, request, time)
                else:
                    queues[queue_id].append(request)
        else:
            time, _seq, queue_id, request = heapq.heappop(events)
            if request not in done:
                done.add(request)
                sojourns[request] = time - arrivals[request]
            pump(queue_id, time)

    if np.isnan(sojourns).any():  # pragma: no cover - sanity net
        raise RuntimeError("some hedged requests never completed")
    # Exactly one copy per request is useful work; the rest is waste.
    # (max() guards the floating-point residue of the two summations.)
    wasted_work = max(0.0, total_work - float(services.sum()))
    return HedgingResult(sojourns, wasted_work, total_work)
