"""Generic-kernel implementation of the Q×U queueing system.

Deliberately slow and obviously correct: each queue is a FIFO deque
with a count of idle serving units, and every arrival and departure is
one kernel call. Tests cross-check
:mod:`repro.queueing.fastsim` against this implementation on identical
arrival/service sequences — they must agree exactly (both are exact
simulations of the same FIFO discipline).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

import numpy as np

from ..sim import Environment

__all__ = ["kernel_sojourn_times"]


def kernel_sojourn_times(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    queue_ids: np.ndarray,
    num_queues: int,
    servers_per_queue: int,
) -> np.ndarray:
    """Sojourn times of a Q×U run, computed with the DES kernel.

    ``queue_ids`` gives the FIFO each request was sprayed to; all three
    arrays share arrival order.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    services = np.asarray(service_times, dtype=float)
    queues_of = np.asarray(queue_ids, dtype=int)
    if not (arrivals.shape == services.shape == queues_of.shape):
        raise ValueError("arrays must have identical shapes")
    if np.any((queues_of < 0) | (queues_of >= num_queues)):
        raise ValueError("queue id out of range")
    if servers_per_queue < 1:
        raise ValueError(
            f"servers_per_queue must be positive, got {servers_per_queue!r}"
        )

    env = Environment()
    waiting: List[Deque[int]] = [deque() for _ in range(num_queues)]
    idle = [servers_per_queue] * num_queues
    sojourns = np.full(arrivals.size, np.nan)

    def arrive(index: int) -> None:
        queue_id = queues_of[index]
        if idle[queue_id]:
            idle[queue_id] -= 1
            env.schedule_call(services[index], depart, queue_id, index)
        else:
            waiting[queue_id].append(index)
        if index + 1 < arrivals.size:
            env.schedule_call(
                arrivals[index + 1] - arrivals[index], arrive, index + 1
            )

    def depart(queue_id: int, index: int) -> None:
        sojourns[index] = env.now - arrivals[index]
        queue = waiting[queue_id]
        if queue:
            following = queue.popleft()
            env.schedule_call(services[following], depart, queue_id, following)
        else:
            idle[queue_id] += 1

    if arrivals.size:
        env.schedule_call(arrivals[0], arrive, 0)
    env.run()
    if np.isnan(sojourns).any():  # pragma: no cover - sanity net
        raise RuntimeError("some requests never completed")
    return sojourns
