"""Finite-buffer queueing: the theory behind send-slot flow control.

§4.2's messaging buffers bound the number of in-flight RPCs: a sender
with no free slot *blocks*. In queueing terms the server becomes a
finite-capacity system — M/M/c/K — whose stationary distribution is
closed-form. These results let tests and capacity planning connect the
simulator's slot-exhaustion stalls to textbook blocking probabilities
(what fraction of arrivals find the system full) and to the Erlang-B
loss formula in the zero-buffer limit. No driver calls them: they are
test oracles and the ``capacity_planning`` example's sizing math.
"""

from __future__ import annotations

import math
from typing import List

__all__ = [
    "mmck_distribution",
    "mmck_blocking_probability",
    "mmck_mean_jobs",
    "mmck_throughput",
    "erlang_b",
]


def mmck_distribution(
    num_servers: int, capacity: int, arrival_rate: float, service_rate: float
) -> List[float]:
    """Stationary distribution of an M/M/c/K system.

    ``capacity`` K is the total number of jobs admitted (in service +
    waiting); requires K >= c. Valid for any utilization (finite
    systems are always stable).
    """
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers!r}")
    if capacity < num_servers:
        raise ValueError(
            f"capacity ({capacity!r}) must be >= num_servers ({num_servers!r})"
        )
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("rates must be positive")
    offered = arrival_rate / service_rate
    weights: List[float] = []
    for jobs in range(capacity + 1):
        if jobs <= num_servers:
            weight = offered**jobs / math.factorial(jobs)
        else:
            weight = (
                offered**jobs
                / (
                    math.factorial(num_servers)
                    * num_servers ** (jobs - num_servers)
                )
            )
        weights.append(weight)
    total = sum(weights)
    return [weight / total for weight in weights]


def mmck_blocking_probability(
    num_servers: int, capacity: int, arrival_rate: float, service_rate: float
) -> float:
    """P(arrival finds the system full) — PASTA makes this P[N=K]."""
    distribution = mmck_distribution(
        num_servers, capacity, arrival_rate, service_rate
    )
    return distribution[-1]


def mmck_mean_jobs(
    num_servers: int, capacity: int, arrival_rate: float, service_rate: float
) -> float:
    """Mean number of jobs in the system."""
    distribution = mmck_distribution(
        num_servers, capacity, arrival_rate, service_rate
    )
    return sum(jobs * p for jobs, p in enumerate(distribution))


def mmck_throughput(
    num_servers: int, capacity: int, arrival_rate: float, service_rate: float
) -> float:
    """Accepted-arrival rate: λ·(1 − P_block)."""
    blocking = mmck_blocking_probability(
        num_servers, capacity, arrival_rate, service_rate
    )
    return arrival_rate * (1.0 - blocking)


def erlang_b(num_servers: int, offered_load: float) -> float:
    """Erlang-B blocking (M/M/c/c — no waiting room).

    The K=c special case of :func:`mmck_blocking_probability`, computed
    with the standard numerically stable recurrence.
    """
    if num_servers <= 0:
        raise ValueError(f"num_servers must be positive, got {num_servers!r}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be non-negative, got {offered_load!r}")
    if offered_load == 0:
        return 0.0
    blocking = 1.0
    for k in range(1, num_servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking
