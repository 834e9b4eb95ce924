"""Exact event simulation of a FIFO multi-server queue.

This is the performance-critical inner loop of the theoretical queueing
experiments (Fig. 2, Fig. 9's "Model" series), so it avoids the generic
DES kernel: for a FIFO queue with ``c`` identical servers, a request's
start time is ``max(arrival, earliest-free-server)``, which a heap of
server-free times computes exactly in O(n log c).

Correctness is cross-checked in the tests against (a) analytic M/M/1 and
M/M/c results and (b) a slow generic-kernel implementation
(:mod:`repro.queueing.kernelsim`).
"""

from __future__ import annotations

import heapq
import math
import numbers

import numpy as np

__all__ = [
    "simulate_fifo_queue",
    "spray_departures",
    "sojourn_times",
    "queue_length_series",
    "queue_depth_at_arrivals",
    "poisson_arrivals",
    "validate_queue_inputs",
    "check_unit_count",
]


def check_unit_count(name: str, value: int) -> int:
    """Return ``value`` if it is an integer >= 1, else raise.

    A float or bool count of queues or servers would otherwise run with
    a silently wrong count (True as 1) or die deep inside numpy (2.5).
    """
    if not (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 1
    ):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def validate_queue_inputs(arrivals: np.ndarray, services: np.ndarray) -> None:
    """Check finite, monotone arrivals / finite, non-negative services.

    The single shared home of the O(n) input validation: external call
    paths run it once at their boundary; internal correct-by-construction
    callers (cumsums of non-negative gaps, samples from non-negative
    distributions) skip it with ``validate=False`` instead of paying the
    temporaries on every hot call.
    """
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("arrival_times must be finite")
    if arrivals.size and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    if not np.all(np.isfinite(services)):
        raise ValueError("service times must be finite")
    if np.any(services < 0):
        raise ValueError("service times must be non-negative")


def simulate_fifo_queue(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    num_servers: int,
    validate: bool = True,
) -> np.ndarray:
    """Simulate one FIFO queue with ``num_servers`` servers.

    Parameters
    ----------
    arrival_times:
        Non-decreasing absolute arrival times.
    service_times:
        Per-request service times (same length as arrivals).
    num_servers:
        Number of identical serving units pulling from this FIFO (an
        integer >= 1).
    validate:
        Check finite, monotone arrivals / finite, non-negative services
        before simulating. These checks allocate O(n) temporaries,
        which is measurable on this inner loop; internal callers whose
        inputs are correct by construction (a cumsum of non-negative
        gaps, samples from a non-negative distribution) pass ``False``.

    Returns
    -------
    numpy.ndarray
        Departure times, one per request, in arrival order.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    services = np.asarray(service_times, dtype=float)
    if arrivals.shape != services.shape:
        raise ValueError(
            f"arrivals and services differ in length: {arrivals.shape} vs {services.shape}"
        )
    if arrivals.ndim != 1:
        raise ValueError("expected 1-D arrays")
    check_unit_count("num_servers", num_servers)
    if validate:
        validate_queue_inputs(arrivals, services)

    departures = np.empty_like(arrivals)
    if num_servers == 1:
        # Lindley recurrence, the common case for the 16x1 model.
        free_at = 0.0
        for index in range(arrivals.size):
            start = arrivals[index] if arrivals[index] > free_at else free_at
            free_at = start + services[index]
            departures[index] = free_at
        return departures

    free_heap = [0.0] * num_servers
    heapq.heapify(free_heap)
    pop = heapq.heappop
    push = heapq.heappush
    for index in range(arrivals.size):
        free = pop(free_heap)
        arrival = arrivals[index]
        start = arrival if arrival > free else free
        depart = start + services[index]
        push(free_heap, depart)
        departures[index] = depart
    return departures


def spray_departures(
    arrivals: np.ndarray,
    services: np.ndarray,
    num_queues: int,
    servers_per_queue: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Model Q×U: uniform random spray over ``num_queues`` FIFOs.

    One ``rng.integers`` batch picks every request's FIFO; it yields
    the values one scalar ``rng.integers(0, num_queues)`` per request
    would, so this matches a per-arrival random router draw for draw.
    Returns departure times in arrival order. Inputs are not
    validated: callers pass cumsum arrivals and distribution samples.
    """
    picks = rng.integers(0, num_queues, size=arrivals.size)
    departures = np.empty_like(arrivals)
    for queue in range(num_queues):
        mask = picks == queue
        departures[mask] = simulate_fifo_queue(
            arrivals[mask], services[mask], servers_per_queue, validate=False
        )
    return departures


def sojourn_times(
    arrival_times: np.ndarray,
    service_times: np.ndarray,
    num_servers: int,
    warmup_fraction: float = 0.0,
    validate: bool = True,
) -> np.ndarray:
    """Sojourn (queueing + service) times for a FIFO multi-server queue.

    ``warmup_fraction`` drops the earliest-arriving fraction of requests
    so transient start-up bias does not pollute tail estimates.
    ``validate=False`` skips the O(n) input checks (see
    :func:`simulate_fifo_queue`).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0,1), got {warmup_fraction!r}")
    departures = simulate_fifo_queue(
        arrival_times, service_times, num_servers, validate=validate
    )
    sojourns = departures - np.asarray(arrival_times, dtype=float)
    if warmup_fraction > 0.0 and sojourns.size:
        skip = int(sojourns.size * warmup_fraction)
        sojourns = sojourns[skip:]
    return sojourns


def queue_length_series(
    arrival_times: np.ndarray, departure_times: np.ndarray
) -> tuple:
    """Number-in-system step function from arrival/departure times.

    Returns ``(times, lengths)``: the event instants (arrivals and
    departures, time-ordered) and the queue length *after* each event.
    At a tie the arrival is counted before the departure, so transient
    spikes are visible rather than cancelled. Used by the telemetry
    layer to export per-queue length time series for the theoretical
    Q×U models (the vectorized analogue of the DES sampler's probes).
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    departures = np.asarray(departure_times, dtype=float)
    if arrivals.shape != departures.shape or arrivals.ndim != 1:
        raise ValueError("expected matching 1-D arrival/departure arrays")
    times = np.concatenate([arrivals, departures])
    deltas = np.concatenate(
        [np.ones(arrivals.size, dtype=np.int64), -np.ones(departures.size, dtype=np.int64)]
    )
    # Stable sort + arrivals listed first = arrivals win ties.
    order = np.argsort(times, kind="stable")
    return times[order], np.cumsum(deltas[order])


def queue_depth_at_arrivals(
    arrival_times: np.ndarray, departure_times: np.ndarray
) -> np.ndarray:
    """Number-in-system seen by each arrival (including itself).

    ``depth[i] = (i + 1) - |{j : departure_j <= arrival_i}|`` — an
    arrival-sampled queue-depth distribution, the quantity RPCValet's
    dispatcher threshold acts on. Departures at exactly the arrival
    instant count as already departed.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    departures = np.asarray(departure_times, dtype=float)
    if arrivals.shape != departures.shape or arrivals.ndim != 1:
        raise ValueError("expected matching 1-D arrival/departure arrays")
    departed = np.searchsorted(np.sort(departures), arrivals, side="right")
    return np.arange(1, arrivals.size + 1) - departed


def poisson_arrivals(
    rng: np.random.Generator, rate: float, count: int, start: float = 0.0
) -> np.ndarray:
    """Absolute arrival times of a Poisson process with the given rate."""
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count!r}")
    gaps = rng.exponential(1.0 / rate, size=count)
    return start + np.cumsum(gaps)
