"""Vectorized rack/cluster fast path: per-RPC fidelity, no DES kernel.

The DES cluster prices every NI pipeline stage of every RPC. At rack
scale the questions are about *routing* — which server each RPC hits
and how long it queues there — so this engine collapses each chip to a
FIFO service process whose fixed per-RPC overhead is **calibrated
against the DES tier itself** (a light-load two-node probe), then
simulates the whole rack with the ``fastsim`` struct-of-arrays
approach:

* batched arrival/service sampling
  (:func:`repro.fastpath.loop.sample_requests`);
* state-independent policies (random/RR) route entirely vectorized and
  run each node as one :func:`repro.queueing.fastsim.simulate_fifo_queue`
  call (per-node server-free-time heaps in flat arrays);
* load-aware policies (JSQ(d)/SED), binding send slots and
  :class:`repro.faults.FaultPlan` timelines run the fast tier's one
  sequential loop (:func:`repro.fastpath.loop.run_loop`) behind this
  module's rack front-end, which reuses the *exact* policy/signal
  classes from :mod:`repro.rack` so routing semantics cannot drift.

Approximations versus DES (documented in EXPERIMENTS.md): the chip is
a FIFO with calibrated fixed overhead (no NI pipelining or mesh
contention), fabric latency is a uniform shift (it cancels out of
server-side sojourns), send-slot exhaustion is *counted* as stalls but
does not delay the message, and broadcast load signals refresh at the
first event past each tick rather than mid-gap. Under faults: requests
in flight when their server crashes keep their departure times (only
new work is dropped/frozen), blocked sends re-issued by a replenish
skip the liveness check, duplicated deliveries are counted but not
re-executed, and signal blackouts are a no-op (signals here are
synchronous state reads). Tolerance bands are enforced by
``tests/test_fastpath.py``.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from ..cluster.cluster import ClusterResult
from ..queueing.fastsim import simulate_fifo_queue, spray_departures
from ..rack.policies import ZipfDestinations, make_policy
from ..rack.router import RouterStats
from ..rack.signals import BroadcastSignal, PiggybackSignal, make_signal
from .calibration import bisect_occupancy, light_load_overhead_ns
from .loop import (
    FaultTimeline, RoutingStream, build_result, check_scenario, run_loop, sample_requests,
)

__all__ = [
    "calibrated_scheme_profile",
    "simulate_rack_fast",
]

#: Matches ``repro.arch.ChipConfig.send_slots_per_node``.
DEFAULT_SEND_SLOTS = 32

#: Mid-load calibration probe for the 16x1 occupancy split (per-core
#: utilization ~0.85 with the HERD workload — the regime the rack
#: sweeps actually run in).
_PROBE_MRPS = 24.0
_PROBE_NODES = 4
_PROBE_REQUESTS = 1500


@lru_cache(maxsize=None)
def calibrated_scheme_profile(
    scheme: str, cores: int, probe_seed: int = 0
) -> tuple:
    """DES-anchored ``(occupancy_overhead_ns, latency_shift_ns)``.

    The light-load probe measures the *total* per-RPC latency overhead
    L, but only the part of L that occupies a core contributes to
    queueing; the rest (NI pipeline stages overlapped with other
    requests) is a pure latency shift. For ``1x16`` the two coincide —
    the shared 16-server queue's waits are insensitive to the split and
    the DES cross-checks confirm occupancy ≈ L. For ``16x1`` the
    per-core M/G/1 queues are *very* sensitive to occupancy, and the
    DES chip demonstrably overlaps part of L (a node at per-core
    utilization ~0.86 queues far less than an M/G/1 spray with service
    D̄+L would): a second DES probe at mid load anchors the split by
    bisecting the occupancy until this engine reproduces the probe's
    mean sojourn on the identical scenario. Cached per (scheme, cores):
    rack sweeps reuse a handful of probes across dozens of points.
    """
    from ..datacenter.topology import node_profile

    overhead = light_load_overhead_ns(
        node_profile("baseline"), scheme, cores, probe_seed
    )
    if scheme != "16x1":
        return overhead, 0.0

    from ..balancing import Partitioned
    from ..cluster import Cluster
    from ..rack import RackRouter
    from ..workloads import HerdWorkload

    cluster = Cluster(
        num_nodes=_PROBE_NODES,
        scheme_factory=Partitioned,
        workload=HerdWorkload(),
        seed=probe_seed,
        router=RackRouter("random", "fresh"),
        core_counts=[cores] * _PROBE_NODES,
    )
    target = cluster.run(
        per_node_mrps=_PROBE_MRPS, requests_per_node=_PROBE_REQUESTS
    ).aggregate.mean

    def engine_mean(occupancy: float) -> float:
        result = simulate_rack_fast(
            _PROBE_NODES,
            policy="random",
            scheme=scheme,
            core_counts=[cores] * _PROBE_NODES,
            per_node_mrps=_PROBE_MRPS,
            requests_per_node=_PROBE_REQUESTS,
            seed=probe_seed,
            _profile=(occupancy, overhead - occupancy),
        )
        return result.aggregate.mean

    return bisect_occupancy(engine_mean, target, overhead)


def _route_static(
    label: str,
    destinations: ZipfDestinations,
    clients: np.ndarray,
    rng: np.random.Generator,
    num_nodes: int,
) -> np.ndarray:
    """Vectorized destinations for state-independent policies."""
    dsts = np.empty(clients.size, dtype=np.int64)
    for client in range(num_nodes):
        mask = clients == client
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        peers = np.asarray(destinations.peers_of(client))
        if label == "rr":
            start = client % peers.size
            dsts[mask] = peers[(start + np.arange(count)) % peers.size]
        else:  # popularity-weighted random spray
            cumulative = destinations.cumulative_of(client)
            index = np.searchsorted(cumulative, rng.random(count), side="right")
            dsts[mask] = peers[np.minimum(index, cumulative.size - 1)]
    return dsts


def _node_departures(
    scheme: str,
    arrivals: np.ndarray,
    services: np.ndarray,
    cores: int,
    spray_rng: np.random.Generator,
) -> np.ndarray:
    """Departure times of one node's arrivals under its scheme."""
    if scheme == "1x16":
        return simulate_fifo_queue(arrivals, services, cores, validate=False)
    # 16x1: uniform spray to per-core FIFOs, each a Lindley recurrence.
    return spray_departures(arrivals, services, cores, 1, spray_rng)


def _count_stalls(
    clients: np.ndarray,
    dsts: np.ndarray,
    times: np.ndarray,
    departures: np.ndarray,
    num_nodes: int,
    slots: int,
) -> np.ndarray:
    """Per-client count of sends that found no free send slot.

    Exact per-(client, dst) in-flight bookkeeping for rack-sized
    fan-outs; above 32 nodes the per-pair slot pools are effectively
    never exhausted and a node-level aggregate threshold suffices.
    """
    stalled = np.zeros(num_nodes, dtype=np.int64)
    if num_nodes <= 32:
        for client in range(num_nodes):
            cmask = clients == client
            for dst in range(num_nodes):
                if dst == client:
                    continue
                mask = cmask & (dsts == dst)
                count = int(np.count_nonzero(mask))
                if count <= slots:
                    continue
                arr = times[mask]
                done = np.searchsorted(np.sort(departures[mask]), arr, side="right")
                inflight = np.arange(count) - done
                stalled[client] += int(np.count_nonzero(inflight >= slots))
        return stalled
    for dst in range(num_nodes):
        mask = dsts == dst
        count = int(np.count_nonzero(mask))
        if count <= slots:
            continue
        arr = times[mask]
        done = np.searchsorted(np.sort(departures[mask]), arr, side="right")
        inflight = np.arange(count) - done
        over = inflight >= slots * (num_nodes - 1)
        np.add.at(stalled, clients[mask][over], 1)
    return stalled


def simulate_rack_fast(
    num_nodes: int,
    policy: str = "random",
    signal: str = "fresh",
    skew: float = 0.0,
    scheme: str = "1x16",
    core_counts: Optional[Sequence[int]] = None,
    speed_factors: Optional[Sequence[float]] = None,
    per_node_mrps: float = 24.0,
    requests_per_node: int = 1000,
    seed: int = 0,
    warmup_fraction: float = 0.1,
    telemetry: bool = False,
    send_slots_per_node: int = DEFAULT_SEND_SLOTS,
    arrival_process=None,
    faults=None,
    _profile: Optional[tuple] = None,
) -> ClusterResult:
    """Run one rack scenario on the vectorized fast path.

    Accepts the same scenario knobs as the DES :class:`repro.cluster.Cluster`
    + :class:`repro.rack.RackRouter` combination and returns the same
    :class:`~repro.cluster.cluster.ClusterResult` shape, so drivers can
    switch engines without touching their downstream analysis.

    ``arrival_process`` (any :class:`repro.popload.ArrivalProcess`)
    replaces each client's Poisson stream with the process's own
    ``sample_gaps`` — diurnal/flash thinning, population windows — one
    deterministic sweep per client. ``faults`` (a
    :class:`repro.faults.FaultPlan`) runs the materialized timeline
    inside the sequential loop and populates the robust-mode result
    fields (``offered``/``lost``/``goodput_mrps``/``availability``/
    ``fault_stats``); both default to the legacy behaviour and leave
    the legacy RNG consumption untouched.
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
    if send_slots_per_node < 1:
        raise ValueError(f"send_slots_per_node must be >= 1, got {send_slots_per_node!r}")
    cores = [int(count) for count in core_counts] if core_counts is not None else [16] * num_nodes
    speeds = np.asarray(
        speed_factors if speed_factors is not None else [1.0] * num_nodes, dtype=float
    )
    check_scenario(num_nodes, per_node_mrps, requests_per_node, warmup_fraction, cores, speeds)
    policy_obj = make_policy(policy)
    signal_obj = make_signal(signal)
    destinations = ZipfDestinations(num_nodes, skew)

    # Per-node (core occupancy, pipelined latency shift) split; the
    # ``_profile`` hook lets the calibration bisection drive this
    # engine with candidate splits without recursing into the probes.
    profiles = (
        [_profile] * num_nodes
        if _profile is not None
        else [calibrated_scheme_profile(scheme, count) for count in cores]
    )
    occupancy = np.array([profile[0] for profile in profiles])
    shift = np.array([profile[1] for profile in profiles])

    times, clients, processing, route_rng = sample_requests(
        num_nodes, requests_per_node, per_node_mrps, arrival_process, seed
    )
    timeline = FaultTimeline.of(faults, num_nodes, times, seed)

    static_dsts: Optional[np.ndarray] = None
    if not policy_obj.uses_load_signal:
        static_dsts = _route_static(policy_obj.label, destinations, clients, route_rng, num_nodes)

    errors: Optional[np.ndarray] = None
    if timeline is None and static_dsts is not None and not _slots_may_bind(
        static_dsts, processing, speeds, occupancy, cores, times, send_slots_per_node, num_nodes
    ):
        # Fully vectorized: state-independent routing, no send-slot
        # pressure — each node is one struct-of-arrays FIFO call.
        dsts = static_dsts
        departures = np.empty(times.size)
        services = processing / speeds[dsts] + occupancy[dsts]
        for node in range(num_nodes):
            mask = dsts == node
            departures[mask] = _node_departures(
                scheme, times[mask], services[mask], cores[node], route_rng
            )
        stalled = _count_stalls(clients, dsts, times, departures, num_nodes, send_slots_per_node)
        sojourns = departures - times + shift[dsts]
        dropped = None
    else:
        stream = RoutingStream(route_rng)
        route, admit, release, errors, stalled = _rack_front_end(
            policy_obj, signal_obj, destinations, cores, speeds, stream,
            send_slots_per_node, static_dsts, times.size,
        )
        dsts, sojourns, departures, dropped = run_loop(
            (times, clients, processing, stream), route, admit, release, cores, speeds,
            occupancy, shift, one_queue=scheme == "1x16", timeline=timeline,
        )

    stats = RouterStats(policy=policy_obj.label, signal=signal_obj.label, skew=skew)
    return build_result(
        num_nodes, dsts, sojourns, departures, dropped, stalled, requests_per_node,
        warmup_fraction, timeline, stats, errors, telemetry,
    )


def _slots_may_bind(
    dsts: np.ndarray,
    processing: np.ndarray,
    speeds: np.ndarray,
    occupancy: np.ndarray,
    cores: List[int],
    times: np.ndarray,
    slots: int,
    num_nodes: int,
) -> bool:
    """Predict whether send-slot backpressure can shape the run.

    The vectorized open-loop path is exact while no destination nears
    saturation (in-flight per client-destination pair stays far below
    the slot pool). A hot shard past ~85% utilization builds queues
    deep enough for the DES's slot blocking to throttle senders, so
    those runs take the sequential closed-loop path instead.
    """
    horizon = float(times[-1]) if times.size else 0.0
    if horizon <= 0:
        return False
    counts = np.bincount(dsts, minlength=num_nodes)
    mean_service = processing.mean() / speeds + occupancy
    offered = counts / horizon  # per-ns arrival rate per destination
    utilization = offered * mean_service / np.asarray(cores, dtype=float)
    return bool(utilization.max() > 0.85)


def _rack_front_end(
    policy_obj, signal_obj, destinations: ZipfDestinations, cores: List[int],
    speeds: np.ndarray, rng: RoutingStream, slots: int,
    static_dsts: Optional[np.ndarray], total: int,
):
    """The rack's ``(route, admit, release)`` callbacks for ``run_loop``.

    Load-aware policies (JSQ(d)/SED) are inherently state-dependent, so
    every decision calls the rack package's policy object, the one the
    DES router calls, on a node-indexed load row; only the signal
    models are re-expressed on flat state (live counters, broadcast
    snapshots, per-client piggyback views) because the DES versions are
    event-driven. State-independent
    policies pass their precomputed destinations via ``static_dsts``
    and only pay for the closed-loop send-slot bookkeeping.

    Like the DES, a send finding its per-(client, dst) slot pool
    exhausted waits client-side for a replenish; the server-side
    sojourn clock starts at submission, not generation.

    Also returns the per-decision staleness errors (an array the loop
    fills as it routes; None for static routing) and per-client stall
    counts.
    """
    num_nodes = len(cores)
    outstanding = [0] * num_nodes
    stalled = [0] * num_nodes
    inflight = [[0] * num_nodes for _ in range(num_nodes)]
    pending: dict = {}
    views = (
        [[0.0] * num_nodes for _ in range(num_nodes)]
        if static_dsts is None and isinstance(signal_obj, PiggybackSignal)
        else None
    )

    def admit(index: int, client: int, dst: int, entered_at: float) -> bool:
        outstanding[dst] += 1
        row = inflight[client]
        if row[dst] >= slots:
            stalled[client] += 1
            pending.setdefault((client, dst), deque()).append(index)
            return False
        row[dst] += 1
        return True

    def release(when: float, dst: int, client: int):
        outstanding[dst] -= 1
        if views is not None:
            views[client][dst] = float(outstanding[dst])
        queue = pending.get((client, dst)) if pending else None
        if queue:
            # The freed slot's credit re-issues the oldest blocked send
            # at the replenish instant, like the DES client.
            index = queue.popleft()
            if not queue:
                del pending[(client, dst)]
            return index, when
        inflight[client][dst] -= 1
        return None

    if static_dsts is not None:
        static = static_dsts.tolist()
        return lambda index, client, now: static[index], admit, release, None, stalled

    errors = array("d", bytes(8 * total))
    capacities = [cores[node] * float(speeds[node]) for node in range(num_nodes)]
    is_broadcast = isinstance(signal_obj, BroadcastSignal)
    period = signal_obj.period_ns if is_broadcast else 0.0
    next_tick = period
    # A broadcast snapshot is a tuple: a frozen row, which the policies
    # may reuse work on until the next tick (see ``RackPolicy.choose``).
    snap = (0,) * num_nodes
    choose = policy_obj.choose

    def route(index: int, client: int, now: float) -> int:
        nonlocal snap, next_tick
        if is_broadcast:
            while now >= next_tick:
                snap = tuple(outstanding)
                next_tick += period
            believe = snap
        elif views is not None:
            believe = views[client]
        else:
            believe = outstanding
        dst = choose(client, destinations, believe, None, capacities, rng)
        errors[index] = abs(float(believe[dst]) - outstanding[dst])
        return dst

    return route, admit, release, np.frombuffer(errors), stalled
