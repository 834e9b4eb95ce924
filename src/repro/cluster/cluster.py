"""Multi-node cluster simulation: several modeled chips, all-to-all RPCs.

The paper's methodology models one chip and emulates its peers with a
traffic generator. This package closes the loop: every node is a full
simulated chip (cores, NIs, dispatcher, messaging buffers), each node
generates open-loop Poisson RPC traffic to its peers, and send-slot
flow control plus replenish routing run across a fabric with per-pair
latencies. It answers deployment-level questions the single-chip setup
cannot: end-to-end behaviour when every node is both client and
server, and sensitivity to fabric topology.

Destinations default to uniformly random peers; installing a
:class:`repro.rack.RackRouter` replaces that spray with a pluggable
inter-server policy driven by (possibly stale) load signals — the
two-level scheduling testbed the ``ext-rack`` experiment sweeps.
Racks can be heterogeneous (``core_counts``/``speed_factors``), and
``telemetry=True`` attaches per-node shared-CQ and send-slot-credit
probes plus router decision/staleness instrumentation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch import Chip, ChipConfig, SendMessage, make_send
from ..balancing import BalancingScheme, SingleQueue
from ..metrics import LatencyRecorder, LatencySummary
from ..sim import Environment, RngRegistry, delayed_call
from ..workloads import MicrobenchCosts, MicrobenchProgram, RpcWorkload
from .fabric import Fabric, UniformFabric

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector, FaultPlan, FaultStats, RetryConfig
    from ..popload.arrivals import ArrivalProcess
    from ..rack import RackRouter, RouterStats
    from ..telemetry import TelemetrySnapshot
    from ..tracing import TraceBuffer, TraceConfig

__all__ = ["Cluster", "ClusterNode", "ClusterResult", "mesh_geometry"]


def mesh_geometry(num_cores: int) -> Tuple[int, int]:
    """A near-square (rows, cols) mesh with ``rows * cols == num_cores``.

    Heterogeneous racks scale per-node core counts; the chip model
    requires a rectangular mesh, so pick the most square factoring
    (16 -> 4x4, 8 -> 2x4, 4 -> 2x2, 2 -> 1x2). Core counts with no
    non-trivial factorization (primes) degrade to a single 1xN row
    rather than failing — every count >= 1 yields a valid geometry.
    """
    if num_cores < 1:
        raise ValueError(f"num_cores must be >= 1, got {num_cores!r}")
    # isqrt, not int(n**0.5): float sqrt can round up past the true
    # integer root and send the search below the best factor.
    rows = math.isqrt(num_cores)
    while rows > 1 and num_cores % rows:
        rows -= 1
    return rows, num_cores // rows


def _peer_index(sender: int, receiver: int) -> int:
    """The sender's index in the receiver's messaging domain.

    A node's domain covers its N-1 peers; node ids skip the receiver
    itself.
    """
    return sender if sender < receiver else sender - 1


class _Rpc:
    """One logical RPC in robust (fault-injected) mode.

    A logical RPC may spawn several physical attempts (retries, a
    hedge); it resolves exactly once — on its first completion, or as
    lost when the retry budget is exhausted and no attempt remains
    live.
    """

    __slots__ = (
        "service_ns",
        "label",
        "t_start",
        "resolved",
        "retries_used",
        "live",
        "trace",
    )

    def __init__(self, service_ns: float, label: str, t_start: float) -> None:
        self.service_ns = service_ns
        self.label = label
        self.t_start = t_start
        self.resolved = False
        self.retries_used = 0
        #: Attempts issued and not yet concluded (completed or timed out).
        self.live = 0
        #: Span record when this RPC was sampled (None otherwise).
        self.trace = None


class ClusterNode:
    """One node: a full chip plus its client-side traffic state."""

    def __init__(
        self,
        cluster: "Cluster",
        node_id: int,
        scheme: BalancingScheme,
    ) -> None:
        self.cluster = cluster
        self.node_id = node_id
        rngs = cluster.rngs.spawn(f"node{node_id}")
        self._rngs = rngs
        self.chip = Chip(
            cluster.env,
            cluster.node_configs[node_id],
            MicrobenchProgram(cluster.costs),
            rngs,
        )
        scheme.install(self.chip, rngs.stream("dispatch"))
        self.chip.on_slot_replenished = (
            self._replenish_returned_robust
            if cluster.robust
            else self._replenish_returned
        )
        slots = cluster.config.send_slots_per_node
        self._slots_per_peer = slots
        #: Free send slots toward each destination node (by node id).
        self._free_slots: Dict[int, List[int]] = {
            dst: list(range(slots))
            for dst in range(cluster.num_nodes)
            if dst != node_id
        }
        self._pending: Dict[int, Deque[Tuple[int, float, str, object]]] = {}
        #: Legacy-mode traced sends in flight, keyed by (dst, slot):
        #: populated only for sampled RPCs, so it stays tiny.
        self._trace_open: Dict[Tuple[int, int], tuple] = {}
        self.generated = 0
        self.stalled = 0
        self._next_msg_id = 0
        #: Robust-mode state: live attempt records keyed by msg_id, and
        #: queued (not-yet-sent) attempt ids per destination.
        self._attempts: Dict[int, dict] = {}
        self._queued: Dict[int, Deque[int]] = {}
        self._peer_ids: List[int] = [
            n for n in range(cluster.num_nodes) if n != node_id
        ]
        self._arrival_rng = rngs.stream("arrivals")
        self._peer_rng = rngs.stream("peers")
        self._service_rng = rngs.stream("service")

    # -- client side --------------------------------------------------------

    def start_traffic(self, per_node_rps: float, num_requests: int) -> None:
        """Start this node's open-loop arrival chain."""
        cluster = self.cluster
        self._mean_gap_ns = 1e9 / per_node_rps
        self._num_requests = num_requests
        # Population-driven load: pre-draw this node's whole gap batch
        # from the process; None keeps the historical per-request
        # scalar draws (byte-identical stream consumption).
        process = cluster.arrival_process
        self._gaps = (
            process.sample_gaps(self._arrival_rng, num_requests)
            if process is not None
            else None
        )
        self._schedule_arrival(self._arrive_robust if cluster.robust else self._arrive, 0)

    def _schedule_arrival(self, arrive: Callable[[int], None], index: int) -> None:
        """Schedule arrival ``index`` one gap from now. Arrivals send
        before they call this: the draw order of a per-request loop."""
        if index < self._num_requests:
            gap = (
                float(self._gaps[index])
                if self._gaps is not None
                else self._arrival_rng.exponential(self._mean_gap_ns)
            )
            self.cluster.env.schedule_call(gap, arrive, index)

    def _arrive(self, index: int) -> None:
        """One legacy-mode arrival: route, sample, and send (or stall)."""
        cluster = self.cluster
        router = cluster.router
        tracer = cluster.tracer
        trace = None
        if tracer is not None:
            trace = tracer.maybe_trace(self.node_id, cluster.env.now)
            if trace is not None and router is not None:
                router.trace_capture = trace
        peer_rng = self._peer_rng
        if router is not None:
            dst = router.choose(self.node_id, peer_rng)
        else:
            peers = self._peer_ids
            dst = peers[int(peer_rng.integers(0, len(peers)))]
        service_ns, label = cluster.workload.sample(self._service_rng)
        speeds = cluster.speed_factors
        if speeds is not None:
            # A node at speed s processes the same RPC in 1/s the
            # time; slower nodes stretch it.
            service_ns /= speeds[dst]
        self.generated += 1
        if trace is not None:
            trace.label = label
        free = self._free_slots[dst]
        if free:
            self._send(dst, free.pop(), service_ns, label, trace)
        else:
            self.stalled += 1
            self._pending.setdefault(dst, deque()).append(
                (dst, service_ns, label, trace)
            )
        self._schedule_arrival(self._arrive, index + 1)

    def _send(
        self,
        dst: int,
        slot: int,
        service_ns: float,
        label: str,
        trace=None,
    ) -> None:
        cluster = self.cluster
        msg = make_send(
            cluster.config,
            msg_id=self._next_msg_id,
            src_node=_peer_index(self.node_id, dst),
            slot=slot,
            size_bytes=cluster.workload.request_size_bytes,
            service_ns=service_ns,
            label=label,
        )
        self._next_msg_id += 1
        #: Record the true sender for replenish routing.
        cluster.sender_of[(dst, msg.src_node, msg.slot)] = self.node_id
        delay = cluster.fabric.latency_ns(self.node_id, dst)
        if trace is not None:
            # Legacy mode: one attempt per RPC, launched at generation
            # time (credit_wait covers any stall in the pending queue).
            span = trace.new_attempt("first", dst, trace.t_init)
            span.t_sent = cluster.env.now
            self._trace_open[(dst, slot)] = (trace, span)
        target_chip = cluster.nodes[dst].chip
        delayed_call(cluster.env, delay, target_chip.submit_message, msg)

    # -- robust client side: timeouts, retries, hedges -----------------------

    def _arrive_robust(self, index: int) -> None:
        """One robust-mode arrival: a logical RPC with its first attempt."""
        cluster = self.cluster
        env = cluster.env
        service_ns, label = cluster.workload.sample(self._service_rng)
        rpc = _Rpc(service_ns, label, env.now)
        tracer = cluster.tracer
        if tracer is not None:
            trace = tracer.maybe_trace(self.node_id, env.now)
            if trace is not None:
                trace.label = label
                rpc.trace = trace
        self.generated += 1
        cluster.injector.stats.offered += 1
        self._launch_attempt(rpc)
        hedge_ns = cluster.retry.hedge_ns
        if hedge_ns is not None:
            env.schedule_call(hedge_ns, self._maybe_hedge, rpc)
        self._schedule_arrival(self._arrive_robust, index + 1)

    def _launch_attempt(self, rpc: _Rpc, kind: str = "first") -> None:
        """Issue one physical attempt of ``rpc`` (first, retry, or hedge)."""
        cluster = self.cluster
        peer_rng = self._peer_rng
        router = cluster.router
        injector = cluster.injector
        trace = rpc.trace
        if router is not None:
            if trace is not None:
                router.trace_capture = trace
            dst = router.choose(self.node_id, peer_rng)
        else:
            peers = self._peer_ids
            dst = peers[int(peer_rng.integers(0, len(peers)))]
        service_ns = rpc.service_ns
        speed = (
            cluster.speed_factors[dst]
            if cluster.speed_factors is not None
            else 1.0
        )
        # Static heterogeneity composes with any active slowdown fault;
        # both apply at launch time (the speed the RPC starts with).
        speed *= injector.speed_multiplier(dst)
        service_ns /= speed
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        attempt = {
            "rpc": rpc,
            "dst": dst,
            "slot": None,
            "service_ns": service_ns,
            "cancelled": False,
            "vanished": False,
            "reply_lost": False,
            "delivered": False,
            #: The server finished this request (even if the reply was
            #: suppressed) — its receive slot is free, so the send-slot
            #: credit is safe to reclaim at recovery.
            "server_done": False,
            #: True while this attempt holds a +1 in router.outstanding.
            "open": router is not None,
            #: Span record when the logical RPC is traced (None otherwise).
            "span": (
                trace.new_attempt(kind, dst, cluster.env.now)
                if trace is not None
                else None
            ),
        }
        self._attempts[msg_id] = attempt
        rpc.live += 1
        free = self._free_slots[dst]
        if free:
            self._send_attempt(msg_id, attempt, free.pop())
        else:
            self.stalled += 1
            self._queued.setdefault(dst, deque()).append(msg_id)
        cluster.env.schedule_call(
            cluster.retry.timeout_ns, self._attempt_timeout, msg_id
        )

    def _send_attempt(self, msg_id: int, attempt: dict, slot: int) -> None:
        cluster = self.cluster
        dst = attempt["dst"]
        attempt["slot"] = slot
        msg = make_send(
            cluster.config,
            msg_id=msg_id,
            src_node=_peer_index(self.node_id, dst),
            slot=slot,
            size_bytes=cluster.workload.request_size_bytes,
            service_ns=attempt["service_ns"],
            label=attempt["rpc"].label,
        )
        #: Robust mode stores (sender, msg_id) so a reclaimed-and-reissued
        #: slot cannot be credited to the wrong attempt.
        cluster.sender_of[(dst, msg.src_node, slot)] = (self.node_id, msg_id)
        delay = cluster.fabric.latency_ns(self.node_id, dst)
        span = attempt["span"]
        if span is not None:
            span.t_sent = cluster.env.now
        fate = cluster.injector.transmit(
            delay, cluster._deliver_request, self.node_id, dst, msg, msg_id
        )
        if fate == "drop":
            attempt["vanished"] = True
            if span is not None:
                span.add_event("request_dropped", cluster.env.now)

    def _attempt_timeout(self, msg_id: int) -> None:
        attempt = self._attempts.get(msg_id)
        if attempt is None or attempt["cancelled"]:
            return
        cluster = self.cluster
        stats = cluster.injector.stats
        rpc = attempt["rpc"]
        attempt["cancelled"] = True
        stats.timeouts += 1
        rpc.live -= 1
        span = attempt["span"]
        if span is not None:
            span.status = "timeout"
            span.add_event("timeout", cluster.env.now)
        if attempt["open"]:
            attempt["open"] = False
            cluster.router.on_attempt_abandoned(attempt["dst"])
        dst = attempt["dst"]
        slot = attempt["slot"]
        if slot is None:
            # Never sent: drop the record; the queued-id scan skips it.
            del self._attempts[msg_id]
        elif attempt["vanished"] or attempt["reply_lost"]:
            # The message (or its reply) provably died in the fabric;
            # the transport aborts the attempt and returns the credit.
            self._reclaim_attempt(msg_id, attempt)
        # else: leave the record — a late completion may still free the
        # slot, or recovery-time reclaim collects it.
        if rpc.resolved:
            return
        retry = cluster.retry
        if rpc.retries_used < retry.retry_budget:
            rpc.retries_used += 1
            stats.retries += 1
            backoff = retry.backoff_for(rpc.retries_used - 1)
            cluster.env.schedule_call(backoff, self._retry_attempt, rpc)
        elif rpc.live == 0:
            rpc.resolved = True
            cluster.resolved_total += 1
            cluster.lost_total += 1
            stats.lost += 1
            if rpc.trace is not None:
                rpc.trace.finish(cluster.env.now, None, outcome="lost")

    def _retry_attempt(self, rpc: _Rpc) -> None:
        if not rpc.resolved:
            self._launch_attempt(rpc, "retry")

    def _maybe_hedge(self, rpc: _Rpc) -> None:
        if rpc.resolved:
            return
        self.cluster.injector.stats.hedges += 1
        self._launch_attempt(rpc, "hedge")

    def _reply_received(
        self, msg_id: int, server: int, reported_load: Optional[float]
    ) -> None:
        """A completion reply reached this client (robust mode)."""
        cluster = self.cluster
        stats = cluster.injector.stats
        router = cluster.router
        if reported_load is not None and router is not None:
            router.deliver_report(self.node_id, server, reported_load)
        attempt = self._attempts.pop(msg_id, None)
        if attempt is None:
            # Duplicated reply, or the attempt was already reclaimed.
            stats.duplicate_completions += 1
            return
        rpc = attempt["rpc"]
        now = cluster.env.now
        span = attempt["span"]
        if span is not None:
            span.t_reply = now
        if attempt["cancelled"]:
            stats.late_completions += 1
            if span is not None:
                span.add_event("late_completion", now)
        else:
            rpc.live -= 1
        slot = attempt["slot"]
        if slot is not None:
            self._robust_slot_freed(attempt["dst"], slot)
        if not rpc.resolved:
            rpc.resolved = True
            cluster.resolved_total += 1
            stats.completed += 1
            cluster.e2e_recorder.record(now, now - rpc.t_start, rpc.label)
            if rpc.trace is not None:
                # The span's reply time *is* the recorded e2e endpoint,
                # so the phase decomposition sums to the recorded value.
                rpc.trace.finish(now, span)
        else:
            stats.duplicate_completions += 1
            if span is not None:
                span.status = "duplicate"
                span.add_event("duplicate_completion", now)

    def _reclaim_attempt(self, msg_id: int, attempt: dict) -> None:
        """Return a dead attempt's send-slot credit (robust mode)."""
        cluster = self.cluster
        if self._attempts.pop(msg_id, None) is None:
            return
        dst = attempt["dst"]
        slot = attempt["slot"]
        entry = cluster.sender_of.get((dst, _peer_index(self.node_id, dst), slot))
        if entry is not None and entry[1] == msg_id:
            del cluster.sender_of[(dst, _peer_index(self.node_id, dst), slot)]
        cluster.injector.stats.reclaimed_slots += 1
        self._robust_slot_freed(dst, slot)

    def _robust_slot_freed(self, dst: int, slot: int) -> None:
        queued = self._queued.get(dst)
        while queued:
            msg_id = queued.popleft()
            attempt = self._attempts.get(msg_id)
            if attempt is None or attempt["cancelled"]:
                continue
            self._send_attempt(msg_id, attempt, slot)
            return
        self._free_slots[dst].append(slot)

    # -- server side: replenish routed back to the true sender ---------------

    def _replenish_returned(self, msg: SendMessage) -> None:
        """Called on the *receiving* chip after its local wire delay.

        Routes the credit across the fabric back to the sender node.
        (The chip already applied ``config.wire_latency_ns``; the
        cluster uses zero-wire chips and applies fabric latency here.)
        """
        cluster = self.cluster
        cluster.completed_total += 1
        sender_id = cluster.sender_of.pop(
            (self.node_id, msg.src_node, msg.slot)
        )
        delay = cluster.fabric.latency_ns(self.node_id, sender_id)
        sender = cluster.nodes[sender_id]
        if cluster.tracer is not None:
            entry = sender._trace_open.pop((self.node_id, msg.slot), None)
            if entry is not None:
                trace, span = entry
                # Copy stamps now — the chip recycles ``msg`` right
                # after this callback returns.
                span.copy_server(msg)
                span.t_reply = cluster.env.now + delay
                trace.finish(cluster.env.now + delay, span)
        router = cluster.router
        if router is not None:
            # The completing server's load after this reply is what a
            # piggybacked signal would report to the issuing client.
            reported = router.on_complete(self.node_id)
            if router.wants_reply_reports:
                delayed_call(
                    cluster.env,
                    delay,
                    router.deliver_report,
                    sender_id,
                    self.node_id,
                    reported,
                )
        delayed_call(
            cluster.env, delay, sender._slot_freed, self.node_id, msg.slot
        )

    def _replenish_returned_robust(self, msg: SendMessage) -> None:
        """Robust-mode completion path: suppression, dedup, reconciliation.

        Differences from the legacy path: a down node's NI sends
        nothing (reply suppressed); the slot credit is validated
        against the attempt that currently owns it (a reclaimed slot
        may have been reissued); the reply — and any piggybacked load
        report — crosses the fabric through the fault injector, so it
        can be dropped, duplicated, or delayed like any other message.
        """
        cluster = self.cluster
        injector = cluster.injector
        stats = injector.stats
        key = (self.node_id, msg.src_node, msg.slot)
        if not injector.node_up(self.node_id):
            # Down NI: no reply, no replenish. Mark the attempt done at
            # the server so recovery-time reclaim knows the receive
            # slot is free (reclaiming an attempt whose request is
            # still queued in the pipeline would let the reissued send
            # slot collide with the occupied receive slot).
            stats.reply_suppressed += 1
            marker = cluster.sender_of.get(key)
            if marker is not None and marker[1] == msg.msg_id:
                done = cluster.nodes[marker[0]]._attempts.get(msg.msg_id)
                if done is not None:
                    done["server_done"] = True
                    span = done["span"]
                    if span is not None:
                        # Record the burned server work even though no
                        # reply leaves (duplicate-service accounting).
                        span.copy_server(msg)
                        span.add_event("reply_suppressed", cluster.env.now)
            return
        entry = cluster.sender_of.get(key)
        if entry is None:
            return  # attempt reclaimed at recovery; orphan completion
        sender_id, owner_msg_id = entry
        if owner_msg_id != msg.msg_id:
            return  # slot reclaimed and reissued; this reply is orphaned
        del cluster.sender_of[key]
        cluster.completed_total += 1
        sender = cluster.nodes[sender_id]
        attempt = sender._attempts.get(msg.msg_id)
        span = attempt["span"] if attempt is not None else None
        if attempt is not None:
            attempt["server_done"] = True
        if span is not None:
            # Copy stamps before the chip recycles ``msg``; the reply
            # itself may still be dropped or delayed below.
            span.copy_server(msg)
        router = cluster.router
        reported: Optional[float] = None
        if router is not None:
            if attempt is not None and attempt["open"]:
                attempt["open"] = False
                reported = router.on_complete(self.node_id)
            else:
                # Outstanding was already corrected at abandonment.
                reported = float(router.outstanding[self.node_id])
            if not router.wants_reply_reports or injector.signals_dark():
                reported = None
        delay = cluster.fabric.latency_ns(self.node_id, sender_id)
        fate = injector.transmit(
            delay, sender._reply_received, msg.msg_id, self.node_id, reported
        )
        if fate == "drop" and attempt is not None:
            attempt["reply_lost"] = True
            if span is not None:
                span.add_event("reply_dropped", cluster.env.now)
            if attempt["cancelled"]:
                # The timeout already gave up on this attempt; with the
                # reply provably gone, reclaim the credit here.
                sender._reclaim_attempt(msg.msg_id, attempt)

    def _slot_freed(self, dst: int, slot: int) -> None:
        pending = self._pending.get(dst)
        if pending:
            _dst, service_ns, label, trace = pending.popleft()
            self._send(dst, slot, service_ns, label, trace)
        else:
            self._free_slots[dst].append(slot)

    # -- observability -------------------------------------------------------

    def slots_in_use(self) -> int:
        """Send-slot credits currently held across all destinations."""
        return sum(
            self._slots_per_peer - len(free)
            for free in self._free_slots.values()
        )

    def shared_cq_depth(self) -> int:
        """Entries waiting in this node's dispatcher shared CQ(s)."""
        return sum(
            len(dispatcher.shared_cq) for dispatcher in self.chip.dispatchers
        )


@dataclass
class ClusterResult:
    """Aggregate and per-node results of a cluster run."""

    num_nodes: int
    aggregate: LatencySummary
    per_node: List[LatencySummary]
    total_throughput_mrps: float
    stall_fractions: List[float]
    completed: int
    #: RPCs completed at each node (the server-side view of routing).
    per_node_completed: List[int] = field(default_factory=list)
    #: Routing behaviour, when a rack router drove destinations.
    router_stats: Optional["RouterStats"] = None
    #: Telemetry snapshot, when the cluster ran instrumented.
    telemetry: Optional["TelemetrySnapshot"] = None
    #: Robust-mode (fault-injected) results; None on legacy runs.
    #: ``e2e`` is the *client-side* end-to-end latency of each logical
    #: RPC, including queueing for credits, retries, and hedging —
    #: ``aggregate`` keeps its historical server-side meaning.
    e2e: Optional[LatencySummary] = None
    #: Logical RPCs offered / lost to exhausted retry budgets.
    offered: int = 0
    lost: int = 0
    #: Distinct successful RPC completions per unit time, MRPS — the
    #: useful-work counterpart of ``total_throughput_mrps`` (which
    #: counts all server work, retried duplicates included).
    goodput_mrps: float = 0.0
    #: Per-node fraction of the run spent up.
    availability: Optional[List[float]] = None
    fault_stats: Optional["FaultStats"] = None
    #: Sampled per-RPC span trees, when the cluster ran with
    #: ``trace=TraceConfig(...)`` (see :mod:`repro.tracing`).
    spans: Optional["TraceBuffer"] = None

    @property
    def p99_ns(self) -> float:
        return self.aggregate.p99

    @property
    def goodput_fraction(self) -> float:
        """Offered logical RPCs that eventually completed."""
        if self.offered == 0:
            return 1.0
        return (self.offered - self.lost) / self.offered

    def imbalance(self) -> float:
        """Max/min per-node mean latency — cross-node fairness check."""
        means = [summary.mean for summary in self.per_node if summary.count]
        if not means:
            return float("nan")
        return max(means) / min(means)

    def slowdowns(self) -> List[float]:
        """Per-node p99 relative to the best node's p99."""
        tails = [summary.p99 for summary in self.per_node if summary.count]
        if not tails:
            return []
        best = min(tails)
        return [tail / best for tail in tails]


class Cluster:
    """K fully simulated nodes exchanging RPCs over a fabric."""

    def __init__(
        self,
        num_nodes: int,
        scheme_factory: Callable[[], BalancingScheme] = SingleQueue,
        workload: Optional[RpcWorkload] = None,
        config: Optional[ChipConfig] = None,
        costs: Optional[MicrobenchCosts] = None,
        fabric: Optional[Fabric] = None,
        seed: int = 0,
        interference_factory: Optional[Callable[[int], object]] = None,
        router: Optional["RackRouter"] = None,
        core_counts: Optional[Sequence[int]] = None,
        speed_factors: Optional[Sequence[float]] = None,
        telemetry: bool = False,
        telemetry_interval_ns: Optional[float] = None,
        faults: Optional["FaultPlan"] = None,
        retry: Optional["RetryConfig"] = None,
        trace: Optional["TraceConfig"] = None,
        arrival_process: Optional["ArrivalProcess"] = None,
    ) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
        from ..workloads import HerdWorkload

        if arrival_process is not None:
            from ..popload.arrivals import ArrivalProcess as _ArrivalProcess

            if not isinstance(arrival_process, _ArrivalProcess):
                raise TypeError(
                    "arrival_process must be a repro.popload "
                    f"ArrivalProcess, got {type(arrival_process).__name__}"
                )
        #: Optional :mod:`repro.popload` arrival stream, applied at every
        #: node (each node consumes its own named "arrivals" RNG stream,
        #: so realizations stay independent). None keeps the historical
        #: per-node stationary Poisson, byte-identical.
        self.arrival_process = arrival_process
        self.num_nodes = num_nodes
        self.workload = workload if workload is not None else HerdWorkload()
        self.costs = costs if costs is not None else MicrobenchCosts.lean()
        base_config = config if config is not None else ChipConfig()
        # Each node's messaging domain covers its K-1 peers; fabric
        # latency replaces the chip's built-in wire delay.
        self.config = base_config.with_updates(
            num_nodes=num_nodes, wire_latency_ns=0.0
        )
        #: Per-node chip configs; heterogeneous when ``core_counts``
        #: varies (the mesh is refactored to stay rectangular).
        if core_counts is not None:
            if len(core_counts) != num_nodes:
                raise ValueError(
                    f"core_counts has {len(core_counts)} entries for "
                    f"{num_nodes} nodes"
                )
            self.node_configs = [
                self._config_for_cores(int(cores)) for cores in core_counts
            ]
        else:
            self.node_configs = [self.config] * num_nodes
        if speed_factors is not None:
            if len(speed_factors) != num_nodes:
                raise ValueError(
                    f"speed_factors has {len(speed_factors)} entries for "
                    f"{num_nodes} nodes"
                )
            if any(speed <= 0 for speed in speed_factors):
                raise ValueError("speed_factors must be positive")
            self.speed_factors: Optional[List[float]] = [
                float(speed) for speed in speed_factors
            ]
        else:
            self.speed_factors = None
        self.fabric = (
            fabric if fabric is not None else UniformFabric(num_nodes)
        )
        if self.fabric.num_nodes != num_nodes:
            raise ValueError("fabric and cluster disagree on node count")
        self.seed = seed
        self.rngs = RngRegistry(seed)
        self.env = Environment()
        #: (receiver, sender_perspective_index, slot) → sender node id
        #: (legacy mode) or (sender node id, msg_id) (robust mode).
        self.sender_of: Dict[Tuple[int, int, int], object] = {}
        #: Completions across all nodes so far (drained-traffic check).
        self.completed_total = 0
        self._expected_total = 0
        #: Rack-level scheduler; None keeps the historical uniform spray.
        self.router = router
        self.telemetry = telemetry
        self.telemetry_interval_ns = telemetry_interval_ns
        #: Robust mode: fault injection and/or client-side retries. The
        #: legacy path (both None) is byte-identical to previous behaviour.
        self.robust = faults is not None or retry is not None
        self.injector: Optional["FaultInjector"] = None
        self.retry: Optional["RetryConfig"] = None
        self.e2e_recorder: Optional[LatencyRecorder] = None
        #: Logical RPCs resolved (completed once, or declared lost).
        self.resolved_total = 0
        self.lost_total = 0
        if self.robust:
            from ..faults import FaultInjector, FaultPlan, RetryConfig

            self.fault_plan = faults if faults is not None else FaultPlan()
            self.retry = retry if retry is not None else RetryConfig()
            self.injector = FaultInjector(self.fault_plan, self)
            self.injector.on_recovery.append(self._reclaim_after_recovery)
            self.e2e_recorder = LatencyRecorder()
        else:
            self.fault_plan = None
        #: Span tracer; None keeps every instrumented site a dead branch.
        self.tracer = None
        if trace is not None:
            from ..tracing import Tracer

            self.tracer = Tracer(trace)
            if self.injector is not None:
                self.injector.tracer = self.tracer
        self.nodes: List[ClusterNode] = [
            ClusterNode(self, node_id, scheme_factory())
            for node_id in range(num_nodes)
        ]
        if router is not None:
            router.bind(self)
        if interference_factory is not None:
            # Per-node §3.2 interference (e.g. one degraded node):
            # the factory returns None for healthy nodes.
            for node in self.nodes:
                node.chip.interference = interference_factory(node.node_id)

    def _config_for_cores(self, cores: int) -> ChipConfig:
        """The cluster config rescaled to a node with ``cores`` cores."""
        rows, cols = mesh_geometry(cores)
        return self.config.with_updates(
            num_cores=cores,
            mesh_rows=rows,
            mesh_cols=cols,
            num_backends=min(self.config.num_backends, cores),
        )

    def capacity_weight(self, node_id: int) -> float:
        """Relative service capacity of a node (cores x speed)."""
        cores = self.node_configs[node_id].num_cores
        speed = self.speed_factors[node_id] if self.speed_factors else 1.0
        return cores * speed

    def traffic_drained(self) -> bool:
        """True once every generated request has completed.

        In robust mode, "completed" means every logical RPC *resolved*
        — completed once or declared lost — so heartbeat / broadcast /
        detector processes terminate even when some requests die to
        injected faults.
        """
        if self.robust:
            return (
                self._expected_total > 0
                and self.resolved_total >= self._expected_total
            )
        return (
            self._expected_total > 0
            and self.completed_total >= self._expected_total
        )

    # -- robust-mode fabric delivery and recovery reclaim --------------------

    def _deliver_request(
        self, src: int, dst: int, msg: SendMessage, msg_id: int
    ) -> None:
        """One request arrives at ``dst``'s NI (robust mode only)."""
        attempt = self.nodes[src]._attempts.get(msg_id)
        if not self.injector.node_up(dst):
            self.injector.stats.crash_drops += 1
            if attempt is not None:
                attempt["vanished"] = True
                span = attempt["span"]
                if span is not None:
                    span.add_event("crash_drop", self.env.now)
                if attempt["cancelled"]:
                    # A delay spike pushed arrival past the client's
                    # timeout; reclaim the credit now that the message
                    # provably died.
                    self.nodes[src]._reclaim_attempt(msg_id, attempt)
            return
        if attempt is not None:
            if attempt["delivered"]:
                return  # NI sequence-number dedup of a duplicated request
            attempt["delivered"] = True
        self.nodes[dst].chip.submit_message(msg)

    def _reclaim_after_recovery(self, node: int) -> None:
        """Ground-truth recovery of ``node``: reconnect and reclaim.

        Every sender drops its abandoned attempts toward the recovered
        node and takes the leaked send-slot credits back — the
        transport-level reconnect a real client performs when a dead
        peer returns.
        """
        for sender in self.nodes:
            if sender.node_id == node:
                continue
            stale = [
                (msg_id, attempt)
                for msg_id, attempt in sender._attempts.items()
                if attempt["dst"] == node
                and attempt["cancelled"]
                and attempt["slot"] is not None
                and attempt["server_done"]
            ]
            for msg_id, attempt in stale:
                sender._reclaim_attempt(msg_id, attempt)

    def run(
        self,
        per_node_mrps: float,
        requests_per_node: int,
        warmup_fraction: float = 0.1,
    ) -> ClusterResult:
        """Drive every node at ``per_node_mrps`` and collect results."""
        if per_node_mrps <= 0:
            raise ValueError(f"per_node_mrps must be positive, got {per_node_mrps!r}")
        if requests_per_node <= 0:
            raise ValueError(
                f"requests_per_node must be positive, got {requests_per_node!r}"
            )
        self._expected_total = self.num_nodes * requests_per_node
        #: Expected injection window; the fault plan materializes its
        #: rate-based events over this horizon.
        injection_ns = requests_per_node / (per_node_mrps * 1e6) * 1e9
        if self.injector is not None:
            self.injector.start(injection_ns)
        hub = None
        if self.telemetry:
            from ..telemetry import TelemetryHub, instrument_cluster

            interval = self.telemetry_interval_ns
            if interval is None:
                # ~200 sampler ticks across the expected injection window.
                interval = max(injection_ns / 200.0, 1.0)
            hub = TelemetryHub(sample_interval=interval)
            instrument_cluster(self, hub)
            self.env.attach_sampler(hub.make_sampler())
        if self.router is not None:
            self.router.start()
        for node in self.nodes:
            node.start_traffic(per_node_mrps * 1e6, requests_per_node)
        self.env.run()

        per_node = [
            node.chip.recorder.summary(warmup_fraction=warmup_fraction)
            for node in self.nodes
        ]
        all_latencies = np.concatenate(
            [
                node.chip.recorder.latencies(warmup_fraction=warmup_fraction)
                for node in self.nodes
            ]
        )
        aggregate = LatencySummary.from_values(all_latencies)
        completed = sum(node.chip.stats.completed for node in self.nodes)
        elapsed_ns = self.env.now
        total_mrps = completed / elapsed_ns * 1e3 if elapsed_ns > 0 else 0.0
        e2e = None
        offered = 0
        lost = 0
        goodput = 0.0
        availability = None
        fault_stats = None
        if self.robust:
            fault_stats = self.injector.stats
            e2e = self.e2e_recorder.summary(warmup_fraction=warmup_fraction)
            offered = fault_stats.offered
            lost = self.lost_total
            goodput = (
                fault_stats.completed / elapsed_ns * 1e3
                if elapsed_ns > 0
                else 0.0
            )
            availability = self.injector.availability(elapsed_ns)
        return ClusterResult(
            num_nodes=self.num_nodes,
            aggregate=aggregate,
            per_node=per_node,
            total_throughput_mrps=total_mrps,
            stall_fractions=[
                node.stalled / node.generated if node.generated else 0.0
                for node in self.nodes
            ],
            completed=completed,
            per_node_completed=[
                node.chip.stats.completed for node in self.nodes
            ],
            router_stats=self.router.stats if self.router is not None else None,
            telemetry=hub.snapshot() if hub is not None else None,
            e2e=e2e,
            offered=offered,
            lost=lost,
            goodput_mrps=goodput,
            availability=availability,
            fault_stats=fault_stats,
            spans=self.tracer.buffer if self.tracer is not None else None,
        )
