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

Every run goes through one client path: an arrival creates a logical
RPC, which launches attempts; an attempt waits for a send-slot credit,
is sent, and its reply brings the credit back. Faults and retries only
switch parts of it on. Without a ``FaultPlan`` or ``RetryConfig`` there
is no fault injector (messages go straight onto the fabric), no
per-attempt timeout or hedge, and no client-side e2e recording.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch import Chip, ChipConfig, SendFactory, SendMessage
from ..balancing import BalancingScheme, SingleQueue
from ..metrics import LatencyRecorder, LatencySummary
from ..popload.arrivals import ArrivalProcess, StationaryPoisson
from ..sim import Environment, RngRegistry
from ..workloads import MicrobenchCosts, MicrobenchProgram, RpcWorkload
from .fabric import Fabric, UniformFabric

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector, FaultPlan, FaultStats, RetryConfig
    from ..rack import RackRouter, RouterStats
    from ..telemetry import TelemetrySnapshot
    from ..tracing import TraceBuffer, TraceConfig

__all__ = [
    "Cluster",
    "ClusterNode",
    "ClusterResult",
    "check_load",
    "check_speed_factors",
    "mesh_geometry",
]


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


def check_load(per_node_mrps: float, requests_per_node: int, warmup_fraction: float) -> None:
    """Reject a load point before any event runs, on every tier.

    NaN or infinite rates would otherwise run to a NaN tail or to
    zero-gap arrivals, and a bad warm-up fraction would only raise once
    the whole simulation had finished.
    """
    if not (0.0 < per_node_mrps < math.inf and requests_per_node > 0):
        raise ValueError(
            "per_node_mrps must be positive and finite and requests_per_node "
            f"positive, got {per_node_mrps!r} and {requests_per_node!r}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")


def check_speed_factors(speeds: Sequence[float], num_nodes: int) -> None:
    """Reject per-node speeds that would make service times NaN or zero."""
    if len(speeds) != num_nodes:
        raise ValueError(f"speed_factors has {len(speeds)} entries for {num_nodes} nodes")
    if not all(0.0 < speed < math.inf for speed in speeds):
        raise ValueError(f"speed_factors must be positive and finite, got {list(speeds)!r}")


def _peer_index(sender: int, receiver: int) -> int:
    """The sender's index in the receiver's messaging domain.

    A node's domain covers its N-1 peers; node ids skip the receiver
    itself.
    """
    return sender if sender < receiver else sender - 1


class _Rpc:
    """One logical RPC.

    A logical RPC may spawn several physical attempts (retries, a
    hedge); it resolves exactly once — on its first completion, or as
    lost when the retry budget is exhausted and no attempt remains
    live. Without a :class:`~repro.faults.RetryConfig` it has exactly
    one attempt.
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


class _Attempt:
    """One physical attempt of a logical RPC: one request to one server."""

    __slots__ = (
        "rpc", "client", "dst", "service_ns", "span", "open", "msg_id", "slot",
        "cancelled", "vanished", "reply_lost", "delivered", "server_done",
    )

    def __init__(
        self, rpc: _Rpc, client: "ClusterNode", dst: int, service_ns: float, span, open_: bool
    ) -> None:
        self.rpc = rpc
        self.client = client
        self.dst = dst
        #: Service time at ``dst``'s speed when the attempt launched.
        self.service_ns = service_ns
        #: Span record when the logical RPC is traced (None otherwise).
        self.span = span
        #: True while this attempt holds a +1 in router.outstanding.
        self.open = open_
        #: Set by :meth:`ClusterNode._number`; None until then.
        self.msg_id: Optional[int] = None
        #: The send slot, once a credit was granted.
        self.slot: Optional[int] = None
        self.cancelled = False
        self.vanished = False
        self.reply_lost = False
        self.delivered = False
        #: The server finished this request (even if the reply was
        #: suppressed) — its receive slot is free, so the send-slot
        #: credit is safe to reclaim at recovery.
        self.server_done = False


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
        self.chip.on_slot_replenished = self._replenish_returned
        #: Builds this node's outgoing requests (no recycling: a sent
        #: record may still be in flight or duplicated on the fabric).
        self._sends = SendFactory(cluster.config)
        slots = cluster.config.send_slots_per_node
        self._slots_per_peer = slots
        #: Free send slots toward each destination node (by node id).
        self._free_slots: Dict[int, List[int]] = {
            dst: list(range(slots))
            for dst in range(cluster.num_nodes)
            if dst != node_id
        }
        #: Attempts waiting for a send-slot credit, per destination.
        self._queued: Dict[int, Deque[_Attempt]] = {}
        #: Numbered attempts not yet concluded, by msg_id (in id order).
        self._attempts: Dict[int, _Attempt] = {}
        self.generated = 0
        self.stalled = 0
        self._next_msg_id = 0
        self._peer_ids: List[int] = [
            n for n in range(cluster.num_nodes) if n != node_id
        ]
        self._arrival_rng = rngs.stream("arrivals")
        self._peer_rng = rngs.stream("peers")
        self._service_rng = rngs.stream("service")

    # -- client side --------------------------------------------------------

    def start_traffic(self, per_node_rps: float, num_requests: int) -> None:
        """Start this node's open-loop arrival chain.

        The node's whole gap batch is pre-drawn from its own "arrivals"
        stream; without a cluster-wide process that is a stationary
        Poisson at ``per_node_rps``. The batch is read through a
        memoryview, which yields plain floats without boxing a numpy
        scalar per request.
        """
        process = self.cluster.arrival_process
        if process is None:
            process = StationaryPoisson(per_node_rps)
        self._num_requests = num_requests
        self._gaps = memoryview(np.ascontiguousarray(
            process.sample_gaps(self._arrival_rng, num_requests), dtype=np.float64
        ))
        self._schedule_arrival(0)

    def _schedule_arrival(self, index: int) -> None:
        """Schedule arrival ``index`` one gap from now."""
        if index < self._num_requests:
            self.cluster.env.schedule_call(self._gaps[index], self._arrive, index)

    def _arrive(self, index: int) -> None:
        """One arrival: a logical RPC and its first attempt."""
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
        self._launch(rpc, "first")
        retry = cluster.retry
        if retry is not None:
            cluster.injector.stats.offered += 1
            if retry.hedge_ns is not None:
                env.schedule_call(retry.hedge_ns, self._maybe_hedge, rpc)
        self._schedule_arrival(index + 1)

    def _launch(self, rpc: _Rpc, kind: str) -> None:
        """Issue one physical attempt of ``rpc`` (first, retry, or hedge)."""
        cluster = self.cluster
        router = cluster.router
        trace = rpc.trace
        if router is not None:
            if trace is not None:
                router.trace_capture = trace
            dst = router.choose(self.node_id, self._peer_rng)
        else:
            peers = self._peer_ids
            dst = peers[int(self._peer_rng.integers(0, len(peers)))]
        # A node at speed s processes the same RPC in 1/s the time.
        speeds = cluster.speed_factors
        speed = speeds[dst] if speeds is not None else 1.0
        injector = cluster.injector
        if injector is not None:
            # Static heterogeneity composes with any active slowdown
            # fault; both apply at launch (the speed the RPC starts with).
            speed *= injector.speed_multiplier(dst)
        span = trace.new_attempt(kind, dst, cluster.env.now) if trace is not None else None
        attempt = _Attempt(rpc, self, dst, rpc.service_ns / speed, span, router is not None)
        rpc.live += 1
        retry = cluster.retry
        if retry is not None:
            self._number(attempt)
        free = self._free_slots[dst]
        if free:
            self._send(attempt, free.pop())
        else:
            self.stalled += 1
            self._queued.setdefault(dst, deque()).append(attempt)
        if retry is not None:
            cluster.env.schedule_call(retry.timeout_ns, self._attempt_timeout, attempt.msg_id)

    def _number(self, attempt: _Attempt) -> None:
        """Give ``attempt`` the next message id and track it as live.

        The id picks the server's NI backend (``msg_id % num_backends``),
        so when ids are taken is part of the output: with a retry config
        every launch takes one (a queued attempt that times out has
        used its id up); without one, ids go out at send time, so a
        stalled RPC takes its id when a credit frees.
        """
        msg_id = attempt.msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        self._attempts[msg_id] = attempt

    def _send(self, attempt: _Attempt, slot: int) -> None:
        cluster = self.cluster
        if cluster.retry is None:
            self._number(attempt)
        dst = attempt.dst
        attempt.slot = slot
        msg = self._sends.make(
            attempt.msg_id,
            _peer_index(self.node_id, dst),
            slot,
            cluster.workload.request_size_bytes,
            attempt.service_ns,
            attempt.rpc.label,
        )
        cluster.sender_of[(dst, msg.src_node, slot)] = attempt
        delay = cluster.fabric.latency_ns(self.node_id, dst)
        span = attempt.span
        if span is not None:
            span.t_sent = cluster.env.now
        injector = cluster.injector
        if injector is None:
            cluster.env.schedule_call(delay, cluster.nodes[dst].chip.submit_message, msg)
            return
        deliver = cluster._deliver_request
        fate = injector.transmit(delay, deliver, self.node_id, dst, msg, msg.msg_id)
        if fate == "drop":
            attempt.vanished = True
            if span is not None:
                span.add_event("request_dropped", cluster.env.now)

    def _attempt_timeout(self, msg_id: int) -> None:
        attempt = self._attempts.get(msg_id)
        if attempt is None or attempt.cancelled:
            return
        cluster = self.cluster
        stats = cluster.injector.stats
        rpc = attempt.rpc
        attempt.cancelled = True
        stats.timeouts += 1
        rpc.live -= 1
        span = attempt.span
        if span is not None:
            span.status = "timeout"
            span.add_event("timeout", cluster.env.now)
        if attempt.open:
            attempt.open = False
            cluster.router.on_attempt_abandoned(attempt.dst)
        if attempt.slot is None:
            # Never sent: drop the record; the queue scan skips it.
            del self._attempts[msg_id]
        elif attempt.vanished or attempt.reply_lost:
            # The message (or its reply) provably died in the fabric;
            # the transport aborts the attempt and returns the credit.
            self._reclaim_attempt(attempt)
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
            self._launch(rpc, "retry")

    def _maybe_hedge(self, rpc: _Rpc) -> None:
        if rpc.resolved:
            return
        self.cluster.injector.stats.hedges += 1
        self._launch(rpc, "hedge")

    def _reply_received(self, msg_id: int, server: int, reported_load: Optional[float]) -> None:
        """A completion reply, carrying the send-slot credit, is back."""
        cluster = self.cluster
        injector = cluster.injector
        if reported_load is not None:
            cluster.router.deliver_report(self.node_id, server, reported_load)
        attempt = self._attempts.pop(msg_id, None)
        if attempt is None:
            # Duplicated reply, or the attempt was already reclaimed.
            injector.stats.duplicate_completions += 1
            return
        rpc = attempt.rpc
        now = cluster.env.now
        span = attempt.span
        if span is not None:
            span.t_reply = now
        if attempt.cancelled:
            injector.stats.late_completions += 1
            if span is not None:
                span.add_event("late_completion", now)
        else:
            rpc.live -= 1
        self._slot_freed(attempt.dst, attempt.slot)
        if not rpc.resolved:
            rpc.resolved = True
            cluster.resolved_total += 1
            if injector is not None:
                injector.stats.completed += 1
                cluster.e2e_recorder.record(now, now - rpc.t_start, rpc.label)
            if rpc.trace is not None:
                # The span's reply time *is* the recorded e2e endpoint,
                # so the phase decomposition sums to the recorded value.
                rpc.trace.finish(now, span)
        else:
            injector.stats.duplicate_completions += 1
            if span is not None:
                span.status = "duplicate"
                span.add_event("duplicate_completion", now)

    def _reclaim_attempt(self, attempt: _Attempt) -> None:
        """Return a dead attempt's send-slot credit."""
        if self._attempts.pop(attempt.msg_id, None) is None:
            return
        cluster = self.cluster
        dst = attempt.dst
        key = (dst, _peer_index(self.node_id, dst), attempt.slot)
        if cluster.sender_of.get(key) is attempt:
            del cluster.sender_of[key]
        cluster.injector.stats.reclaimed_slots += 1
        self._slot_freed(dst, attempt.slot)

    def _slot_freed(self, dst: int, slot: int) -> None:
        """A credit toward ``dst`` is back: the oldest live queued attempt
        takes it, else it returns to the free list."""
        queued = self._queued.get(dst)
        while queued:
            attempt = queued.popleft()
            if not attempt.cancelled:
                self._send(attempt, slot)
                return
        self._free_slots[dst].append(slot)

    # -- server side: the reply routed back to the attempt's client ----------

    def _replenish_returned(self, msg: SendMessage) -> None:
        """Called on the *receiving* chip after its local wire delay.

        Sends the reply, and the slot credit it carries, across the
        fabric to the client that owns the slot. (The chip already
        applied ``config.wire_latency_ns``; the cluster uses zero-wire
        chips and applies fabric latency here.) Under faults, a down
        node's NI sends nothing; the credit is checked against the
        attempt that owns the slot now (a reclaimed slot may have been
        reissued); and the reply, with any piggybacked load report,
        crosses the fault injector, so it can be dropped, duplicated or
        delayed like any other message.
        """
        cluster = self.cluster
        injector = cluster.injector
        key = (self.node_id, msg.src_node, msg.slot)
        attempt = cluster.sender_of.get(key)
        if injector is not None and not injector.node_up(self.node_id):
            # Down NI: no reply, no replenish. Mark the attempt done at
            # the server so recovery-time reclaim knows the receive
            # slot is free (reclaiming an attempt whose request is
            # still queued in the pipeline would let the reissued send
            # slot collide with the occupied receive slot).
            injector.stats.reply_suppressed += 1
            if attempt is not None and attempt.msg_id == msg.msg_id:
                attempt.server_done = True
                span = attempt.span
                if span is not None:
                    # Record the burned server work even though no
                    # reply leaves (duplicate-service accounting).
                    span.copy_server(msg)
                    span.add_event("reply_suppressed", cluster.env.now)
            return
        if attempt is None or attempt.msg_id != msg.msg_id:
            return  # the slot was reclaimed (and maybe reissued): an orphan
        del cluster.sender_of[key]
        cluster.completed_total += 1
        attempt.server_done = True
        span = attempt.span
        if span is not None:
            # Copy stamps before the chip recycles ``msg``; the reply
            # itself may still be dropped or delayed below.
            span.copy_server(msg)
        router = cluster.router
        reported: Optional[float] = None
        if router is not None:
            if attempt.open:
                attempt.open = False
                # The completing server's load after this reply is what
                # a piggybacked signal reports to the issuing client.
                reported = router.on_complete(self.node_id)
            else:
                # Outstanding was already corrected at abandonment.
                reported = float(router.outstanding[self.node_id])
            if not cluster._reply_reports or (injector is not None and injector.signals_dark()):
                reported = None
        client = attempt.client
        delay = cluster.fabric.latency_ns(self.node_id, client.node_id)
        reply = client._reply_received
        if injector is None:
            cluster.env.schedule_call(delay, reply, msg.msg_id, self.node_id, reported)
        elif injector.transmit(delay, reply, msg.msg_id, self.node_id, reported) == "drop":
            attempt.reply_lost = True
            if span is not None:
                span.add_event("reply_dropped", cluster.env.now)
            if attempt.cancelled:
                # The timeout already gave up on this attempt; with the
                # reply provably gone, reclaim the credit here.
                client._reclaim_attempt(attempt)

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
    #: RPC executions summed over every node: the server-side count.
    #: On the DES it includes retried duplicates and attempts whose reply
    #: a crash or fabric drop suppressed. The client-side count of
    #: logical RPCs that completed is ``fault_stats.completed``.
    completed: int
    #: RPCs completed at each node (the server-side view of routing).
    per_node_completed: List[int] = field(default_factory=list)
    #: Routing behaviour, when a rack router drove destinations.
    router_stats: Optional["RouterStats"] = None
    #: Telemetry snapshot, when the cluster ran instrumented.
    telemetry: Optional["TelemetrySnapshot"] = None
    #: Robust-run results (faults and/or retries); None when fault-free.
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
        faults: Optional["FaultPlan"] = None,
        retry: Optional["RetryConfig"] = None,
        trace: Optional["TraceConfig"] = None,
        arrival_process: Optional[ArrivalProcess] = None,
    ) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
        from ..workloads import HerdWorkload

        if arrival_process is not None:
            if not isinstance(arrival_process, ArrivalProcess):
                raise TypeError(
                    "arrival_process must be a repro.popload "
                    f"ArrivalProcess, got {type(arrival_process).__name__}"
                )
        #: Optional :mod:`repro.popload` arrival stream, applied at every
        #: node (each node consumes its own named "arrivals" RNG stream,
        #: so realizations stay independent). None is a stationary
        #: Poisson at each run's per-node rate.
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
            check_speed_factors(speed_factors, num_nodes)
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
        #: (receiver, sender_perspective_index, slot) → the attempt that
        #: holds that send slot: the reply's route back to its client.
        self.sender_of: Dict[Tuple[int, int, int], _Attempt] = {}
        #: Completions across all nodes so far (drained-traffic check).
        self.completed_total = 0
        self._expected_total = 0
        #: Rack-level scheduler; None keeps the historical uniform spray.
        self.router = router
        self.telemetry = telemetry
        #: Fault injection and/or client-side retries. Without either,
        #: the injector, timeouts, hedges and client e2e stay off.
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
        #: Whether replies piggyback load reports. Read once: the router
        #: property re-imports its signal class on every access.
        self._reply_reports = router is not None and router.wants_reply_reports
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

        In a robust run, "completed" means every logical RPC *resolved*
        — completed once or declared lost — so heartbeat / broadcast /
        detector chains terminate even when some requests die to
        injected faults. A fault-free run counts server-side completions
        (at replenish), not replies back at clients: those land one
        fabric delay later, and a broadcast loop polling this would tick
        once more and move ``env.now``.
        """
        done = self.resolved_total if self.robust else self.completed_total
        return self._expected_total > 0 and done >= self._expected_total

    def repeat_until_drained(self, period: float, fn, *args) -> None:
        """Call ``fn(*args)`` every ``period`` until the traffic drains.

        The chain behaves as the loop ``while not drained: wait(period);
        fn(*args)``: the drain check follows each tick, so one final
        tick fires after the last request resolves — and sets the run's
        end time. It starts with a zero-delay hop so the first check
        runs after the calls already due now; each tick is then one
        kernel event.
        """
        env = self.env
        traffic_drained = self.traffic_drained

        def check() -> None:
            if not traffic_drained():
                env.schedule_call(period, tick)

        def tick() -> None:
            fn(*args)
            check()

        env.schedule_call(0.0, check)

    # -- fault-injected fabric delivery and recovery reclaim ------------------

    def _deliver_request(
        self, src: int, dst: int, msg: SendMessage, msg_id: int
    ) -> None:
        """One request arrives at ``dst``'s NI through the fault injector."""
        sender = self.nodes[src]
        attempt = sender._attempts.get(msg_id)
        if not self.injector.node_up(dst):
            self.injector.stats.crash_drops += 1
            if attempt is not None:
                attempt.vanished = True
                if attempt.span is not None:
                    attempt.span.add_event("crash_drop", self.env.now)
                if attempt.cancelled:
                    # A delay spike pushed arrival past the client's
                    # timeout; reclaim the credit now that the message
                    # provably died.
                    sender._reclaim_attempt(attempt)
            return
        if attempt is not None:
            if attempt.delivered:
                return  # NI sequence-number dedup of a duplicated request
            attempt.delivered = True
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
                attempt
                for attempt in sender._attempts.values()
                if attempt.dst == node
                and attempt.cancelled
                and attempt.slot is not None
                and attempt.server_done
            ]
            for attempt in stale:
                sender._reclaim_attempt(attempt)

    def run(
        self,
        per_node_mrps: float,
        requests_per_node: int,
        warmup_fraction: float = 0.1,
    ) -> ClusterResult:
        """Drive every node at ``per_node_mrps`` and collect results."""
        check_load(per_node_mrps, requests_per_node, warmup_fraction)
        self._expected_total = self.num_nodes * requests_per_node
        #: Expected injection window; the fault plan materializes its
        #: rate-based events over this horizon.
        injection_ns = requests_per_node / (per_node_mrps * 1e6) * 1e9
        if self.injector is not None:
            self.injector.start(injection_ns)
        hub = None
        if self.telemetry:
            from ..telemetry import TelemetryHub, instrument_cluster

            # ~200 sampler ticks across the expected injection window.
            hub = TelemetryHub(sample_interval=max(injection_ns / 200.0, 1.0))
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
