"""RackRouter: the glue between rack policies, load signals, and the cluster.

One router serves a whole :class:`repro.cluster.Cluster`. Every node's
traffic generator asks it for a destination per RPC; the router asks
the policy, which reads the load-signal model's (possibly stale)
estimates. The router also owns the ground truth those estimates chase:
``outstanding[j]`` — RPCs routed to node *j* and not yet completed —
incremented at each routing decision, decremented when node *j* posts
the replenish.

Observability: per-destination decision counts and (for load-aware
policies) the absolute estimate error at each decision, both as plain
stats (always on, O(1) per decision) and as telemetry counters /
staleness-error histograms when the cluster runs instrumented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .policies import RackPolicy, ZipfDestinations, check_skew, make_policy
from .signals import LoadSignal, make_signal

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster

__all__ = ["RackRouter", "RouterStats"]


@dataclass
class RouterStats:
    """Routing behaviour of one cluster run."""

    policy: str
    signal: str
    skew: float
    #: RPCs routed to each node, node-id indexed.
    routed: List[int] = field(default_factory=list)
    decisions: int = 0
    #: Sum/count of |estimate - true load| at load-aware decisions.
    signal_error_sum: float = 0.0
    signal_error_count: int = 0
    #: Attempts the client abandoned (timeout) with outstanding corrected.
    abandoned: int = 0
    #: Failure-detector activity (robust runs with suspicion enabled).
    suspicions: int = 0
    readmissions: int = 0
    false_suspicions: int = 0

    @property
    def mean_signal_error(self) -> float:
        """Mean absolute staleness error, in outstanding RPCs."""
        if self.signal_error_count == 0:
            return 0.0
        return self.signal_error_sum / self.signal_error_count

    def routed_fractions(self) -> List[float]:
        total = sum(self.routed)
        if total == 0:
            return [0.0] * len(self.routed)
        return [count / total for count in self.routed]


class RackRouter:
    """Client-side inter-server scheduler for one cluster.

    Parameters
    ----------
    policy:
        A :class:`RackPolicy` instance or spec string (``"jsq2"``...).
    signal:
        A :class:`LoadSignal` instance or spec string (``"fresh"``,
        ``"piggyback"``, ``"broadcast:<ns>"``).
    skew:
        Zipf exponent of destination popularity (0 = uniform).
    suspect_after_ns:
        Enables the failure detector (robust clusters only): a server
        not heard from for this long is *suspected* and removed from
        the routing candidate set until a heartbeat readmits it.
        Servers heartbeat every ``suspect_after_ns / 4``, so a healthy
        server is never falsely suspected by timing alone.
    """

    def __init__(
        self,
        policy: "RackPolicy | str" = "random",
        signal: "LoadSignal | str" = "fresh",
        skew: float = 0.0,
        suspect_after_ns: Optional[float] = None,
    ) -> None:
        if suspect_after_ns is not None and not (
            math.isfinite(suspect_after_ns) and suspect_after_ns > 0
        ):
            raise ValueError(
                "suspect_after_ns must be positive and finite, "
                f"got {suspect_after_ns!r}"
            )
        check_skew(skew)
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.signal = make_signal(signal) if isinstance(signal, str) else signal
        self.skew = skew
        self.suspect_after_ns = suspect_after_ns
        self.cluster: Optional["Cluster"] = None
        self.num_nodes = 0
        #: Ground truth: RPCs routed to node j and not yet completed.
        self.outstanding: List[int] = []
        #: Servers the failure detector currently believes are dead.
        self.suspected: set = set()
        #: Per-client candidate tuples of the current suspicion epoch
        #: (the interval between changes to ``suspected``); see
        #: :meth:`choose`. Whatever changes ``suspected`` clears it.
        self._candidates: Dict[int, Optional[Tuple[int, ...]]] = {}
        self.last_heard: List[float] = []
        self.destinations: Optional[ZipfDestinations] = None
        self.capacities: List[float] = []
        self.stats = RouterStats(
            policy=self.policy.label, signal=self.signal.label, skew=skew
        )
        #: Telemetry hooks, installed by
        #: :func:`repro.telemetry.instrument_cluster` (None = disabled).
        self.decision_counters: Optional[List] = None
        self.staleness_hist = None
        self.detection_hist = None
        #: One-shot span-tracing hook: a traced client sets this to its
        #: :class:`repro.tracing.RpcTrace` just before :meth:`choose`;
        #: the decision detail is recorded on the trace and the hook
        #: cleared. None (the overwhelmingly common case) costs one
        #: ``is not None`` check per decision.
        self.trace_capture = None

    # -- wiring -----------------------------------------------------------

    def bind(self, cluster: "Cluster") -> None:
        """Attach to ``cluster`` (called by the cluster constructor).

        Everything per-run starts over, so a router reused on a second
        cluster routes as a fresh one would. The stats object is
        replaced, not cleared: an earlier run's result still holds it.
        """
        self.cluster = cluster
        self.num_nodes = cluster.num_nodes
        self.outstanding = [0] * self.num_nodes
        labels = self.stats
        self.stats = RouterStats(
            policy=labels.policy,
            signal=labels.signal,
            skew=labels.skew,
            routed=[0] * self.num_nodes,
        )
        self.policy.reset()
        self.suspected = set()
        self._candidates = {}
        self.last_heard = [0.0] * self.num_nodes
        self.destinations = ZipfDestinations(self.num_nodes, self.skew)
        self.capacities = [
            cluster.capacity_weight(node) for node in range(self.num_nodes)
        ]
        self.signal.bind(self)

    def start(self) -> None:
        """Traffic is about to start (starts the periodic chains)."""
        self.signal.start()
        cluster = self.cluster
        if self.suspect_after_ns is not None and cluster.injector is not None:
            period = self.suspect_after_ns / 4.0
            fabric = cluster.fabric
            for server in range(self.num_nodes):
                # Delivered to the rack-wide detector after the server's
                # worst-case one-way latency to any peer.
                delay = max(
                    fabric.latency_ns(server, peer)
                    for peer in range(self.num_nodes)
                    if peer != server
                )
                cluster.repeat_until_drained(
                    period, self._heartbeat, server, delay
                )
            cluster.repeat_until_drained(period, self._detect)

    # -- failure detection -------------------------------------------------

    def _heartbeat(self, server: int, delay: float) -> None:
        """Server-side liveness beacon: one message per period.

        Suppressed while the server is down or the signal plane is
        blacked out; the message crosses the fault-injected fabric, so
        heartbeats can be dropped or delayed like any other traffic.
        """
        injector = self.cluster.injector
        if injector.node_up(server) and not injector.signals_dark():
            injector.transmit(delay, self._heartbeat_received, server)

    def _heartbeat_received(self, server: int) -> None:
        self.last_heard[server] = self.cluster.env.now
        if server in self.suspected:
            self.suspected.discard(server)
            self._candidates.clear()
            self.stats.readmissions += 1
            self.cluster.injector.stats.readmissions += 1

    def _detect(self) -> None:
        """Rack-wide suspicion sweep, once per heartbeat period."""
        cluster = self.cluster
        injector = cluster.injector
        threshold = self.suspect_after_ns
        now = cluster.env.now
        for server in range(self.num_nodes):
            if server in self.suspected:
                continue
            if now - self.last_heard[server] <= threshold:
                continue
            self.suspected.add(server)
            self._candidates.clear()
            self.stats.suspicions += 1
            fault_stats = injector.stats
            fault_stats.suspicions += 1
            crashed_at = injector.crashed_at[server]
            if crashed_at is None:
                self.stats.false_suspicions += 1
                fault_stats.false_suspicions += 1
            else:
                latency = now - crashed_at
                fault_stats.detection_latency_ns.append(latency)
                if self.detection_hist is not None:
                    self.detection_hist.record(latency)

    # -- the decision -----------------------------------------------------

    def choose(self, client: int, rng: np.random.Generator) -> int:
        """Route one RPC issued by ``client``; returns the server id.

        The candidates are all of the client's peers minus
        currently-suspected servers, in ``peers_of`` order; the policy
        gets None for "every peer" — nothing excluded, or everything
        (routing somewhere beats routing nowhere). A client's tuple is
        built on its first decision of a suspicion epoch and reused
        until ``suspected`` changes; being hashable, it also keys
        :class:`ZipfDestinations`' memo of restricted draw tables.
        """
        destinations = self.destinations
        suspected = self.suspected
        candidates = None
        if suspected:
            cache = self._candidates
            if client in cache:
                candidates = cache[client]
            else:
                peers = destinations.peers_of(client)
                candidates = tuple(node for node in peers if node not in suspected)
                if not candidates or len(candidates) == len(peers):
                    candidates = None
                cache[client] = candidates
        believe = self.signal.view(client)
        policy = self.policy
        dst = policy.choose(
            client, destinations, believe, candidates, self.capacities, rng
        )
        outstanding = self.outstanding
        capture = self.trace_capture
        if capture is not None:
            self.trace_capture = None
            capture.note_decision(
                policy=policy.label,
                signal=self.signal.label,
                dst=dst,
                estimate=float(believe[dst]),
                outstanding=outstanding[dst],
                candidates=len(
                    destinations.peers_of(client) if candidates is None else candidates
                ),
                suspected=len(suspected),
            )
        stats = self.stats
        if policy.uses_load_signal:
            error = abs(float(believe[dst]) - outstanding[dst])
            stats.signal_error_sum += error
            stats.signal_error_count += 1
            if self.staleness_hist is not None:
                self.staleness_hist.record(error)
        outstanding[dst] += 1
        stats.routed[dst] += 1
        stats.decisions += 1
        if self.decision_counters is not None:
            self.decision_counters[dst].inc()
        return dst

    # -- completion feedback ----------------------------------------------

    def on_complete(self, server: int) -> float:
        """Node ``server`` completed one RPC; returns its load *after*.

        The returned value is what a reply leaving now would report —
        the cluster delivers it to the issuing client via
        :meth:`deliver_report` after the fabric delay when the signal
        model wants reply piggybacking.
        """
        self.outstanding[server] -= 1
        return float(self.outstanding[server])

    def on_attempt_abandoned(self, server: int) -> None:
        """A client abandoned (timed out) an attempt routed to ``server``.

        Corrects the ground-truth outstanding count exactly once per
        routed attempt — the attempt record's ``open`` flag guarantees
        either this or :meth:`on_complete` fires, never both.
        """
        self.outstanding[server] -= 1
        self.stats.abandoned += 1

    @property
    def wants_reply_reports(self) -> bool:
        from .signals import PiggybackSignal

        return isinstance(self.signal, PiggybackSignal)

    def deliver_report(self, client: int, server: int, load: float) -> None:
        """A reply-piggybacked load report reached ``client``."""
        self.signal.on_reply(client, server, load)
