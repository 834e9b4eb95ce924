"""Per-RPC span records: config, spans, traces, buffers, and the tracer.

One sampled logical RPC becomes an :class:`RpcTrace` — a span tree with
one :class:`AttemptSpan` per physical attempt (the first send, each
retry, the hedge). Every span carries the phase timestamps the DES
already stamps on :class:`repro.arch.SendMessage` plus the client-side
lifecycle times only the cluster knows (launch, credit grant, reply
arrival), so a completed trace decomposes its end-to-end latency into
the :data:`PHASES` exactly — the components telescope to
``t_end - t_init`` by construction.

Instrumentation discipline mirrors PR 2's telemetry: every hot-path
site is a bare ``is not None`` check against ``cluster.tracer`` (or a
span reference already in hand), sampling is a per-client modular
counter (**no RNG draws**, so traced and untraced runs consume
identical variate sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "PHASES",
    "TraceConfig",
    "AttemptSpan",
    "RpcTrace",
    "TraceBuffer",
    "Tracer",
]

#: The end-to-end decomposition, in causal order. For a completed
#: trace the phase values telescope over the winning attempt's
#: timestamps, so ``sum(phases.values()) == t_end - t_init`` exactly
#: (up to float addition order):
#:
#: * ``pre_launch``    — RPC issued → winning attempt launched (retry
#:   backoff / hedge trigger delay; 0 when the first attempt wins);
#: * ``credit_wait``   — launch → send (queueing for a send-slot credit);
#: * ``req_fabric``    — send → arrival at the server NI (fabric one-way,
#:   including any injected delay spike);
#: * ``ni_pipeline``   — NI arrival → reassembled at the backend;
#: * ``dispatch_wait`` — reassembled → dispatcher decision (shared-CQ
#:   head-of-line wait: the phase RPCValet's NI-driven balancing attacks);
#: * ``cqe_delivery``  — decision → CQE written into the core's private CQ;
#: * ``qp_wait``       — CQE posted → core starts the handler (private-CQ
#:   residency + pre-processing);
#: * ``service``       — handler execution (pre + service + post);
#: * ``reply_fabric``  — replenish posted → reply back at the client.
PHASES: Tuple[str, ...] = (
    "pre_launch",
    "credit_wait",
    "req_fabric",
    "ni_pipeline",
    "dispatch_wait",
    "cqe_delivery",
    "qp_wait",
    "service",
    "reply_fabric",
)


@dataclass(frozen=True)
class TraceConfig:
    """Sampling knobs for one traced cluster run.

    ``sample_period=N`` traces every Nth logical RPC per client node
    (1 = every RPC). The counter-based selection draws no random
    variates, so enabling tracing cannot perturb the simulation.
    ``max_traces`` bounds retained traces per run; overflow is counted
    in :attr:`TraceBuffer.dropped`, never silently ignored.
    """

    sample_period: int = 1
    max_traces: int = 200_000

    def __post_init__(self) -> None:
        if self.sample_period < 1:
            raise ValueError(
                f"sample_period must be >= 1, got {self.sample_period!r}"
            )
        if self.max_traces < 1:
            raise ValueError(
                f"max_traces must be >= 1, got {self.max_traces!r}"
            )


class AttemptSpan:
    """One physical attempt of a traced RPC (first send, retry, or hedge)."""

    __slots__ = (
        "kind",
        "dst",
        "t_launch",
        "t_sent",
        "t_arrival",
        "t_reassembled",
        "t_dispatch",
        "t_cqe",
        "t_start",
        "t_replenish",
        "t_reply",
        "backend_id",
        "core_id",
        "decision",
        "status",
        "events",
    )

    def __init__(self, kind: str, dst: int, t_launch: float) -> None:
        self.kind = kind
        self.dst = dst
        self.t_launch = t_launch
        #: Set when a send-slot credit is granted and the request leaves.
        self.t_sent: Optional[float] = None
        #: Server-side stamps, copied off the (recyclable) SendMessage.
        self.t_arrival: Optional[float] = None
        self.t_reassembled: Optional[float] = None
        self.t_dispatch: Optional[float] = None
        self.t_cqe: Optional[float] = None
        self.t_start: Optional[float] = None
        self.t_replenish: Optional[float] = None
        #: Reply, carrying the send-slot credit, back at the client.
        self.t_reply: Optional[float] = None
        self.backend_id = -1
        self.core_id = -1
        #: Router decision detail (policy, estimate, ground truth, ...).
        self.decision: Optional[dict] = None
        #: ``open`` → ``won`` | ``completed`` | ``timeout`` | ``duplicate``.
        self.status = "open"
        #: Lifecycle incidents: (name, t_ns) — timeouts, drops, dups.
        self.events: List[Tuple[str, float]] = []

    def copy_server(self, msg) -> None:
        """Copy server-side stamps off ``msg`` before it is recycled.

        Chips pool and reset completed :class:`SendMessage` records, so
        the copy must happen synchronously in the replenish callback —
        holding a reference across a scheduled reply delay would read a
        reused message.
        """
        self.t_arrival = msg.t_arrival
        self.t_reassembled = msg.t_reassembled
        self.t_dispatch = msg.t_dispatch
        self.t_cqe = msg.t_cqe
        self.t_start = msg.t_start
        self.t_replenish = msg.t_replenish
        self.backend_id = msg.backend_id
        self.core_id = msg.core_id

    def add_event(self, name: str, t_ns: float) -> None:
        self.events.append((name, t_ns))

    @property
    def served(self) -> bool:
        """The server executed this attempt to completion."""
        return self.t_replenish is not None

    def service_ns(self) -> float:
        """Handler execution time, 0.0 if the attempt never ran."""
        if self.t_replenish is None or self.t_start is None:
            return 0.0
        return self.t_replenish - self.t_start

    def __repr__(self) -> str:
        return (
            f"<AttemptSpan {self.kind}->node{self.dst} "
            f"status={self.status} at {self.t_launch:.0f}ns>"
        )


class RpcTrace:
    """The span tree of one sampled logical RPC."""

    __slots__ = (
        "client",
        "index",
        "label",
        "t_init",
        "t_end",
        "outcome",
        "attempts",
        "winner",
        "_decision",
    )

    def __init__(self, client: int, index: int, t_init: float) -> None:
        self.client = client
        #: Ordinal of this RPC among the client's generated RPCs.
        self.index = index
        self.label = "rpc"
        self.t_init = t_init
        self.t_end: Optional[float] = None
        #: ``open`` → ``completed`` | ``lost``.
        self.outcome = "open"
        self.attempts: List[AttemptSpan] = []
        #: Index into ``attempts`` of the winning (first-reply) attempt.
        self.winner: Optional[int] = None
        #: Router decision captured for the *next* attempt (one-shot).
        self._decision: Optional[dict] = None

    # -- recording (hot path; called only for sampled RPCs) ---------------

    def note_decision(self, **detail) -> None:
        """Stash the router's decision for the attempt about to launch."""
        self._decision = detail

    def new_attempt(self, kind: str, dst: int, t_launch: float) -> AttemptSpan:
        span = AttemptSpan(kind, dst, t_launch)
        if self._decision is not None:
            span.decision = self._decision
            self._decision = None
        self.attempts.append(span)
        return span

    def finish(
        self,
        t_end: float,
        winner: Optional[AttemptSpan],
        outcome: str = "completed",
    ) -> None:
        self.t_end = t_end
        self.outcome = outcome
        if winner is not None:
            self.winner = self.attempts.index(winner)
            winner.status = "won"

    # -- analysis ---------------------------------------------------------

    @property
    def e2e_ns(self) -> float:
        """Client-observed end-to-end latency of the logical RPC."""
        if self.t_end is None:
            raise RuntimeError(
                f"rpc {self.client}:{self.index} has not resolved"
            )
        return self.t_end - self.t_init

    def phases(self) -> Optional[Dict[str, float]]:
        """The :data:`PHASES` decomposition, or None when not completed.

        The values telescope over the winning attempt's timestamps, so
        their sum equals :attr:`e2e_ns` (up to float addition order).
        """
        if self.outcome != "completed" or self.winner is None:
            return None
        w = self.attempts[self.winner]
        if w.t_sent is None or w.t_replenish is None:
            return None  # pragma: no cover - a winner always ran
        return {
            "pre_launch": w.t_launch - self.t_init,
            "credit_wait": w.t_sent - w.t_launch,
            "req_fabric": w.t_arrival - w.t_sent,
            "ni_pipeline": w.t_reassembled - w.t_arrival,
            "dispatch_wait": w.t_dispatch - w.t_reassembled,
            "cqe_delivery": w.t_cqe - w.t_dispatch,
            "qp_wait": w.t_start - w.t_cqe,
            "service": w.t_replenish - w.t_start,
            "reply_fabric": self.t_end - w.t_replenish,
        }

    def duplicate_service_ns(self) -> float:
        """Server work burned by non-winning attempts (retry/hedge waste)."""
        winner = self.winner
        return sum(
            span.service_ns()
            for position, span in enumerate(self.attempts)
            if position != winner
        )

    def retries(self) -> int:
        return sum(1 for span in self.attempts if span.kind == "retry")

    def hedges(self) -> int:
        return sum(1 for span in self.attempts if span.kind == "hedge")

    def __repr__(self) -> str:
        return (
            f"<RpcTrace {self.client}:{self.index} {self.label} "
            f"{self.outcome} attempts={len(self.attempts)}>"
        )


class TraceBuffer:
    """Container of one run's traces."""

    __slots__ = ("traces", "faults", "offered", "sampled", "dropped")

    def __init__(self) -> None:
        self.traces: List[RpcTrace] = []
        #: Cluster-wide fault timeline: (t_ns, kind, node; -1 = fabric-wide).
        self.faults: List[Tuple[float, str, int]] = []
        #: Logical RPCs generated / sampled / lost to the max_traces cap.
        self.offered = 0
        self.sampled = 0
        self.dropped = 0

    def completed(self) -> Iterator[RpcTrace]:
        """Traces that resolved successfully (phase-decomposable)."""
        return (t for t in self.traces if t.outcome == "completed")

    def lost(self) -> Iterator[RpcTrace]:
        return (t for t in self.traces if t.outcome == "lost")

    def __len__(self) -> int:
        return len(self.traces)

    def __repr__(self) -> str:
        return (
            f"<TraceBuffer traces={len(self.traces)} offered={self.offered} "
            f"dropped={self.dropped}>"
        )


class Tracer:
    """Sampling decision + buffer ownership for one cluster run."""

    __slots__ = ("config", "buffer", "_counts")

    def __init__(self, config: TraceConfig) -> None:
        self.config = config
        self.buffer = TraceBuffer()
        #: Per-client generated-RPC counters (modular sampling state).
        self._counts: Dict[int, int] = {}

    def maybe_trace(self, client: int, now: float) -> Optional[RpcTrace]:
        """Sampling gate: a new trace for every Nth RPC of ``client``.

        Pure counter arithmetic — no RNG draw — so enabling tracing
        leaves every simulation stream's variate sequence untouched.
        """
        counts = self._counts
        index = counts.get(client, 0)
        counts[client] = index + 1
        buffer = self.buffer
        buffer.offered += 1
        if index % self.config.sample_period:
            return None
        if len(buffer.traces) >= self.config.max_traces:
            buffer.dropped += 1
            return None
        trace = RpcTrace(client, index, now)
        buffer.traces.append(trace)
        buffer.sampled += 1
        return trace

    def record_fault(self, kind: str, node: int, t_ns: float) -> None:
        """Append one fault-timeline event (node=-1 for fabric-wide)."""
        self.buffer.faults.append((t_ns, kind, node))
