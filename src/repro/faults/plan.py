"""Fault models and the deterministic plan that schedules them.

A :class:`FaultPlan` describes *what goes wrong* in a cluster run,
independently of the cluster that runs it. It combines:

* an **explicit timeline** — a tuple of fault events (crashes,
  slowdowns, fabric-degradation windows, load-signal blackouts) pinned
  to absolute simulated times, and
* **rate-based generation** — per-node Poisson crash/slowdown rates
  materialized into a concrete timeline at bind time from a
  :class:`numpy.random.SeedSequence` spawned off ``(seed, "faults")``,
  so the same (plan, seed) pair always yields the same timeline, at any
  worker count, and
* **steady-state fabric noise** — per-traversal drop / duplication /
  delay-spike probabilities applied to every message crossing the
  fabric for the whole run.

Every field is a plain value (no callables, no RNG state), so a plan
pickles into pool workers and fingerprints into the result cache: two
sweeps differing only in fault configuration never share a cache entry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FabricDegradation",
    "FaultEvent",
    "FaultPlan",
    "NodeCrash",
    "NodeSlowdown",
    "RetryConfig",
    "SignalBlackout",
]


def _check_count(name: str, value: int) -> None:
    """Raise unless ``value`` is an integer >= 0.

    A float or bool would pass ``<`` comparisons and act as something
    else: ``retries_used < 0.5`` allows one retry, node 2.5 fails deep
    in the injector.
    """
    if not (
        isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0
    ):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise unless ``value`` is finite and >= 0 (> 0 when ``positive``).

    NaN slips past every ``<`` check, and inf schedules events at
    t = inf (or, as a rate, without end); both are rejected outright.
    """
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "positive" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` fails at ``at_ns`` and recovers ``outage_ns`` later.

    While down the node drops every arriving request and suppresses
    every outgoing reply and load-signal/heartbeat message. Requests
    already inside its pipeline keep draining (their replies are
    suppressed until recovery) — the fail-stop point is the NI, not the
    cores. ``outage_ns=None`` means the node never comes back.
    """

    node: int
    at_ns: float
    outage_ns: Optional[float] = None

    def __post_init__(self) -> None:
        _check_count("node", self.node)
        _check_finite("at_ns", self.at_ns)
        if self.outage_ns is not None:
            # None is "never recovers"; inf would recover at t = inf.
            _check_finite("outage_ns", self.outage_ns, positive=True)


@dataclass(frozen=True)
class NodeSlowdown:
    """Node ``node`` runs at ``factor`` of full speed for a window.

    Models thermal throttling / noisy neighbours: RPCs *launched at*
    the degraded node during the window take ``1 / factor`` times as
    long (the degradation applies at request-injection time — a request
    straddling the window boundary keeps the speed it started with).
    """

    node: int
    at_ns: float
    duration_ns: float
    factor: float = 0.5

    def __post_init__(self) -> None:
        _check_count("node", self.node)
        _check_finite("at_ns", self.at_ns)
        _check_finite("duration_ns", self.duration_ns, positive=True)
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor!r}")


@dataclass(frozen=True)
class FabricDegradation:
    """A window during which the fabric misbehaves on every traversal.

    Adds to (not replaces) the plan's steady-state fabric noise while
    active. Each message crossing the fabric during the window is
    independently dropped with ``drop_prob``, duplicated with
    ``dup_prob``, or delayed by an extra ``spike_ns`` with
    ``spike_prob``.
    """

    at_ns: float
    duration_ns: float
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    spike_prob: float = 0.0
    spike_ns: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("at_ns", self.at_ns)
        _check_finite("duration_ns", self.duration_ns, positive=True)
        for name in ("drop_prob", "dup_prob", "spike_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        _check_finite("spike_ns", self.spike_ns)


@dataclass(frozen=True)
class SignalBlackout:
    """Load signals and heartbeats go dark for a window.

    Broadcast ticks, reply-piggybacked load reports, and liveness
    heartbeats are all suppressed while active — the stale-signal /
    false-suspicion regime RackSched warns about, on demand.
    """

    at_ns: float
    duration_ns: float

    def __post_init__(self) -> None:
        _check_finite("at_ns", self.at_ns)
        _check_finite("duration_ns", self.duration_ns, positive=True)


FaultEvent = Union[NodeCrash, NodeSlowdown, FabricDegradation, SignalBlackout]


def _fault_stream_key() -> int:
    """Stable entropy word separating fault draws from everything else."""
    import hashlib

    digest = hashlib.sha256(b"repro.faults.plan").digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class FaultPlan:
    """One run's fault schedule: explicit events + rates + fabric noise."""

    #: Explicit fault timeline (any mix of the event types above).
    events: Tuple[FaultEvent, ...] = ()
    #: Poisson crash arrivals per node, in crashes per *second* of
    #: simulated time (µs-scale runs want large numbers, e.g. 2e3 ~
    #: one crash per node every 500µs).
    crash_rate_hz: float = 0.0
    mean_outage_ns: float = 20_000.0
    #: Poisson slowdown-window arrivals per node, per second.
    slowdown_rate_hz: float = 0.0
    mean_slowdown_ns: float = 20_000.0
    slowdown_factor: float = 0.5
    #: Steady-state per-traversal fabric noise, whole run.
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    spike_prob: float = 0.0
    spike_ns: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for name in (
            "crash_rate_hz", "slowdown_rate_hz",
            "mean_outage_ns", "mean_slowdown_ns", "spike_ns",
        ):
            _check_finite(name, getattr(self, name))
        if not 0.0 < self.slowdown_factor <= 1.0:
            raise ValueError(
                f"slowdown_factor must be in (0, 1], got {self.slowdown_factor!r}"
            )
        for name in ("drop_prob", "dup_prob", "spike_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")

    @property
    def has_fabric_noise(self) -> bool:
        """True when steady-state traversal faults can occur."""
        return self.drop_prob > 0 or self.dup_prob > 0 or self.spike_prob > 0

    def fabric_probs(self, windows=()) -> Tuple[float, float, float, float]:
        """``(drop, dup, spike, spike_ns)``: live degradation ``windows`` on the noise."""
        drop, dup, spike, spike_ns = (
            self.drop_prob, self.dup_prob, self.spike_prob, self.spike_ns
        )
        for window in windows:
            drop = min(drop + window.drop_prob, 1.0)
            dup = min(dup + window.dup_prob, 1.0)
            spike = min(spike + window.spike_prob, 1.0)
            spike_ns = max(spike_ns, window.spike_ns)
        return drop, dup, spike, spike_ns

    @property
    def is_trivial(self) -> bool:
        """True when the plan can never produce a fault."""
        return (
            not self.events
            and self.crash_rate_hz == 0
            and self.slowdown_rate_hz == 0
            and not self.has_fabric_noise
        )

    def materialize(
        self, num_nodes: int, horizon_ns: float, seed: int
    ) -> List[FaultEvent]:
        """The concrete, time-sorted event list for one cluster run.

        Explicit events pass through (those at or beyond ``horizon_ns``
        are kept — a late recovery must still fire); rate-based crashes
        and slowdowns are drawn per node over ``[0, horizon_ns)`` from a
        :class:`numpy.random.SeedSequence` keyed on ``(seed, plan
        stream)``, so the timeline is a pure function of (plan,
        num_nodes, horizon, seed) — never of worker count or scheduling
        order.
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes!r}")
        if horizon_ns < 0:
            raise ValueError(f"horizon_ns must be >= 0, got {horizon_ns!r}")
        events: List[FaultEvent] = list(self.events)
        if (self.crash_rate_hz > 0 or self.slowdown_rate_hz > 0) and horizon_ns > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(int(seed), _fault_stream_key()))
            )
            for node in range(num_nodes):
                events.extend(self._draw_node_events(node, horizon_ns, rng))
        events.sort(key=lambda event: (event.at_ns, type(event).__name__))
        return events

    def _draw_node_events(
        self, node: int, horizon_ns: float, rng: np.random.Generator
    ) -> List[FaultEvent]:
        drawn: List[FaultEvent] = []
        if self.crash_rate_hz > 0:
            mean_gap_ns = 1e9 / self.crash_rate_hz
            at = rng.exponential(mean_gap_ns)
            while at < horizon_ns:
                outage = max(rng.exponential(self.mean_outage_ns), 1.0)
                drawn.append(NodeCrash(node=node, at_ns=at, outage_ns=outage))
                # Next crash cannot land inside the outage.
                at += outage + rng.exponential(mean_gap_ns)
        if self.slowdown_rate_hz > 0:
            mean_gap_ns = 1e9 / self.slowdown_rate_hz
            at = rng.exponential(mean_gap_ns)
            while at < horizon_ns:
                duration = max(rng.exponential(self.mean_slowdown_ns), 1.0)
                drawn.append(
                    NodeSlowdown(
                        node=node,
                        at_ns=at,
                        duration_ns=duration,
                        factor=self.slowdown_factor,
                    )
                )
                at += duration + rng.exponential(mean_gap_ns)
        return drawn


@dataclass(frozen=True)
class RetryConfig:
    """Client-side robustness knobs: timeout, retry budget, hedging.

    * Every RPC attempt gets a ``timeout_ns`` deadline from launch; a
      timed-out attempt is abandoned (its completion, if it ever
      arrives, is reconciled as a late/duplicate completion).
    * Up to ``max_retries`` re-launches follow, spaced by exponential
      backoff ``backoff_ns * backoff_factor**k``; ``max_retries=None``
      retries forever — the retry-storm configuration, deliberately
      representable. With the budget exhausted the RPC counts as lost.
    * With ``hedge_ns`` set, a duplicate attempt launches after that
      delay (pick it near the no-fault p95) unless the original already
      completed; first completion wins, the loser is reconciled away.
    """

    timeout_ns: float = 15_000.0
    max_retries: Optional[int] = 3
    backoff_ns: float = 2_000.0
    backoff_factor: float = 2.0
    max_backoff_ns: float = 200_000.0
    hedge_ns: Optional[float] = None

    def __post_init__(self) -> None:
        _check_finite("timeout_ns", self.timeout_ns, positive=True)
        if self.max_retries is not None:
            _check_count("max_retries", self.max_retries)
        _check_finite("backoff_ns", self.backoff_ns)
        if not (math.isfinite(self.backoff_factor) and self.backoff_factor >= 1.0):
            raise ValueError(
                f"backoff_factor must be finite and >= 1, got {self.backoff_factor!r}"
            )
        # inf is a legitimate "no cap"; NaN would fail every comparison.
        if math.isnan(self.max_backoff_ns) or self.max_backoff_ns < self.backoff_ns:
            raise ValueError("max_backoff_ns must be >= backoff_ns")
        if self.hedge_ns is not None:
            _check_finite("hedge_ns", self.hedge_ns, positive=True)

    @property
    def retry_budget(self) -> float:
        """Effective retry cap (``inf`` for the unbounded storm config)."""
        return float("inf") if self.max_retries is None else float(self.max_retries)

    def backoff_for(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based), capped."""
        return min(
            self.backoff_ns * self.backoff_factor**retry_index,
            self.max_backoff_ns,
        )


@dataclass
class FaultStats:
    """Fault-layer accounting of one cluster run (client + injector)."""

    #: Logical RPCs generated / completed (deduplicated) / lost.
    offered: int = 0
    completed: int = 0
    lost: int = 0
    #: Client robustness activity.
    timeouts: int = 0
    retries: int = 0
    hedges: int = 0
    duplicate_completions: int = 0
    late_completions: int = 0
    reclaimed_slots: int = 0
    #: Fabric-level message faults.
    msg_drops: int = 0
    msg_dups: int = 0
    delay_spikes: int = 0
    #: Messages dropped because the destination node was down.
    crash_drops: int = 0
    #: Replies suppressed because the server was down at completion.
    reply_suppressed: int = 0
    #: Injector timeline activity.
    crashes: int = 0
    recoveries: int = 0
    slowdowns: int = 0
    #: Failure-detector activity (router runs only).
    suspicions: int = 0
    readmissions: int = 0
    false_suspicions: int = 0
    #: Suspicion delay after a real crash, per detection, in ns.
    detection_latency_ns: List[float] = field(default_factory=list)

    @property
    def loss_fraction(self) -> float:
        """Offered RPCs that exhausted their retry budget."""
        return self.lost / self.offered if self.offered else 0.0

    @property
    def mean_detection_ns(self) -> float:
        if not self.detection_latency_ns:
            return float("nan")
        return sum(self.detection_latency_ns) / len(self.detection_latency_ns)
