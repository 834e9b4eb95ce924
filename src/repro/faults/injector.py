"""FaultInjector: drives a FaultPlan against a running cluster.

The injector is the single authority on fault state during a run:

* **liveness** — which nodes are up, when each went down
  (:meth:`node_up`, ``crashed_at``);
* **speed** — the current slowdown multiplier per node
  (:meth:`speed_multiplier`), composed with the cluster's static
  ``speed_factors`` at request-launch time;
* **fabric health** — every request/reply traversal funnels through
  :meth:`transmit`, which applies the plan's steady-state drop /
  duplication / delay-spike probabilities plus any active
  :class:`~repro.faults.plan.FabricDegradation` window;
* **signal visibility** — :meth:`signals_dark` gates load broadcasts,
  reply piggybacks, and liveness heartbeats during a
  :class:`~repro.faults.plan.SignalBlackout`.

All fault events are ordinary DES callbacks scheduled up front from
:meth:`FaultPlan.materialize`, and all probabilistic draws come from
dedicated named streams of the cluster's :class:`~repro.sim.RngRegistry`
— so a faulted run is bit-identical for a given (plan, seed) at any
worker count, and a trivial plan draws nothing at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .plan import (
    FabricDegradation,
    FaultPlan,
    FaultStats,
    NodeCrash,
    NodeSlowdown,
    SignalBlackout,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes one :class:`FaultPlan` against one cluster run."""

    def __init__(self, plan: FaultPlan, cluster: "Cluster") -> None:
        self.plan = plan
        self.cluster = cluster
        self.stats = FaultStats()
        num_nodes = cluster.num_nodes
        self._up: List[bool] = [True] * num_nodes
        self._speed: List[float] = [1.0] * num_nodes
        #: Ground-truth crash time of each currently-down node (the
        #: failure detector measures its latency against this).
        self.crashed_at: List[Optional[float]] = [None] * num_nodes
        #: Cumulative downtime per node, finalized by :meth:`availability`.
        self._down_ns: List[float] = [0.0] * num_nodes
        self._active_degradations: List[FabricDegradation] = []
        self._blackouts = 0
        #: Listeners called with the node id on ground-truth recovery
        #: (the cluster reclaims leaked send slots here).
        self.on_recovery: List[Callable[[int], None]] = []
        #: Span tracer (``repro.tracing.Tracer``) recording the fault
        #: timeline, installed by the cluster when tracing is enabled.
        #: None = disabled; handlers pay one ``is not None`` check.
        self.tracer = None
        self._fabric_rng = (
            cluster.rngs.stream("faults.fabric")
            if plan.has_fabric_noise or any(
                isinstance(event, FabricDegradation) for event in plan.events
            )
            else None
        )
        #: ``(drop, dup, spike, spike_ns)`` in force now, or None when
        #: no fabric fault can happen; refreshed when a window opens or
        #: closes, so :meth:`transmit` reads it instead of recomputing.
        self._fabric: Optional[Tuple[float, float, float, float]] = None
        self._refresh_fabric()

    # -- scheduling ---------------------------------------------------------

    def start(self, horizon_ns: float) -> None:
        """Materialize the plan and schedule every fault as a DES event."""
        env = self.cluster.env
        events = self.plan.materialize(
            self.cluster.num_nodes, horizon_ns, self.cluster.seed
        )
        now = env.now
        for event in events:
            delay = max(event.at_ns - now, 0.0)
            if isinstance(event, NodeCrash):
                if event.node >= self.cluster.num_nodes:
                    raise ValueError(
                        f"crash targets node {event.node} of a "
                        f"{self.cluster.num_nodes}-node cluster"
                    )
                env.schedule_call(delay, self._crash, event.node)
                if event.outage_ns is not None:
                    env.schedule_call(
                        delay + event.outage_ns, self._recover, event.node
                    )
            elif isinstance(event, NodeSlowdown):
                if event.node >= self.cluster.num_nodes:
                    raise ValueError(
                        f"slowdown targets node {event.node} of a "
                        f"{self.cluster.num_nodes}-node cluster"
                    )
                env.schedule_call(delay, self._slow, event.node, event.factor)
                env.schedule_call(
                    delay + event.duration_ns, self._unslow, event.node
                )
            elif isinstance(event, FabricDegradation):
                env.schedule_call(delay, self._degrade_start, event)
                env.schedule_call(delay + event.duration_ns, self._degrade_end, event)
            elif isinstance(event, SignalBlackout):
                env.schedule_call(delay, self._blackout_start)
                env.schedule_call(delay + event.duration_ns, self._blackout_end)
            else:  # pragma: no cover - plan validation forbids this
                raise TypeError(f"unknown fault event {event!r}")

    # -- fault-event handlers ------------------------------------------------

    def _crash(self, node: int) -> None:
        if not self._up[node]:
            return  # overlapping explicit crash windows collapse
        self._up[node] = False
        self.crashed_at[node] = self.cluster.env.now
        self.stats.crashes += 1
        if self.tracer is not None:
            self.tracer.record_fault("crash", node, self.cluster.env.now)

    def _recover(self, node: int) -> None:
        if self._up[node]:
            return
        self._up[node] = True
        went_down = self.crashed_at[node]
        if went_down is not None:
            self._down_ns[node] += self.cluster.env.now - went_down
        self.crashed_at[node] = None
        self.stats.recoveries += 1
        if self.tracer is not None:
            self.tracer.record_fault("recover", node, self.cluster.env.now)
        for listener in self.on_recovery:
            listener(node)

    def _slow(self, node: int, factor: float) -> None:
        # Overlapping windows compound (two 0.5x windows -> 0.25x).
        self._speed[node] *= factor
        self.stats.slowdowns += 1
        if self.tracer is not None:
            self.tracer.record_fault("slowdown", node, self.cluster.env.now)

    def _unslow(self, node: int) -> None:
        self._speed[node] = 1.0
        if self.tracer is not None:
            self.tracer.record_fault("slowdown_end", node, self.cluster.env.now)

    def _refresh_fabric(self) -> None:
        if self._fabric_rng is None or (
            not self._active_degradations and not self.plan.has_fabric_noise
        ):
            self._fabric = None
        else:
            self._fabric = self.plan.fabric_probs(self._active_degradations)

    def _degrade_start(self, window: FabricDegradation) -> None:
        self._active_degradations.append(window)
        self._refresh_fabric()
        if self.tracer is not None:
            self.tracer.record_fault("degradation", -1, self.cluster.env.now)

    def _degrade_end(self, window: FabricDegradation) -> None:
        self._active_degradations.remove(window)
        self._refresh_fabric()
        if self.tracer is not None:
            self.tracer.record_fault(
                "degradation_end", -1, self.cluster.env.now
            )

    def _blackout_start(self) -> None:
        self._blackouts += 1
        if self.tracer is not None:
            self.tracer.record_fault("blackout", -1, self.cluster.env.now)

    def _blackout_end(self) -> None:
        self._blackouts -= 1
        if self.tracer is not None:
            self.tracer.record_fault("blackout_end", -1, self.cluster.env.now)

    # -- state queries -------------------------------------------------------

    def node_up(self, node: int) -> bool:
        return self._up[node]

    def speed_multiplier(self, node: int) -> float:
        return self._speed[node]

    def signals_dark(self) -> bool:
        """True while a load-signal blackout is active."""
        return self._blackouts > 0

    def nodes_down(self) -> int:
        return self._up.count(False)

    def availability(self, elapsed_ns: float) -> List[float]:
        """Per-node fraction of the run spent up, at ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return [1.0] * len(self._up)
        fractions = []
        for node, down_ns in enumerate(self._down_ns):
            if not self._up[node] and self.crashed_at[node] is not None:
                down_ns += elapsed_ns - self.crashed_at[node]
            fractions.append(max(0.0, 1.0 - down_ns / elapsed_ns))
        return fractions

    # -- the fabric path -----------------------------------------------------

    def transmit(self, delay: float, fn, *args) -> str:
        """Send one message across the fabric, applying fabric faults.

        Returns the fate: ``"ok"`` (delivered once), ``"dup"``
        (delivered twice — the receiver dedups or reconciles), or
        ``"drop"`` (never delivered). Draws from the fabric stream only
        when fabric faults are configured, so fault-free plans leave
        every other stream's sequence untouched.
        """
        fabric = self._fabric
        if fabric is None:
            self.cluster.env.schedule_call(delay, fn, *args)
            return "ok"
        drop, dup, spike, spike_ns = fabric
        rng = self._fabric_rng
        roll = rng.random()
        if roll < drop:
            self.stats.msg_drops += 1
            return "drop"
        if spike > 0 and rng.random() < spike:
            self.stats.delay_spikes += 1
            delay += spike_ns
        env = self.cluster.env
        env.schedule_call(delay, fn, *args)
        if dup > 0 and rng.random() < dup:
            self.stats.msg_dups += 1
            env.schedule_call(delay, fn, *args)
            return "dup"
        return "ok"
