"""DES-side datacenter router: the scheduler models on the ground truth.

:class:`DatacenterRouter` plugs the hierarchy schedulers into the
discrete-event :class:`~repro.cluster.Cluster` through the existing
:class:`~repro.rack.RackRouter` interface, so the ground-truth tier can
cross-check the fast datacenter engine point by point. The in-network
schedulers read *fresh* state by construction — a ToR/spine sees its
own counters, there is no stale-signal model to emulate — so the
router's ``outstanding`` ground truth doubles as the believed view and
the per-rack aggregates are maintained incrementally on every decision
and completion.

One deliberate semantic gap, shared with the fast tier's docs: the DES
traffic generator needs a destination at issue time, so the JBSQ(k)
bound cannot *hold* an RPC here — the router immediately binds to the
least-loaded member (the k → ∞ limit). The fast tier models the true
ToR hold queue; the DES cross-check grid therefore runs sub-critical,
where the bound rarely binds and the two semantics coincide.
"""

from __future__ import annotations

import numpy as np

from ..rack.router import RackRouter, RouterStats
from .schedulers import DEFAULT_JBSQ_K, make_scheduler
from .topology import DatacenterTopology

__all__ = ["DatacenterRouter"]


class DatacenterRouter(RackRouter):
    """Two-level (spine + ToR) routing for a DES cluster run."""

    def __init__(
        self,
        topology: DatacenterTopology,
        hierarchy: str = "racksched",
        policy: str = "jsq2",
        skew: float = 0.0,
        jbsq_k: int = DEFAULT_JBSQ_K,
    ) -> None:
        # Base init wires the bookkeeping surface the cluster expects
        # (outstanding, stats, signal); the scheduler replaces the
        # flat policy/signal pair at decision time.
        super().__init__(policy="random", signal="fresh", skew=0.0)
        self.topology = topology
        self.scheduler = make_scheduler(
            hierarchy, topology, policy=policy, skew=skew, jbsq_k=jbsq_k
        )
        self.stats = RouterStats(
            policy=self.scheduler.label, signal="fresh", skew=skew
        )
        self.rack_outstanding = [0] * topology.num_racks
        #: Each node's rack, read on every decision and completion.
        self._rack_of = [topology.rack_of(node) for node in range(topology.num_nodes)]

    def bind(self, cluster) -> None:
        if cluster.num_nodes != self.topology.num_nodes:
            raise ValueError(
                f"cluster has {cluster.num_nodes} nodes but the topology "
                f"expects {self.topology.num_nodes}"
            )
        super().bind(cluster)
        self.rack_outstanding = [0] * self.topology.num_racks
        self.scheduler.set_capacities(
            [cluster.capacity_weight(node) for node in range(self.num_nodes)]
        )

    def choose(self, client: int, rng: np.random.Generator) -> int:
        dst = self.scheduler.choose(
            client, self.outstanding, self.rack_outstanding, rng
        )
        capture = self.trace_capture
        if capture is not None:
            self.trace_capture = None
            capture.note_decision(
                policy=self.scheduler.label,
                signal="fresh",
                dst=dst,
                estimate=float(self.outstanding[dst]),
                outstanding=self.outstanding[dst],
                candidates=self.num_nodes - 1,
                suspected=0,
            )
        # Fresh in-network state: the believed and true views coincide,
        # so the staleness error is identically zero (still counted, so
        # mean_signal_error stays well-defined for load-aware sweeps).
        self.stats.signal_error_count += 1
        self.outstanding[dst] += 1
        self.rack_outstanding[self._rack_of[dst]] += 1
        self.stats.routed[dst] += 1
        self.stats.decisions += 1
        if self.decision_counters is not None:
            self.decision_counters[dst].inc()
        return dst

    def on_complete(self, server: int) -> float:
        self.rack_outstanding[self._rack_of[server]] -= 1
        return super().on_complete(server)

    def on_attempt_abandoned(self, server: int) -> None:
        self.rack_outstanding[self._rack_of[server]] -= 1
        super().on_attempt_abandoned(server)
