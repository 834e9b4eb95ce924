"""In-network scheduler models for the rack-of-racks hierarchy.

Three hierarchy models from the related work, plus the flat baseline:

* ``flat`` — no in-network help: each client samples ``d`` candidate
  *nodes* (rack drawn from the Zipf popularity, member uniform) and
  applies its policy over them — power-of-d-choices, because a flat
  client cannot scan the whole datacenter per RPC.
* ``racksched`` — RackSched-style two-layer scheduling: the spine
  picks a *rack* by aggregate load signal (the policy knob selects the
  spine discipline), then the ToR — which sees all of its servers —
  runs JSQ over the rack's members.
* ``jbsq`` — RAIN-style JBSQ(k): same two-layer routing, but the ToR
  bounds every member's queue at ``k`` outstanding RPCs and holds
  overflow in its own queue, late-binding each held RPC to the next
  member that frees a slot. The bound is engine-enforced (the fast
  tier models the hold queue; the DES approximates with immediate
  binding — see :mod:`repro.datacenter.fastdc`).
* ``nanopu`` — routing identical to ``racksched``; what changes is the
  node hardware (:data:`~repro.datacenter.topology.NODE_PROFILES`
  ``nanopu``: NI-core bypass latencies).

One scheduler object serves both engines: the DES
:class:`~repro.datacenter.router.DatacenterRouter` and the fast tier's
sequential loop call the same :meth:`DatacenterScheduler.choose` on
their live per-node / per-rack outstanding state, so routing semantics
cannot drift between tiers. ``rng`` is duck-typed on ``random()`` and
``integers(low, high)``: the DES passes its ``np.random.Generator``,
the fast tier a :class:`~repro.fastpath.loop.RoutingStream` that draws
the same values.
"""

from __future__ import annotations

import math
import numbers
import re
from bisect import bisect_right
from typing import List, Optional, Sequence

import numpy as np

from .topology import DatacenterTopology

__all__ = [
    "HIERARCHIES",
    "SPINE_POLICIES",
    "DEFAULT_JBSQ_K",
    "DatacenterScheduler",
    "FlatScheduler",
    "TwoLevelScheduler",
    "make_scheduler",
]

HIERARCHIES = ("flat", "racksched", "jbsq", "nanopu")

#: Spine (rack-selection) disciplines; ``flat`` applies them per node.
SPINE_POLICIES = ("random", "jsq2", "sed")

#: Default JBSQ bound: 16 cores of on-server concurrency plus a small
#: on-NI buffer, the shallowest bound that does not idle a healthy
#: server (RAIN sizes k the same way relative to server parallelism).
DEFAULT_JBSQ_K = 20

_JSQ_PATTERN = re.compile(r"^jsq(\d+)$")


def _parse_policy(policy: str) -> tuple:
    """``("random", 0) | ("jsq", d) | ("sed", d)`` from the spec string."""
    if policy == "random":
        return "random", 0
    if policy == "sed":
        return "sed", 2
    match = _JSQ_PATTERN.match(policy)
    if match:
        d = int(match.group(1))
        if d < 1:
            raise ValueError(f"jsq fan-out must be >= 1, got {policy!r}")
        return "jsq", d
    raise ValueError(
        f"unknown spine policy {policy!r}; known: random, jsq<d>, sed"
    )


class DatacenterScheduler:
    """Base: Zipf rack popularity + shared tie-break/selection helpers.

    ``believe`` is the per-node outstanding view and ``rack_believe``
    the per-rack aggregate (dispatched + ToR-held); both engines own
    the ground truth and keep the aggregates in sync incrementally, so
    a decision never pays an O(num_nodes) scan.
    """

    #: JBSQ bound (None for unbounded hierarchies).
    bound_k: Optional[int] = None

    def __init__(
        self, topology: DatacenterTopology, policy: str = "jsq2",
        skew: float = 0.0,
    ) -> None:
        if not (math.isfinite(skew) and skew >= 0):
            raise ValueError(f"skew must be finite and non-negative, got {skew!r}")
        self.topology = topology
        self.policy = policy
        self.mode, self.d = _parse_policy(policy)
        self.skew = skew
        weights = np.array(
            [1.0 / (rank + 1.0) ** skew for rank in range(topology.num_racks)]
        )
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        #: Plain-float cumulative rack popularity, ``bisect``-friendly.
        self.rack_cumulative: List[float] = [float(v) for v in cumulative]
        self.capacities: Optional[List[float]] = None
        self.rack_capacities: Optional[List[float]] = None

    @property
    def label(self) -> str:
        return f"{self.hierarchy}+{self.policy}"

    def set_capacities(self, capacities: Sequence[float]) -> None:
        """Install per-node service capacities (cores x speed), once."""
        topo = self.topology
        if len(capacities) != topo.num_nodes:
            raise ValueError(
                f"capacities has {len(capacities)} entries for "
                f"{topo.num_nodes} nodes"
            )
        self.capacities = [float(value) for value in capacities]
        self.rack_capacities = [
            sum(self.capacities[node] for node in topo.members(rack))
            for rack in range(topo.num_racks)
        ]

    def _sample_rack(self, rng) -> int:
        # random() < 1.0 == rack_cumulative[-1], so the index is in range.
        return bisect_right(self.rack_cumulative, rng.random())

    def _sample_distinct_racks(self, count: int, rng) -> List[int]:
        count = min(count, self.topology.num_racks)
        chosen: List[int] = []
        while len(chosen) < count:
            rack = self._sample_rack(rng)
            if rack not in chosen:
                chosen.append(rack)
        return chosen

    @staticmethod
    def _pick_min(candidates: Sequence[int], scores: List[float], rng) -> int:
        """The candidate with the lowest score, ties broken uniformly.

        ``scores[i]`` scores ``candidates[i]``. A unique minimum costs no
        draw; otherwise one ``rng.integers(0, len(tied))`` picks among
        the tied candidates in candidate order — the rack layer's rule,
        so both layers consume the routing stream alike.
        """
        best = min(scores)
        if scores.count(best) == 1:
            return candidates[scores.index(best)]
        tied = [candidate for candidate, score in zip(candidates, scores) if score == best]
        return tied[rng.integers(0, len(tied))]

    def choose(
        self,
        client: int,
        believe: List[float],
        rack_believe: List[float],
        rng,
    ) -> int:
        raise NotImplementedError


class FlatScheduler(DatacenterScheduler):
    """No in-network scheduler: d-sampled client-side balancing."""

    hierarchy = "flat"

    def _sample_node(self, client: int, rng) -> int:
        """One candidate: popularity-weighted rack, uniform member != client."""
        size = self.topology.rack_size
        first = self._sample_rack(rng) * size
        if first <= client < first + size:
            node = first + int(rng.integers(0, size - 1))
            return node if node < client else node + 1
        return first + int(rng.integers(0, size))

    def choose(self, client, believe, rack_believe, rng) -> int:
        if self.mode == "random":
            return self._sample_node(client, rng)
        candidates: List[int] = []
        want = min(self.d, self.topology.num_nodes - 1)
        while len(candidates) < want:
            node = self._sample_node(client, rng)
            if node not in candidates:
                candidates.append(node)
        if self.mode == "sed":
            capacities = self.capacities
            scores = [(believe[node] + 1.0) / capacities[node] for node in candidates]
        else:
            scores = [believe[node] for node in candidates]
        return self._pick_min(candidates, scores, rng)


class TwoLevelScheduler(DatacenterScheduler):
    """Spine picks the rack by aggregate signal; ToR runs JSQ inside."""

    def __init__(
        self,
        topology: DatacenterTopology,
        policy: str = "jsq2",
        skew: float = 0.0,
        hierarchy: str = "racksched",
        bound_k: Optional[int] = None,
    ) -> None:
        super().__init__(topology, policy, skew)
        self.hierarchy = hierarchy
        if bound_k is not None and not (
            isinstance(bound_k, numbers.Integral) and not isinstance(bound_k, bool)
            and bound_k >= 1
        ):
            raise ValueError(f"JBSQ bound must be an integer >= 1, got {bound_k!r}")
        self.bound_k = None if bound_k is None else int(bound_k)
        #: Each node's rack peers (itself excluded), the ToR candidates
        #: when a client routes into its own rack.
        self._rack_peers = [
            [node for node in topology.members(topology.rack_of(client)) if node != client]
            for client in range(topology.num_nodes)
        ]

    def choose_rack(self, client, rack_believe, rng) -> int:
        if self.mode == "random":
            return self._sample_rack(rng)
        if self.mode == "jsq":
            candidates = self._sample_distinct_racks(self.d, rng)
            return self._pick_min(candidates, [rack_believe[rack] for rack in candidates], rng)
        # SED over *all* racks: the spine sees every ToR's aggregate, so
        # unlike a flat client it can afford the full capacity-aware scan.
        scores = [
            (load + 1.0) / capacity
            for load, capacity in zip(rack_believe, self.rack_capacities)
        ]
        return self._pick_min(range(self.topology.num_racks), scores, rng)

    def choose_member(self, rack, client, believe, rng) -> int:
        """ToR-local JSQ over the rack's members (client excluded)."""
        size = self.topology.rack_size
        first = rack * size
        # Racks are contiguous id ranges, so the rack's scores are one slice.
        scores = believe[first:first + size]
        if first <= client < first + size:
            del scores[client - first]
            return self._pick_min(self._rack_peers[client], scores, rng)
        return self._pick_min(range(first, first + size), scores, rng)

    def choose(self, client, believe, rack_believe, rng) -> int:
        rack = self.choose_rack(client, rack_believe, rng)
        return self.choose_member(rack, client, believe, rng)


def make_scheduler(
    hierarchy: str,
    topology: DatacenterTopology,
    policy: str = "jsq2",
    skew: float = 0.0,
    jbsq_k: int = DEFAULT_JBSQ_K,
) -> DatacenterScheduler:
    """Build the scheduler for one hierarchy model.

    ``nanopu`` routes exactly like ``racksched`` — its difference is
    the node profile the engines apply, not the scheduling discipline.
    """
    if hierarchy == "flat":
        return FlatScheduler(topology, policy, skew)
    if hierarchy in ("racksched", "nanopu"):
        return TwoLevelScheduler(topology, policy, skew, hierarchy=hierarchy)
    if hierarchy == "jbsq":
        return TwoLevelScheduler(
            topology, policy, skew, hierarchy="jbsq", bound_k=jbsq_k
        )
    raise ValueError(
        f"unknown hierarchy {hierarchy!r}; known: {', '.join(HIERARCHIES)}"
    )
