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
sequential loop call the same routing kernel,
``DatacenterScheduler.choose``, on their live per-node / per-rack
outstanding state, so routing semantics cannot drift between tiers.
``rng`` is duck-typed on ``random()`` and ``integers(low, high)``: the
DES passes its ``np.random.Generator``, the fast tier a
:class:`~repro.fastpath.loop.RoutingStream` that draws the same values.
"""

from __future__ import annotations

import math
import numbers
import re
from bisect import bisect_right
from typing import Callable, List, Optional, Sequence

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

#: ``choose(client, believe, rack_believe, rng) -> dst``.
_Kernel = Callable[[int, Sequence[float], Sequence[float], object], int]


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


def _argmin(scores: List[float], rng) -> int:
    """Index of the lowest score, ties broken uniformly in list order.

    A unique minimum costs no draw; otherwise one
    ``rng.integers(0, ties)`` picks the tied entry to return, counting
    from the first.
    """
    best = min(scores)
    index = scores.index(best)
    ties = scores.count(best)
    if ties > 1:
        for _ in range(rng.integers(0, ties)):
            index = scores.index(best, index + 1)
    return index


class DatacenterScheduler:
    """Base: Zipf rack popularity and the per-RPC routing kernel.

    ``choose(client, believe, rack_believe, rng) -> dst`` is one
    closure per hierarchy and spine mode with its constants bound as
    locals, since it runs once per routed RPC; :meth:`set_capacities`
    rebuilds it (SED reads the capacities). ``believe`` is the per-node
    outstanding view and ``rack_believe`` the per-rack aggregate
    (dispatched + ToR-held); both engines own the ground truth and keep
    the aggregates in sync incrementally, so a decision never pays an
    O(num_nodes) scan. Every argmin follows :func:`_argmin`'s tie rule,
    the rack layer's, so both layers consume the routing stream alike.
    A numpy ``integers`` draw is only ever an index or goes through
    ``int()``, so ``choose`` returns a plain ``int`` on both engines.
    """

    #: JBSQ bound (None for unbounded hierarchies).
    bound_k: Optional[int] = None

    #: The routing kernel; see the class docstring.
    choose: _Kernel

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
        #: Plain-float cumulative rack popularity, ``bisect``-friendly;
        #: ``random() < 1.0 == rack_cumulative[-1]``, so a draw is in range.
        self.rack_cumulative: List[float] = [float(v) for v in cumulative]
        self.capacities: Optional[List[float]] = None
        self.rack_capacities: Optional[List[float]] = None
        self.choose = self._kernel()

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
        self.choose = self._kernel()

    def _kernel(self) -> _Kernel:
        """This hierarchy's ``choose`` for its spine mode, constants bound."""
        raise NotImplementedError


class FlatScheduler(DatacenterScheduler):
    """No in-network scheduler: d-sampled client-side balancing."""

    hierarchy = "flat"

    def _kernel(self):
        # A candidate is a popularity-weighted rack and a uniform member
        # other than the client: one random() and one integers() draw.
        cumulative = self.rack_cumulative
        size = self.topology.rack_size
        peers = size - 1

        def sample(client, rng):
            first = bisect_right(cumulative, rng.random()) * size
            if first <= client < first + size:
                node = first + int(rng.integers(0, peers))
                return node if node < client else node + 1
            return first + int(rng.integers(0, size))

        if self.mode == "random":
            def choose(client, believe, rack_believe, rng):
                return sample(client, rng)

            return choose

        want = min(self.d, self.topology.num_nodes - 1)
        sed = self.mode == "sed"
        capacities = self.capacities

        if want == 2:
            # ``_argmin``'s rule on two distinct candidates without
            # building lists: JSQ(2) is the common policy per RPC.
            def choose(client, believe, rack_believe, rng):
                node = sample(client, rng)
                other = sample(client, rng)
                while other == node:
                    other = sample(client, rng)
                if sed:
                    load = (believe[node] + 1.0) / capacities[node]
                    other_load = (believe[other] + 1.0) / capacities[other]
                else:
                    load, other_load = believe[node], believe[other]
                if other_load < load:
                    return other
                if other_load == load:
                    return (node, other)[rng.integers(0, 2)]
                return node

            return choose

        def choose(client, believe, rack_believe, rng):
            candidates: List[int] = []
            scores: List[float] = []
            while len(candidates) < want:
                node = sample(client, rng)
                if node not in candidates:
                    candidates.append(node)
                    scores.append(
                        (believe[node] + 1.0) / capacities[node] if sed else believe[node]
                    )
            return candidates[_argmin(scores, rng)]

        return choose


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

    def _kernel(self):
        topo = self.topology
        cumulative = self.rack_cumulative
        size = topo.rack_size

        def member(rack, client, believe, rng):
            # ToR-local JSQ over the rack's members, the client excluded.
            # Racks are contiguous id ranges, so the scores are one slice.
            first = rack * size
            scores = believe[first:first + size]
            if first <= client < first + size:
                del scores[client - first]
                node = first + _argmin(scores, rng)
                return node if node < client else node + 1
            return first + _argmin(scores, rng)

        if self.mode == "random":
            def choose(client, believe, rack_believe, rng):
                return member(bisect_right(cumulative, rng.random()), client, believe, rng)

            return choose

        if self.mode == "sed":
            # SED over *all* racks: the spine sees every ToR's aggregate,
            # so unlike a flat client it can afford the full
            # capacity-aware scan.
            rack_capacities = self.rack_capacities

            def choose(client, believe, rack_believe, rng):
                scores = [
                    (load + 1.0) / capacity
                    for load, capacity in zip(rack_believe, rack_capacities)
                ]
                return member(_argmin(scores, rng), client, believe, rng)

            return choose

        count = min(self.d, topo.num_racks)
        if count == 2:
            # ``_argmin``'s rule on two distinct racks, as flat's pair.
            def choose(client, believe, rack_believe, rng):
                random = rng.random
                rack = bisect_right(cumulative, random())
                other = bisect_right(cumulative, random())
                while other == rack:
                    other = bisect_right(cumulative, random())
                load, other_load = rack_believe[rack], rack_believe[other]
                if other_load < load:
                    rack = other
                elif other_load == load:
                    rack = (rack, other)[rng.integers(0, 2)]
                return member(rack, client, believe, rng)

            return choose

        def choose(client, believe, rack_believe, rng):
            random = rng.random
            racks: List[int] = []
            scores: List[float] = []
            while len(racks) < count:
                rack = bisect_right(cumulative, random())
                if rack not in racks:
                    racks.append(rack)
                    scores.append(rack_believe[rack])
            return member(racks[_argmin(scores, rng)], client, believe, rng)

        return choose


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
