"""The datacenter routing kernels decide exactly as the layered methods did.

``DatacenterScheduler.choose`` used to be a method chain:
``choose_rack`` -> ``_sample_distinct_racks`` -> ``_sample_rack`` ->
``_pick_min``, then ``choose_member`` -> ``_pick_min`` on the two-level
hierarchies, and ``_sample_node`` x d -> ``_pick_min`` on flat. It is now
one closure per (hierarchy, spine mode). The reference below is a copy of
those method bodies. On small topologies (a single rack, a flat fleet
smaller than d + 1), tie-heavy 0-3 load rows, clients inside and outside
the chosen rack and mixed capacities, every kernel must pick the same
destination at every decision, return a plain ``int``, and leave the
generator in the same state, on a numpy ``Generator`` (the DES) and on a
:class:`~repro.fastpath.loop.RoutingStream` (the fast tier).
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter import DatacenterTopology, make_scheduler
from repro.fastpath.loop import RoutingStream

HIERARCHIES = ["flat", "racksched", "jbsq", "nanopu"]
POLICIES = ["random", "jsq1", "jsq2", "jsq3", "sed"]


class _RefScheduler:
    """The method-chain scheduler bodies, as they were."""

    def __init__(self, topology, mode, d, skew, capacities):
        self.topology = topology
        self.mode, self.d = mode, d
        weights = np.array(
            [1.0 / (rank + 1.0) ** skew for rank in range(topology.num_racks)]
        )
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        self.rack_cumulative = [float(v) for v in cumulative]
        self.capacities = [float(value) for value in capacities]
        self.rack_capacities = [
            sum(self.capacities[node] for node in topology.members(rack))
            for rack in range(topology.num_racks)
        ]
        self._rack_peers = [
            [node for node in topology.members(topology.rack_of(client)) if node != client]
            for client in range(topology.num_nodes)
        ]

    def _sample_rack(self, rng):
        return bisect_right(self.rack_cumulative, rng.random())

    def _sample_distinct_racks(self, count, rng):
        count = min(count, self.topology.num_racks)
        chosen = []
        while len(chosen) < count:
            rack = self._sample_rack(rng)
            if rack not in chosen:
                chosen.append(rack)
        return chosen

    @staticmethod
    def _pick_min(candidates, scores, rng):
        best = min(scores)
        if scores.count(best) == 1:
            return candidates[scores.index(best)]
        tied = [candidate for candidate, score in zip(candidates, scores) if score == best]
        return tied[rng.integers(0, len(tied))]

    # -- flat ------------------------------------------------------------

    def _sample_node(self, client, rng):
        size = self.topology.rack_size
        first = self._sample_rack(rng) * size
        if first <= client < first + size:
            node = first + int(rng.integers(0, size - 1))
            return node if node < client else node + 1
        return first + int(rng.integers(0, size))

    def flat_choose(self, client, believe, rack_believe, rng):
        if self.mode == "random":
            return self._sample_node(client, rng)
        candidates = []
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

    # -- two-level -------------------------------------------------------

    def choose_rack(self, client, rack_believe, rng):
        if self.mode == "random":
            return self._sample_rack(rng)
        if self.mode == "jsq":
            candidates = self._sample_distinct_racks(self.d, rng)
            return self._pick_min(candidates, [rack_believe[rack] for rack in candidates], rng)
        scores = [
            (load + 1.0) / capacity
            for load, capacity in zip(rack_believe, self.rack_capacities)
        ]
        return self._pick_min(range(self.topology.num_racks), scores, rng)

    def choose_member(self, rack, client, believe, rng):
        size = self.topology.rack_size
        first = rack * size
        scores = believe[first:first + size]
        if first <= client < first + size:
            del scores[client - first]
            return self._pick_min(self._rack_peers[client], scores, rng)
        return self._pick_min(range(first, first + size), scores, rng)

    def two_level_choose(self, client, believe, rack_believe, rng):
        rack = self.choose_rack(client, rack_believe, rng)
        return self.choose_member(rack, client, believe, rng)


@st.composite
def _scenarios(draw):
    num_racks = draw(st.integers(1, 6))
    rack_size = draw(st.integers(2, 16))
    num_nodes = num_racks * rack_size
    loads = st.lists(st.integers(0, 3), min_size=num_nodes, max_size=num_nodes)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        believe = draw(loads)
        if draw(st.booleans()):
            # Dispatched sums, as both engines keep them.
            rack_believe = [
                sum(believe[rack * rack_size:(rack + 1) * rack_size])
                for rack in range(num_racks)
            ]
        else:
            # Tie-heavy aggregates, as ToR-held RPCs can make them.
            rack_believe = draw(
                st.lists(st.integers(0, 3), min_size=num_racks, max_size=num_racks)
            )
        rows.append((believe, rack_believe))
    return dict(
        num_racks=num_racks,
        rack_size=rack_size,
        skew=draw(st.sampled_from([0.0, 0.6, 1.2, 2.5])),
        capacities=draw(st.lists(
            st.sampled_from([8.0, 11.2, 16.0]), min_size=num_nodes, max_size=num_nodes,
        )),
        rows=rows,
        clients=draw(st.lists(st.integers(0, num_nodes - 1), min_size=1, max_size=12)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _topology(num_racks, rack_size):
    topology = DatacenterTopology(max(num_racks, 2), rack_size)
    if num_racks == 1:
        # DatacenterTopology needs two racks; the kernels' one-rack
        # clamp (JSQ(d) over a single candidate) is reached through a
        # two-rack topology cut down to its first rack.
        topology.num_racks = 1
        topology.num_nodes = rack_size
        topology.speed_factors = topology.speed_factors[:rack_size]
    return topology


def _state(rng):
    if isinstance(rng, RoutingStream):
        return rng._pos, rng._half, rng._bit_generator.state
    return rng.bit_generator.state


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("hierarchy", HIERARCHIES)
@settings(max_examples=25, deadline=None)
@given(case=_scenarios())
def test_kernels_match_method_chain(hierarchy, policy, case):
    topology = _topology(case["num_racks"], case["rack_size"])
    scheduler = make_scheduler(hierarchy, topology, policy=policy, skew=case["skew"])
    scheduler.set_capacities(case["capacities"])
    reference = _RefScheduler(
        topology, scheduler.mode, scheduler.d, case["skew"], case["capacities"]
    )
    ref_choose = reference.flat_choose if hierarchy == "flat" else reference.two_level_choose
    for wrap in (lambda generator: generator, RoutingStream):
        mine = wrap(np.random.default_rng(case["seed"]))
        theirs = wrap(np.random.default_rng(case["seed"]))
        for step, client in enumerate(case["clients"]):
            believe, rack_believe = case["rows"][step % len(case["rows"])]
            dst = scheduler.choose(client, list(believe), list(rack_believe), mine)
            expected = ref_choose(client, list(believe), list(rack_believe), theirs)
            assert dst == expected
            assert type(dst) is int
            assert dst != client
        assert _state(mine) == _state(theirs)
