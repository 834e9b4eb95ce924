"""The list-based rack policies decide exactly as the dict-based ones did.

``RackPolicy.choose`` used to take a candidate-keyed ``estimates`` dict
and a ``capacities`` dict, and ``ZipfDestinations`` drew with a scalar
``np.searchsorted``. The reference below is a copy of those bodies. For
random node counts, skews, tie-heavy integer and float load rows,
restricted candidate sets and heterogeneous capacities, the list-based
policies must pick the same destination at every decision and leave the
generator in the same state.

The restricted draws (a candidate set that excludes suspected servers)
used to rebuild their popularity table with numpy on every call; they
now memoize one table per ``(client, allowed)``. ``_RefZipf`` keeps the
per-call numpy bodies, and the memoized draws must match them across
interleaved suspicion epochs on one sampler.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rack import ZipfDestinations, make_policy

SPECS = ["random", "rr", "jsq2", "jsq3", "sed"]


class _RefZipf:
    """The numpy-array ``ZipfDestinations`` sampler, as it was."""

    def __init__(self, num_nodes, skew):
        weights = np.array([1.0 / (rank + 1.0) ** skew for rank in range(num_nodes)])
        self._peers, self._weights, self._cumulative = [], [], []
        for client in range(num_nodes):
            peers = np.array([node for node in range(num_nodes) if node != client])
            peer_weights = weights[peers]
            self._peers.append(peers)
            self._weights.append(peer_weights)
            self._cumulative.append(np.cumsum(peer_weights / peer_weights.sum()))

    def peers_of(self, client):
        return self._peers[client]

    def sample(self, client, rng, allowed=None):
        if allowed is None:
            cumulative = self._cumulative[client]
            index = int(np.searchsorted(cumulative, rng.random(), side="right"))
            return int(self._peers[client][min(index, len(cumulative) - 1)])
        peers = self._peers[client]
        keep = [i for i, node in enumerate(peers) if int(node) in allowed]
        if not keep:
            keep = list(range(len(peers)))
        weights = self._weights[client][keep]
        cumulative = np.cumsum(weights / weights.sum())
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        return int(peers[keep[min(index, len(cumulative) - 1)]])

    def sample_distinct(self, client, count, rng, allowed=None):
        peers = self._peers[client]
        if allowed is not None:
            pool = [int(node) for node in peers if int(node) in allowed]
            if not pool:
                pool = [int(node) for node in peers]
        else:
            pool = [int(node) for node in peers]
        if count >= len(pool):
            return pool
        chosen = []
        while len(chosen) < count:
            candidate = self.sample(client, rng, allowed)
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen


def _ref_restriction(client, destinations, estimates):
    if len(estimates) == len(destinations.peers_of(client)):
        return None
    return estimates.keys()


def _ref_argmin_with_random_ties(candidates, score, rng):
    best = min(score[node] for node in candidates)
    tied = [node for node in candidates if score[node] == best]
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(0, len(tied)))]


class _RefPolicy:
    """The dict-based ``choose`` bodies of the five policy specs."""

    def __init__(self, spec):
        self.spec = spec
        self._cursor = {}

    def choose(self, client, destinations, estimates, capacities, rng):
        spec = self.spec
        if spec == "random":
            return destinations.sample(
                client, rng, _ref_restriction(client, destinations, estimates)
            )
        if spec == "rr":
            peers = destinations.peers_of(client)
            cursor = self._cursor.get(client, client % len(peers))
            if len(estimates) != len(peers):
                for _ in range(len(peers)):
                    node = int(peers[cursor % len(peers)])
                    cursor += 1
                    if node in estimates:
                        self._cursor[client] = cursor
                        return node
            self._cursor[client] = cursor + 1
            return int(peers[cursor % len(peers)])
        if spec.startswith("jsq"):
            candidates = destinations.sample_distinct(
                client, int(spec[3:]), rng,
                _ref_restriction(client, destinations, estimates),
            )
            return _ref_argmin_with_random_ties(candidates, estimates, rng)
        score = {
            node: (estimate + 1.0) / capacities[node]
            for node, estimate in estimates.items()
        }
        return _ref_argmin_with_random_ties(list(score), score, rng)


@st.composite
def _scenarios(draw):
    num_nodes = draw(st.integers(2, 12))
    if draw(st.booleans()):
        loads = st.integers(0, 3)
    else:
        loads = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    rows = draw(st.lists(
        st.lists(loads, min_size=num_nodes, max_size=num_nodes), min_size=1, max_size=4,
    ))
    decisions = draw(st.lists(
        st.tuples(
            st.integers(0, num_nodes - 1),
            st.lists(st.booleans(), min_size=num_nodes, max_size=num_nodes),
        ),
        min_size=1, max_size=8,
    ))
    return dict(
        spec=draw(st.sampled_from(SPECS)),
        num_nodes=num_nodes,
        skew=draw(st.sampled_from([0.0, 0.3, 1.0, 1.2, 2.5])),
        capacities=draw(st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 8.0, 16.0]), min_size=num_nodes, max_size=num_nodes,
        )),
        rows=rows,
        decisions=decisions,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=400, deadline=None)
@given(_scenarios())
def test_list_policies_match_dict_reference(case):
    num_nodes = case["num_nodes"]
    capacities = case["capacities"]
    destinations = ZipfDestinations(num_nodes, case["skew"])
    reference_destinations = _RefZipf(num_nodes, case["skew"])
    policy = make_policy(case["spec"])
    reference = _RefPolicy(case["spec"])
    rng = np.random.default_rng(case["seed"])
    reference_rng = np.random.default_rng(case["seed"])
    for step, (client, excluded) in enumerate(case["decisions"]):
        believe = case["rows"][step % len(case["rows"])]
        peers = destinations.peers_of(client)
        # As the router builds them: None unless something, but not
        # everything, is excluded.
        candidates = [node for node in peers if not excluded[node]]
        if not candidates or len(candidates) == len(peers):
            candidates = None
        estimates = {
            node: float(believe[node])
            for node in (peers if candidates is None else candidates)
        }
        capacity_map = {node: capacities[node] for node in range(num_nodes)}
        dst = policy.choose(client, destinations, believe, candidates, capacities, rng)
        expected = reference.choose(
            client, reference_destinations, estimates, capacity_map, reference_rng
        )
        assert dst == expected
        assert type(dst) is int
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    num_nodes=st.integers(2, 12),
    skew=st.sampled_from([0.0, 0.7, 1.2, 2.5]),
    count=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_bisect_draws_match_searchsorted(num_nodes, skew, count, seed):
    destinations = ZipfDestinations(num_nodes, skew)
    reference = _RefZipf(num_nodes, skew)
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    for client in range(num_nodes):
        assert destinations.sample(client, rng) == reference.sample(client, reference_rng)
        assert destinations.sample_distinct(client, count, rng) == (
            reference.sample_distinct(client, count, reference_rng)
        )
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@st.composite
def _restricted_epochs(draw):
    num_nodes = draw(st.integers(2, 32))
    every = tuple(range(num_nodes))
    subsets = st.one_of(
        st.just(()),
        st.just(every),
        st.sets(st.integers(0, num_nodes - 1)).map(lambda nodes: tuple(sorted(nodes))),
    )
    epochs = draw(st.lists(subsets, min_size=1, max_size=5))
    draws = draw(st.lists(
        st.tuples(
            st.integers(0, len(epochs) - 1),
            st.integers(0, num_nodes - 1),
            st.integers(1, 4),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1, max_size=30,
    ))
    return dict(
        num_nodes=num_nodes,
        skew=draw(st.floats(0.0, 2.0)),
        epochs=epochs,
        draws=draws,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_restricted_epochs())
def test_memoized_restricted_draws_match_numpy(case):
    # ``allowed`` may be empty (every peer is the fallback), every node,
    # or any subset, passed as the router's tuple or as a list; epochs
    # interleave, so memo entries are revisited after other epochs ran.
    destinations = ZipfDestinations(case["num_nodes"], case["skew"])
    reference = _RefZipf(case["num_nodes"], case["skew"])
    rng = np.random.default_rng(case["seed"])
    reference_rng = np.random.default_rng(case["seed"])
    for epoch, client, count, distinct, as_list in case["draws"]:
        allowed = case["epochs"][epoch]
        if as_list:
            allowed = list(allowed)
        if distinct:
            got = destinations.sample_distinct(client, count, rng, allowed)
            expected = reference.sample_distinct(client, count, reference_rng, allowed)
        else:
            got = destinations.sample(client, rng, allowed)
            expected = reference.sample(client, reference_rng, allowed)
        assert got == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_restricted_memo_stays_bounded():
    # A crash-rate plan opens a new suspicion epoch per crash and per
    # readmission; the memo must not grow with them.
    num_nodes = 16
    destinations = ZipfDestinations(num_nodes, 1.0)
    reference = _RefZipf(num_nodes, 1.0)
    rng = np.random.default_rng(0)
    reference_rng = np.random.default_rng(0)
    limit = ZipfDestinations.MEMO_LIMIT
    for epoch in range(3 * limit):
        allowed = tuple(node for node in range(num_nodes) if (epoch >> node) & 1)
        client = epoch % num_nodes
        assert destinations.sample(client, rng, allowed) == (
            reference.sample(client, reference_rng, allowed)
        )
        assert len(destinations._restricted_memo) <= limit
    assert rng.bit_generator.state == reference_rng.bit_generator.state
