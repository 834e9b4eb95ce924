"""Inter-server routing policies: the rack scheduler's decision rules.

RPCValet balances *within* a server; a rack-scale deployment also needs
a client-side rule deciding *which* server each RPC goes to (RackSched,
OSDI'20). A :class:`RackPolicy` makes that decision from (a) the
client's view of per-server load — supplied by a
:class:`repro.rack.signals.LoadSignal`, which may be arbitrarily stale —
and (b) a destination *popularity* model (:class:`ZipfDestinations`)
that skews where requests want to land, modeling hot shards that break
random spray.

Policies are deliberately simple and classic:

* :class:`UniformRandomPolicy` — one popularity-weighted sample, the
  cluster package's historical behaviour when popularity is uniform;
* :class:`RoundRobinPolicy` — oblivious even spread, per-client cycle;
* :class:`PowerOfD` — JSQ(d): sample ``d`` distinct candidates by
  popularity, route to the one the load signal claims is least loaded;
* :class:`ShortestExpectedDelay` — over *all* peers, minimize
  ``(estimated load + 1) / capacity``, the heterogeneity-aware rule.

``make_policy`` parses the spec strings the experiment driver sweeps
(``"random"``, ``"rr"``, ``"jsq2"``, ``"jsq3"``, ``"sed"``).
"""

from __future__ import annotations

import abc
import math
from typing import AbstractSet, Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "RackPolicy",
    "UniformRandomPolicy",
    "RoundRobinPolicy",
    "PowerOfD",
    "ShortestExpectedDelay",
    "ZipfDestinations",
    "make_policy",
]


class ZipfDestinations:
    """Popularity-weighted destination sampler (Zipf over node rank).

    With ``skew == 0`` every peer is equally likely — the uniform spray
    the cluster package started with. With ``skew > 0`` node *rank*
    (its id) gets weight ``1 / (rank + 1)**skew``, so node 0 is the
    cluster-wide hot shard every client favours. Each client excludes
    itself and renormalizes over its peers.
    """

    def __init__(self, num_nodes: int, skew: float = 0.0) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
        if not (math.isfinite(skew) and skew >= 0):
            raise ValueError(f"skew must be finite and non-negative, got {skew!r}")
        self.num_nodes = num_nodes
        self.skew = skew
        weights = np.array(
            [1.0 / (rank + 1.0) ** skew for rank in range(num_nodes)]
        )
        #: Per-client peer lists, raw weights, and cumulative weights.
        self._peers: List[np.ndarray] = []
        self._weights: List[np.ndarray] = []
        self._cumulative: List[np.ndarray] = []
        for client in range(num_nodes):
            peers = np.array(
                [node for node in range(num_nodes) if node != client]
            )
            peer_weights = weights[peers]
            self._peers.append(peers)
            self._weights.append(peer_weights)
            self._cumulative.append(
                np.cumsum(peer_weights / peer_weights.sum())
            )

    def peers_of(self, client: int) -> Sequence[int]:
        return self._peers[client]

    def cumulative_of(self, client: int) -> np.ndarray:
        """Cumulative popularity over ``peers_of(client)``, for batched draws.

        The vectorized fast path samples thousands of destinations with
        one ``searchsorted`` against this array instead of one scalar
        :meth:`sample` call per RPC.
        """
        return self._cumulative[client]

    def sample(
        self,
        client: int,
        rng: np.random.Generator,
        allowed: Optional[AbstractSet[int]] = None,
    ) -> int:
        """Draw one destination for ``client`` by popularity.

        With ``allowed`` (a restricted candidate set, e.g. suspected
        servers excluded), popularity renormalizes over the allowed
        peers. ``allowed=None`` keeps the exact historical draw
        sequence (one uniform variate against precomputed cumulative
        weights).
        """
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

    def sample_distinct(
        self,
        client: int,
        count: int,
        rng: np.random.Generator,
        allowed: Optional[AbstractSet[int]] = None,
    ) -> List[int]:
        """Draw ``count`` distinct destinations by popularity.

        Rejection-samples (cheap for rack-sized fan-outs); falls back to
        the full candidate list when ``count`` exhausts it.
        """
        peers = self._peers[client]
        if allowed is not None:
            pool = [int(node) for node in peers if int(node) in allowed]
            if not pool:
                pool = [int(node) for node in peers]
        else:
            pool = [int(node) for node in peers]
        if count >= len(pool):
            return pool
        chosen: List[int] = []
        while len(chosen) < count:
            candidate = self.sample(client, rng, allowed)
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen


class RackPolicy(abc.ABC):
    """Picks a destination server for one RPC issued by ``client``."""

    label: str = "policy"

    #: True when the policy reads the load signal (drives whether the
    #: router records staleness errors for its decisions).
    uses_load_signal: bool = False

    @abc.abstractmethod
    def choose(
        self,
        client: int,
        destinations: ZipfDestinations,
        estimates: Dict[int, float],
        capacities: Dict[int, float],
        rng: np.random.Generator,
    ) -> int:
        """Return the destination node id for one request.

        ``estimates``' key set is the *candidate set*: normally every
        peer of ``client``, but the router may exclude
        suspected-dead servers — policies must route within it. Values
        are the client's current belief about each candidate's
        outstanding load (see :mod:`repro.rack.signals`);
        ``capacities`` maps peers to relative service capacity
        (cores x speed, 1.0 for a homogeneous rack).
        """


def _restriction(
    client: int, destinations: "ZipfDestinations", estimates: Dict[int, float]
):
    """The allowed-set for sampling, or None for the full peer set.

    Returning None on the unrestricted (common) case keeps the
    historical RNG draw sequence bit-identical.
    """
    if len(estimates) == len(destinations.peers_of(client)):
        return None
    return estimates.keys()


class UniformRandomPolicy(RackPolicy):
    """Popularity-weighted random spray (uniform when skew is 0)."""

    label = "random"

    def choose(self, client, destinations, estimates, capacities, rng):
        return destinations.sample(
            client, rng, _restriction(client, destinations, estimates)
        )


class RoundRobinPolicy(RackPolicy):
    """Per-client cycle over its peers, offset by client id.

    Ignores both popularity and load: the "perfectly even but
    oblivious" baseline between random spray and load-aware routing.
    """

    label = "rr"

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def choose(self, client, destinations, estimates, capacities, rng):
        peers = destinations.peers_of(client)
        cursor = self._cursor.get(client, client % len(peers))
        if len(estimates) != len(peers):
            # Advance past excluded (suspected) peers; at most one full
            # cycle, falling back to the raw cursor if all are excluded.
            for _ in range(len(peers)):
                node = int(peers[cursor % len(peers)])
                cursor += 1
                if node in estimates:
                    self._cursor[client] = cursor
                    return node
        self._cursor[client] = cursor + 1
        return int(peers[cursor % len(peers)])


def _argmin_with_random_ties(
    candidates: Sequence[int],
    score: Dict[int, float],
    rng: np.random.Generator,
) -> int:
    best = min(score[node] for node in candidates)
    tied = [node for node in candidates if score[node] == best]
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(0, len(tied)))]


class PowerOfD(RackPolicy):
    """JSQ(d): least estimated load among d popularity-drawn candidates."""

    uses_load_signal = True

    def __init__(self, d: int = 2) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d!r}")
        self.d = d
        self.label = f"jsq{d}"

    def choose(self, client, destinations, estimates, capacities, rng):
        candidates = destinations.sample_distinct(
            client, self.d, rng, _restriction(client, destinations, estimates)
        )
        return _argmin_with_random_ties(candidates, estimates, rng)


class ShortestExpectedDelay(RackPolicy):
    """SED over all peers: minimize (estimate + 1) / capacity.

    The rule that remains sensible on an asymmetric rack: a node with
    twice the cores (or clock) absorbs twice the queue for the same
    expected delay.
    """

    label = "sed"
    uses_load_signal = True

    def choose(self, client, destinations, estimates, capacities, rng):
        # The candidate set is the estimates key set (insertion order
        # follows peers_of, so draws match the historical behaviour
        # when no peer is excluded).
        score = {
            node: (estimate + 1.0) / capacities[node]
            for node, estimate in estimates.items()
        }
        return _argmin_with_random_ties(list(score), score, rng)


def make_policy(spec: str) -> RackPolicy:
    """Build a policy from its sweep spec string."""
    spec = spec.strip().lower()
    if spec in ("random", "uniform"):
        return UniformRandomPolicy()
    if spec in ("rr", "round-robin", "roundrobin"):
        return RoundRobinPolicy()
    if spec.startswith("jsq"):
        suffix = spec[3:] or "2"
        try:
            d = int(suffix)
        except ValueError:
            raise ValueError(f"bad JSQ(d) spec {spec!r}") from None
        return PowerOfD(d)
    if spec == "sed":
        return ShortestExpectedDelay()
    raise ValueError(
        f"unknown rack policy {spec!r}; expected random|rr|jsqD|sed"
    )
