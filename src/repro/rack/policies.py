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
import numbers
from bisect import bisect_right
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RackPolicy",
    "UniformRandomPolicy",
    "RoundRobinPolicy",
    "PowerOfD",
    "ShortestExpectedDelay",
    "ZipfDestinations",
    "check_skew",
    "make_policy",
]


def check_skew(skew: float) -> float:
    """Return ``skew`` if it is a finite, non-negative Zipf exponent, else raise."""
    if not (math.isfinite(skew) and skew >= 0):
        raise ValueError(f"skew must be finite and non-negative, got {skew!r}")
    return skew


class ZipfDestinations:
    """Popularity-weighted destination sampler (Zipf over node rank).

    With ``skew == 0`` every peer is equally likely — the uniform spray
    the cluster package started with. With ``skew > 0`` node *rank*
    (its id) gets weight ``1 / (rank + 1)**skew``, so node 0 is the
    cluster-wide hot shard every client favours. Each client excludes
    itself and renormalizes over its peers.
    """

    #: Restricted draw tables kept before the memo is cleared.
    MEMO_LIMIT = 1024

    def __init__(self, num_nodes: int, skew: float = 0.0) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes!r}")
        check_skew(skew)
        self.num_nodes = num_nodes
        self.skew = skew
        weights = np.array(
            [1.0 / (rank + 1.0) ** skew for rank in range(num_nodes)]
        )
        #: Per-client peer lists, raw weights, and cumulative weights;
        #: the scalar draws read the plain-list copies.
        self._peers: List[List[int]] = []
        self._weights: List[np.ndarray] = []
        self._cumulative: List[np.ndarray] = []
        self._cumulative_list: List[List[float]] = []
        for client in range(num_nodes):
            peers = [node for node in range(num_nodes) if node != client]
            peer_weights = weights[peers]
            cumulative = np.cumsum(peer_weights / peer_weights.sum())
            self._peers.append(peers)
            self._weights.append(peer_weights)
            self._cumulative.append(cumulative)
            self._cumulative_list.append(cumulative.tolist())
        #: ``(client, allowed) -> (nodes, cumulative)``; see :meth:`_restricted`.
        self._restricted_memo: Dict[tuple, Tuple[List[int], List[float]]] = {}

    def peers_of(self, client: int) -> List[int]:
        """``client``'s peers in id order (shared: do not mutate)."""
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
        allowed: Optional[Collection[int]] = None,
    ) -> int:
        """Draw one destination for ``client`` by popularity.

        With ``allowed`` (a restricted candidate set, e.g. suspected
        servers excluded), popularity renormalizes over the allowed
        peers. ``allowed=None`` keeps the exact historical draw
        sequence (one uniform variate against precomputed cumulative
        weights; ``bisect_right`` finds the index ``searchsorted(...,
        side="right")`` would).
        """
        peers = self._peers[client]
        if allowed is None:
            index = bisect_right(self._cumulative_list[client], rng.random())
            return peers[min(index, len(peers) - 1)]
        nodes, cumulative = self._restricted(client, allowed)
        index = bisect_right(cumulative, rng.random())
        return nodes[min(index, len(nodes) - 1)]

    def sample_distinct(
        self,
        client: int,
        count: int,
        rng: np.random.Generator,
        allowed: Optional[Collection[int]] = None,
    ) -> List[int]:
        """Draw ``count`` distinct destinations by popularity.

        Rejection-samples (cheap for rack-sized fan-outs); falls back to
        the full candidate list when ``count`` exhausts it. This loop is
        every JSQ(d) decision on both tiers.
        """
        if allowed is None:
            nodes = self._peers[client]
            cumulative = self._cumulative_list[client]
        else:
            nodes, cumulative = self._restricted(client, allowed)
        if count >= len(nodes):
            return list(nodes)
        chosen: List[int] = []
        last = len(nodes) - 1
        while len(chosen) < count:
            index = bisect_right(cumulative, rng.random())
            candidate = nodes[index if index < last else last]
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen

    def _restricted(
        self, client: int, allowed: Collection[int]
    ) -> Tuple[List[int], List[float]]:
        """``(nodes, cumulative)`` of ``client``'s draw over ``allowed``.

        ``nodes`` are the allowed peers in ``peers_of`` order (all peers
        when none is allowed) and ``cumulative`` their renormalized
        popularity, computed by the same numpy expression the per-draw
        code used, so ``bisect_right`` lands where ``searchsorted(...,
        side="right")`` did. Memoized per ``(client, allowed)``: the
        router hands over one tuple per suspicion epoch, so only the
        first draw of an epoch pays for the table.
        """
        memo = self._restricted_memo
        try:
            key = (client, allowed)
            entry = memo.get(key)
        except TypeError:  # an unhashable collection (a list, a set)
            key = (client, tuple(allowed))
            entry = memo.get(key)
        if entry is None:
            peers = self._peers[client]
            keep = [i for i, node in enumerate(peers) if node in allowed]
            if not keep:
                keep = list(range(len(peers)))
            weights = self._weights[client][keep]
            entry = (
                [peers[i] for i in keep],
                np.cumsum(weights / weights.sum()).tolist(),
            )
            if len(memo) >= self.MEMO_LIMIT:
                # Many crash/recover epochs: start over rather than grow.
                memo.clear()
            memo[key] = entry
        return entry


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
        believe: Sequence[float],
        candidates: Optional[Sequence[int]],
        capacities: Sequence[float],
        rng: np.random.Generator,
    ) -> int:
        """Return the destination node id for one request.

        ``believe[node]`` is the client's current belief about each
        node's outstanding load (see :mod:`repro.rack.signals`), and
        ``capacities[node]`` its relative service capacity (cores x
        speed, 1.0 for a homogeneous rack); both are node-indexed.
        ``candidates`` is None when every peer of ``client`` may be
        chosen — the path that keeps the historical draw sequence —
        and otherwise the allowed peers in ``peers_of`` order (the
        router excludes suspected-dead servers); policies must route
        within it.

        A ``believe`` row that is a tuple is a frozen snapshot: the
        same tuple object always holds the same loads, so a policy may
        reuse work done on it for as long as ``destinations`` and
        ``capacities`` are the same objects too (the fast tier's
        broadcast signal hands over one tuple per tick). A list row
        may change between calls and is read afresh every time.
        """

    def reset(self) -> None:
        """Forget per-run state (the router calls this when it binds)."""


def _pick_tied(tied: List[int], rng: np.random.Generator) -> int:
    """One of equally-scored nodes; a draw only when there is a tie."""
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(0, len(tied)))]


class UniformRandomPolicy(RackPolicy):
    """Popularity-weighted random spray (uniform when skew is 0)."""

    label = "random"

    def choose(self, client, destinations, believe, candidates, capacities, rng):
        return destinations.sample(client, rng, candidates)


class RoundRobinPolicy(RackPolicy):
    """Per-client cycle over its peers, offset by client id.

    Ignores both popularity and load: the "perfectly even but
    oblivious" baseline between random spray and load-aware routing.
    """

    label = "rr"

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def reset(self) -> None:
        self._cursor = {}

    def choose(self, client, destinations, believe, candidates, capacities, rng):
        peers = destinations.peers_of(client)
        cursor = self._cursor.get(client, client % len(peers))
        if candidates is not None:
            # Advance past excluded (suspected) peers; at most one full
            # cycle, falling back to the raw cursor if all are excluded.
            for _ in range(len(peers)):
                node = peers[cursor % len(peers)]
                cursor += 1
                if node in candidates:
                    self._cursor[client] = cursor
                    return node
        self._cursor[client] = cursor + 1
        return peers[cursor % len(peers)]


class PowerOfD(RackPolicy):
    """JSQ(d): least estimated load among d popularity-drawn candidates."""

    uses_load_signal = True

    def __init__(self, d: int = 2) -> None:
        if not (isinstance(d, numbers.Integral) and not isinstance(d, bool) and d >= 1):
            raise ValueError(f"d must be an integer >= 1, got {d!r}")
        self.d = d
        self.label = f"jsq{d}"

    def choose(self, client, destinations, believe, candidates, capacities, rng):
        chosen = destinations.sample_distinct(client, self.d, rng, candidates)
        best = believe[chosen[0]]
        tied = [chosen[0]]
        for node in chosen[1:]:
            load = believe[node]
            if load < best:
                best = load
                tied = [node]
            elif load == best:
                tied.append(node)
        return _pick_tied(tied, rng)


class ShortestExpectedDelay(RackPolicy):
    """SED over all peers: minimize (estimate + 1) / capacity.

    The rule that remains sensible on an asymmetric rack: a node with
    twice the cores (or clock) absorbs twice the queue for the same
    expected delay.

    On a frozen (tuple) row the scan's tie list is kept per ``(client,
    candidates)`` until the row, ``destinations`` or ``capacities``
    changes: a broadcast snapshot serves thousands of decisions, and
    only the tie draw differs between them. The memo holds the row
    itself, so its id cannot be reused by a new row.
    """

    label = "sed"
    uses_load_signal = True

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: The (row, destinations, capacities) the tie lists were scanned on.
        self._frame: tuple = (None, None, None)
        self._ties: Dict[tuple, List[int]] = {}

    def choose(self, client, destinations, believe, candidates, capacities, rng):
        if type(believe) is not tuple or type(candidates) is list:
            # A live row, or unhashable candidates: scan every call.
            tied = _sed_ties(client, destinations, believe, candidates, capacities)
            return _pick_tied(tied, rng)
        row, memo_destinations, memo_capacities = self._frame
        if believe is not row or destinations is not memo_destinations or (
            capacities is not memo_capacities
        ):
            self._frame = (believe, destinations, capacities)
            self._ties = {}
        ties = self._ties
        key = (client, candidates)
        tied = ties.get(key)
        if tied is None:
            tied = ties[key] = _sed_ties(client, destinations, believe, candidates, capacities)
        return _pick_tied(tied, rng)


def _sed_ties(client, destinations, believe, candidates, capacities) -> List[int]:
    """The peers of least ``(believe + 1) / capacity``, in ``peers_of`` order.

    The order matters: the tie draw's index depends on it.
    """
    nodes = destinations.peers_of(client) if candidates is None else candidates
    best = math.inf
    tied: List[int] = []
    for node in nodes:
        score = (float(believe[node]) + 1.0) / capacities[node]
        if score < best:
            best = score
            tied = [node]
        elif score == best:
            tied.append(node)
    return tied


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
