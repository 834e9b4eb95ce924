"""Core-selection policies for the NI Dispatch pipeline stage (§4.3).

The paper implements a "simple greedy dispatch": a core is available
when its outstanding count is below the threshold (two), and the
dispatcher assigns the shared CQ's head entry to an available core.
The exact choice among several available cores is unspecified; these
policies make it explicit and are compared in the ablation benchmarks.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "SelectionPolicy",
    "LeastOutstanding",
    "RoundRobinAvailable",
    "RandomAvailable",
    "make_policy",
]


class SelectionPolicy(abc.ABC):
    """Chooses which available core receives the next RPC."""

    name = "policy"

    @abc.abstractmethod
    def select(
        self,
        core_ids: List[int],
        outstanding: Dict[int, int],
        limit: Optional[int],
        rng: np.random.Generator,
        last_dispatch: Optional[Dict[int, float]] = None,
    ) -> Optional[int]:
        """Return an available core id, or ``None`` if none is available.

        ``limit`` is the outstanding-per-core threshold; ``None`` means
        unbounded (the 16×1 partitioned mode pushes unconditionally).
        ``last_dispatch`` maps each core to the time of its most recent
        dispatch — state the NI dispatcher trivially has, used to break
        ties toward the core expected to free up first.
        """

    @staticmethod
    def _available(
        core_ids: List[int], outstanding: Dict[int, int], limit: Optional[int]
    ) -> List[int]:
        if limit is None:
            return list(core_ids)
        return [core for core in core_ids if outstanding[core] < limit]


class LeastOutstanding(SelectionPolicy):
    """The paper's greedy policy: prefer the least-loaded available core.

    Ties among equally loaded cores break toward the core whose last
    dispatch is oldest — for busy cores that is the one expected to
    free up first, which keeps the eager threshold-2 prefetch close to
    true single-queue (FIFO-completion) order. The NI dispatcher has
    this information for free: it issued the dispatches.
    """

    name = "least_outstanding"

    def select(self, core_ids, outstanding, limit, rng, last_dispatch=None):
        # The minimum of (count, age, core) over available cores, in one
        # pass without building the list or the key tuples; a full tie
        # goes to the smallest core id wherever it sits in core_ids.
        best = None
        best_count = best_age = 0
        for core in core_ids:
            count = outstanding[core]
            if limit is not None and count >= limit:
                continue
            age = last_dispatch[core] if last_dispatch is not None else 0.0
            if (
                best is None
                or count < best_count
                or (
                    count == best_count
                    and (age < best_age or (age == best_age and core < best))
                )
            ):
                best, best_count, best_age = core, count, age
        return best


class RoundRobinAvailable(SelectionPolicy):
    """Cycle through cores, skipping unavailable ones."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, core_ids, outstanding, limit, rng, last_dispatch=None):
        count = len(core_ids)
        for offset in range(count):
            core = core_ids[(self._next + offset) % count]
            if limit is None or outstanding[core] < limit:
                self._next = (self._next + offset + 1) % count
                return core
        return None


class RandomAvailable(SelectionPolicy):
    """Uniformly random among available cores."""

    name = "random"

    def select(self, core_ids, outstanding, limit, rng, last_dispatch=None):
        available = self._available(core_ids, outstanding, limit)
        if not available:
            return None
        return int(available[rng.integers(0, len(available))])


_POLICIES = {
    "least_outstanding": LeastOutstanding,
    "round_robin": RoundRobinAvailable,
    "random": RandomAvailable,
}


def make_policy(name: str) -> SelectionPolicy:
    """Instantiate a policy by name (fresh state per dispatcher)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
