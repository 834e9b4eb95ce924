"""Cross-node summaries for rack-scale runs.

How unevenly did load or latency land across the cluster's nodes
(:func:`cross_node_imbalance`), and how much slower is each node than
the best one (:func:`slowdown_factors`)? Both are plain functions over
per-node values so cluster results and the ``ext-rack`` tables share
one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "ImbalanceStats",
    "cross_node_imbalance",
    "slowdown_factors",
]


@dataclass(frozen=True)
class ImbalanceStats:
    """How unevenly a per-node quantity is spread across a cluster."""

    #: max / mean — 1.0 means the hottest node is exactly average.
    peak_to_mean: float
    #: max / min — the cluster result's historical imbalance metric.
    peak_to_min: float
    #: Coefficient of variation (population std / mean).
    cv: float


def cross_node_imbalance(values: Sequence[float]) -> ImbalanceStats:
    """Imbalance summary of one per-node quantity (load, mean latency...).

    Nodes with non-positive values (e.g. zero completions) make ratio
    metrics meaningless, so the whole summary degrades to NaN — a
    visible "this run starved a node" marker rather than an inf.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0 or np.any(array <= 0) or np.any(~np.isfinite(array)):
        nan = float("nan")
        return ImbalanceStats(nan, nan, nan)
    mean = float(array.mean())
    return ImbalanceStats(
        peak_to_mean=float(array.max()) / mean,
        peak_to_min=float(array.max()) / float(array.min()),
        cv=float(array.std()) / mean,
    )


def slowdown_factors(values: Sequence[float]) -> List[float]:
    """Each node's value relative to the best (smallest) node's.

    Applied to per-node p99s this is the rack's slowdown profile: 1.0
    for the best node, >1 for everyone dragged down by bad routing or
    weaker hardware.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return []
    best = float(array.min())
    if best <= 0 or not np.isfinite(best):
        return [float("nan")] * array.size
    return [float(value) / best for value in array]
