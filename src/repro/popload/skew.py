"""Zipf popularity: the weights behind per-source skew.

Real RPC traffic is not uniform — a few tenants (sources) and a few
keys (destinations) carry most of the load, and that is exactly where
hash-based static placement (RSS-style spraying) concentrates queueing.
:func:`zipf_weights` is the normalized ``1/rank^α`` mass vector behind
the ``TrafficGenerator``'s ``source_skew``; the rack's
``ZipfDestinations`` renormalizes the same weights over each client's
peers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipf_weights"]


def zipf_weights(num_items: int, alpha: float) -> np.ndarray:
    """Normalized Zipf mass over ranks 1..num_items: ``p_k ∝ 1/k^α``.

    ``alpha = 0`` is the uniform distribution; larger values
    concentrate mass on low ranks. Matches the historical
    ``TrafficGenerator`` source-skew weights bit-for-bit.
    """
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items!r}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    weights = 1.0 / np.arange(1, num_items + 1, dtype=float) ** alpha
    return weights / weights.sum()
