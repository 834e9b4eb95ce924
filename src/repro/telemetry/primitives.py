"""Mergeable low-overhead telemetry primitives.

Four building blocks, all picklable (they cross process boundaries in
parallel sweeps) and all mergeable (per-worker instances combine into
one consistent view, independent of worker count):

* :class:`Counter` — a monotonically increasing count;
* :class:`Gauge` — a last-value-wins reading with min/max envelope;
* :class:`Histogram` — a log-bucketed streaming histogram: O(1) memory
  per decade of dynamic range, ~constant relative quantile error, and
  exact count/sum/min/max;
* :class:`TimeSeries` — (time, value) samples from the periodic
  snapshot sampler, renderable as Perfetto counter tracks.

Merging is associative and order-independent for counters, gauges, and
histograms, so ``merge(merge(a, b), c) == merge(a, merge(b, c))`` and a
sweep's merged telemetry is identical however its points were
distributed over workers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries", "DEFAULT_BUCKETS_PER_OCTAVE"]

#: Default histogram resolution: 8 buckets per power of two, i.e. a
#: bucket-width ratio of 2^(1/8) ≈ 1.09 (≤ ~4.5% quantile error).
DEFAULT_BUCKETS_PER_OCTAVE = 8


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "", value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        """Combine two counters (sum); returns self."""
        self.value += other.value
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return self.name == other.name and self.value == other.value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time reading with a min/max envelope.

    Merging keeps the widest envelope and the *other* gauge's last
    value (merge order is the task order, so "last" is well defined
    and worker-count independent).
    """

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value: float = float("nan")
        self.min: float = float("inf")
        self.max: float = float("-inf")
        self.updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def merge(self, other: "Gauge") -> "Gauge":
        if other.updates:
            self.value = other.value
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.updates += other.updates
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gauge):
            return NotImplemented

        def _same(a: float, b: float) -> bool:
            return a == b or (math.isnan(a) and math.isnan(b))

        return (
            self.name == other.name
            and _same(self.value, other.value)
            and self.min == other.min
            and self.max == other.max
            and self.updates == other.updates
        )

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} [{self.min}, {self.max}]>"


class Histogram:
    """A log-bucketed streaming histogram of finite, non-negative values.

    Values land in geometric buckets ``[b^i, b^(i+1))`` with
    ``b = 2^(1/buckets_per_octave)``; bucket counts live in a sparse
    dict, so memory is proportional to the *occupied* dynamic range,
    not the value range. Count, sum, min, and max are tracked exactly;
    quantiles carry the bucket ratio's relative error. Zeros get a
    dedicated bucket (queue depths are mostly zero at low load).
    """

    __slots__ = (
        "name",
        "buckets_per_octave",
        "_inv_log_base",
        "_base",
        "counts",
        "zero_count",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self,
        name: str = "",
        buckets_per_octave: int = DEFAULT_BUCKETS_PER_OCTAVE,
    ) -> None:
        if buckets_per_octave < 1:
            raise ValueError(
                f"buckets_per_octave must be >= 1, got {buckets_per_octave!r}"
            )
        self.name = name
        self.buckets_per_octave = buckets_per_octave
        self._inv_log_base = buckets_per_octave / math.log(2.0)
        self._base = 2.0 ** (1.0 / buckets_per_octave)
        self.counts: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    # -- recording ------------------------------------------------------------

    def record(self, value: float) -> None:
        """Record one observation (finite and non-negative)."""
        if not 0 <= value < math.inf:
            raise ValueError(
                f"histogram values must be finite and >= 0, got {value!r}"
            )
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0:
            self.zero_count += 1
            return
        index = self._bucket_index(value)
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1

    def _bucket_index(self, value: float) -> int:
        """Bucket of ``value``, exact at bucket edges.

        ``floor(log(value) / log(base))`` alone misplaces values landing
        exactly on a bucket edge (e.g. ``8.0`` at 64 buckets/octave,
        where float error yields 191.99999999999997 -> bucket 191): the
        value then sits in a bucket whose bounds exclude it, and
        quantiles drift a full bucket low. Snap boundary-adjacent
        results against the exact bucket bounds.
        """
        scaled = math.log(value) * self._inv_log_base
        index = math.floor(scaled)
        fraction = scaled - index
        if fraction < 1e-7 or fraction > 1.0 - 1e-7:
            base = self._base
            if value >= base ** (index + 1):
                index += 1
            elif value < base**index:
                index -= 1
        return index

    def record_many(self, values: np.ndarray) -> None:
        """Vectorized :meth:`record` for an array of observations."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        bad = np.flatnonzero(~((values >= 0) & (values < math.inf)))
        if bad.size:
            raise ValueError(
                "histogram values must be finite and >= 0, "
                f"got {float(values[bad[0]])!r}"
            )
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        positive = values[values > 0]
        self.zero_count += int(values.size - positive.size)
        if positive.size == 0:
            return
        scaled = np.log(positive) * self._inv_log_base
        indices = np.floor(scaled).astype(np.int64)
        # Same edge snapping as :meth:`_bucket_index`, applied only to
        # the boundary-adjacent entries so the bulk stays vectorized.
        fractions = scaled - indices
        near_edge = np.flatnonzero((fractions < 1e-7) | (fractions > 1.0 - 1e-7))
        for position in near_edge.tolist():
            indices[position] = self._bucket_index(float(positive[position]))
        uniques, counts = np.unique(indices, return_counts=True)
        bucket_counts = self.counts
        for index, count in zip(uniques.tolist(), counts.tolist()):
            bucket_counts[index] = bucket_counts.get(index, 0) + count

    # -- reading --------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """The ``[low, high)`` value range of bucket ``index``."""
        base = self._base
        return base**index, base ** (index + 1)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (geometric bucket midpoint).

        Exact at the distribution's min/max ends (tracked exactly);
        otherwise within one bucket ratio of the true value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        if target <= self.zero_count and self.zero_count > 0:
            return 0.0
        seen = self.zero_count
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= target:
                low, high = self.bucket_bounds(index)
                mid = math.sqrt(low * high)
                return min(max(mid, self.min), self.max)
        return self.max

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (``p`` in [0, 100])."""
        return self.quantile(p / 100.0)

    # -- merging --------------------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s buckets into this histogram; returns self."""
        if other.buckets_per_octave != self.buckets_per_octave:
            raise ValueError(
                "cannot merge histograms with different resolutions: "
                f"{self.buckets_per_octave} vs {other.buckets_per_octave}"
            )
        counts = self.counts
        for index, count in other.counts.items():
            counts[index] = counts.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "Histogram":
        clone = Histogram(self.name, self.buckets_per_octave)
        clone.counts = dict(self.counts)
        clone.zero_count = self.zero_count
        clone.count = self.count
        clone.total = self.total
        clone.min = self.min
        clone.max = self.max
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.name == other.name
            and self.buckets_per_octave == other.buckets_per_octave
            and self.counts == other.counts
            and self.zero_count == other.zero_count
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name} n={self.count} "
            f"mean={self.mean:.3g} max={self.max:.3g}>"
        )


class TimeSeries:
    """(time, value) samples appended by the periodic sampler."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def extend(self, other: "TimeSeries") -> "TimeSeries":
        """Concatenate another series (used when merging task snapshots)."""
        self.times.extend(other.times)
        self.values.extend(other.values)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.name == other.name
            and self.times == other.times
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name} n={len(self.times)}>"


def merge_histograms(histograms: Iterable[Histogram]) -> Optional[Histogram]:
    """Merge an iterable of histograms into a fresh one (None if empty)."""
    merged: Optional[Histogram] = None
    for histogram in histograms:
        if merged is None:
            merged = histogram.copy()
        else:
            merged.merge(histogram)
    return merged
