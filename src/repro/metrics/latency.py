"""Latency recording and summary statistics.

Every experiment funnels per-request latencies through a
:class:`LatencyRecorder`, which supports class labels (e.g. Masstree
``get`` vs ``scan``), warmup trimming, and exact percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = ["LatencyRecorder", "LatencySummary"]


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over a set of latencies (same unit as input)."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    p999: float
    max: float

    @property
    def is_empty(self) -> bool:
        """True when no samples backed this summary (all stats are NaN).

        A run that completes zero RPCs (e.g. every request lost to an
        injected crash) must produce this, never an exception.
        """
        return self.count == 0

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The canonical zero-sample summary: ``count=0``, NaN stats."""
        nan = float("nan")
        return cls(0, nan, nan, nan, nan, nan, nan, nan)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "LatencySummary":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return cls.empty()
        p50, p90, p95, p99, p999 = np.percentile(
            values, [50.0, 90.0, 95.0, 99.0, 99.9]
        )
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            p50=float(p50),
            p90=float(p90),
            p95=float(p95),
            p99=float(p99),
            p999=float(p999),
            max=float(values.max()),
        )

    def scaled(self, factor: float) -> "LatencySummary":
        """Return a copy with all latency fields multiplied by ``factor``.

        Used to express tails in multiples of the mean service time S̄,
        as the paper's Fig. 2 and Fig. 9 do.
        """
        return LatencySummary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p90=self.p90 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            p999=self.p999 * factor,
            max=self.max * factor,
        )


class LatencyRecorder:
    """Accumulates ``(completion_time, latency, label)`` observations."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._latencies: List[float] = []
        self._labels: List[str] = []

    def record(self, completion_time: float, latency: float, label: str = "rpc") -> None:
        """Record one completed request."""
        if latency < 0:
            raise ValueError(f"negative latency {latency!r} at t={completion_time!r}")
        self._times.append(completion_time)
        self._latencies.append(latency)
        self._labels.append(label)

    def __len__(self) -> int:
        return len(self._latencies)

    @property
    def labels(self) -> List[str]:
        """Distinct labels seen, in first-seen order."""
        seen: Dict[str, None] = {}
        for label in self._labels:
            seen.setdefault(label)
        return list(seen)

    def latencies(
        self,
        label: Optional[str] = None,
        warmup_time: float = 0.0,
        warmup_fraction: float = 0.0,
    ) -> np.ndarray:
        """Latency array, optionally filtered by label and warmup-trimmed.

        ``warmup_fraction`` removes the earliest-completing fraction of
        requests; ``warmup_time`` removes completions before an absolute
        time. Both may be combined (union of exclusions).
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0,1), got {warmup_fraction!r}")
        times = np.asarray(self._times)
        lats = np.asarray(self._latencies)
        mask = np.ones(lats.size, dtype=bool)
        if label is not None:
            mask &= np.array([lbl == label for lbl in self._labels])
        if warmup_time > 0.0:
            mask &= times >= warmup_time
        if warmup_fraction > 0.0 and lats.size:
            cutoff = np.quantile(times, warmup_fraction)
            mask &= times > cutoff
        return lats[mask]

    def summary(
        self,
        label: Optional[str] = None,
        warmup_time: float = 0.0,
        warmup_fraction: float = 0.0,
    ) -> LatencySummary:
        """Summary statistics (see :meth:`latencies` for filtering)."""
        return LatencySummary.from_values(
            self.latencies(label, warmup_time, warmup_fraction)
        )

    def throughput(
        self, label: Optional[str] = None, warmup_time: float = 0.0
    ) -> float:
        """Completed requests per unit time over the measured window.

        The window spans from ``warmup_time`` (or the first completion)
        to the last completion.
        """
        times = np.asarray(self._times)
        if label is not None:
            mask = np.array([lbl == label for lbl in self._labels])
            times = times[mask]
        times = times[times >= warmup_time]
        if times.size < 2:
            return 0.0
        start = max(warmup_time, float(times.min()))
        duration = float(times.max()) - start
        if duration <= 0:
            return 0.0
        return float(times.size) / duration

