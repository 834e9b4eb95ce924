"""Load sweeps: the throughput/tail curves behind every figure.

Every evaluation figure in the paper plots p99 latency against offered
or achieved throughput for a set of system configurations.
:class:`SweepResult` holds one configuration's curve and extracts the
paper's headline metric, *throughput under SLO*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .latency import LatencySummary

__all__ = ["SweepPoint", "SweepResult", "throughput_under_slo"]


@dataclass(frozen=True)
class SweepPoint:
    """One load point of a sweep.

    ``offered_load`` and ``achieved_throughput`` are in the same unit
    (requests per time unit, or utilization in [0,1] for the theoretical
    models). ``summary`` is over the SLO-relevant request class.
    """

    offered_load: float
    achieved_throughput: float
    summary: LatencySummary
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def p99(self) -> float:
        return self.summary.p99


@dataclass
class SweepResult:
    """A labelled throughput/tail-latency curve."""

    label: str
    points: List[SweepPoint]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def p99s(self) -> List[float]:
        return [point.p99 for point in self.points]

    @property
    def throughputs(self) -> List[float]:
        return [point.achieved_throughput for point in self.points]

    def throughput_under_slo(self, slo: float) -> float:
        """Max achieved throughput among points meeting ``p99 <= slo``.

        Returns 0.0 if no point meets the SLO (the paper's Fig. 7b
        reports exactly this for 16×1 under the 12.5µs SLO).
        """
        return throughput_under_slo(self.points, slo)


def throughput_under_slo(points: Sequence[SweepPoint], slo: float) -> float:
    """Max achieved throughput among ``points`` with p99 <= ``slo``."""
    if slo <= 0:
        raise ValueError(f"slo must be positive, got {slo!r}")
    meeting = [
        point.achieved_throughput
        for point in points
        if point.p99 <= slo and point.summary.count > 0
    ]
    return max(meeting) if meeting else 0.0

