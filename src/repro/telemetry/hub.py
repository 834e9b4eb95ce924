"""TelemetryHub: the probe registry behind every instrumented run.

One hub exists per simulation run (when telemetry is enabled at all —
the disabled path never allocates one). Instrumented components hold
direct references to the hub's primitives, so the per-event cost of an
*enabled* probe is one attribute load plus one ``record`` call, and the
cost of a *disabled* probe is a single ``is not None`` check.

The hub also owns the **periodic snapshot sampler**: probes registered
with :meth:`TelemetryHub.add_probe` are polled every
``sample_interval`` simulated time units by the DES engine (see
:meth:`repro.sim.Environment.attach_sampler`), producing
:class:`~repro.telemetry.primitives.TimeSeries` that export as Perfetto
counter tracks.

At the end of a run, :meth:`TelemetryHub.snapshot` freezes everything
into a picklable :class:`TelemetrySnapshot`; snapshots from parallel
workers merge with :func:`merge_snapshots` into a view identical to a
serial run's (tested in ``tests/test_telemetry.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .primitives import (
    DEFAULT_BUCKETS_PER_OCTAVE,
    Counter,
    Histogram,
    TimeSeries,
)

__all__ = ["TelemetryHub", "PeriodicSampler", "TelemetrySnapshot", "merge_snapshots"]


class TelemetryHub:
    """Registry of named counters, histograms, and probes."""

    def __init__(self, sample_interval: Optional[float] = None) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {sample_interval!r}"
            )
        self.sample_interval = sample_interval
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, TimeSeries] = {}
        self._probes: List[Tuple[TimeSeries, Callable[[], float]]] = []
        self.sampler: Optional["PeriodicSampler"] = None  # see make_sampler

    # -- primitive registry ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, buckets_per_octave: int = DEFAULT_BUCKETS_PER_OCTAVE
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, buckets_per_octave)
        return histogram

    def add_probe(self, name: str, read: Callable[[], float]) -> TimeSeries:
        """Register a probe sampled periodically into a time series.

        ``read`` is called with no arguments at every sampler tick and
        must return the current value (e.g. ``lambda: len(queue)``).
        """
        if name in self.series:
            raise ValueError(f"probe {name!r} already registered")
        series = self.series[name] = TimeSeries(name)
        self._probes.append((series, read))
        return series

    # -- sampling ---------------------------------------------------------------

    def make_sampler(self, start: float = 0.0) -> Optional["PeriodicSampler"]:
        """Build the periodic sampler, or None if there is nothing to do."""
        if self.sample_interval is None or not self._probes:
            return None
        self.sampler = PeriodicSampler(self._probes, self.sample_interval, start=start)
        return self.sampler

    # -- snapshotting -----------------------------------------------------------

    def snapshot(self) -> "TelemetrySnapshot":
        """Freeze the hub's state into a picklable snapshot.

        The snapshot *references* the hub's primitives (no copy); it is
        taken once at the end of a run, after which the hub is discarded.
        """
        return TelemetrySnapshot(
            counters=dict(self.counters),
            histograms=dict(self.histograms),
            series=dict(self.series),
        )


class PeriodicSampler:
    """Polls probes at fixed simulated-time intervals.

    The DES engine drives it: before processing an event at time ``t``,
    it calls :meth:`advance` whenever ``t >= next_at``, which samples
    every due tick up to ``t``. Sampling therefore happens only while
    the simulation has events — the run still terminates naturally.
    """

    __slots__ = ("interval", "next_at", "tick", "_probes")

    def __init__(
        self,
        probes: List[Tuple[TimeSeries, Callable[[], float]]],
        interval: float,
        start: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = interval
        self.next_at = start + interval
        #: The tick being sampled (``env.now`` is the last call's time).
        self.tick = start
        self._probes = probes

    def advance(self, now: float) -> None:
        """Sample every due tick ``<= now`` (state as of just before it)."""
        probes = self._probes
        interval = self.interval
        tick = self.next_at
        while tick <= now:
            self.tick = tick
            for series, read in probes:
                series.append(tick, read())
            tick += interval
        self.next_at = tick


@dataclass
class TelemetrySnapshot:
    """Frozen, picklable telemetry of one run (or a merge of many)."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Fold ``other`` into this snapshot in place; returns self.

        Counters sum and histograms merge bucket-wise. Series with
        colliding names are concatenated in merge order (each task's
        series keeps its own time axis, so per-run series are best read
        from the per-point snapshots).
        """
        for name, counter in other.counters.items():
            if name in self.counters:
                self.counters[name].merge(counter)
            else:
                clone = Counter(name)
                clone.merge(counter)
                self.counters[name] = clone
        for name, histogram in other.histograms.items():
            if name in self.histograms:
                self.histograms[name].merge(histogram)
            else:
                self.histograms[name] = histogram.copy()
        for name, series in other.series.items():
            if name in self.series:
                self.series[name].extend(series)
            else:
                clone = TimeSeries(name)
                clone.extend(series)
                self.series[name] = clone
        return self


def merge_snapshots(
    snapshots: Iterable[Optional[TelemetrySnapshot]],
) -> Optional[TelemetrySnapshot]:
    """Merge task snapshots (in task order) into one fresh snapshot.

    ``None`` entries (tasks without telemetry, or dropped points) are
    skipped. Returns ``None`` when nothing merges. Because counter
    and histogram merging is order-independent *and* the caller
    iterates in task order, the result is bit-identical no matter how
    tasks were distributed over workers.
    """
    merged: Optional[TelemetrySnapshot] = None
    for snapshot in snapshots:
        if snapshot is None:
            continue
        if merged is None:
            merged = TelemetrySnapshot()
        merged.merge(snapshot)
    return merged
