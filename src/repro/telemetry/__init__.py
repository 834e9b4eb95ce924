"""Simulation telemetry: streaming histograms, probes, and exporters.

The observability layer behind the reproduction's distribution-shape
claims. Everything is:

* **low-overhead** — instrumented hot paths pay one ``is not None``
  check when telemetry is off, and the DES engine's run loop is
  untouched unless a sampler is attached;
* **mergeable** — per-worker histograms/counters combine into one view
  that is bit-identical at any worker count (the same contract as the
  parallel sweep engine itself);
* **exportable** — JSONL/CSV time series here, Perfetto counter tracks
  via :mod:`repro.metrics.chrometrace`.

Quickstart::

    from repro import RpcValetSystem, SingleQueue, SyntheticWorkload

    system = RpcValetSystem(
        SingleQueue(), SyntheticWorkload("gev"), seed=1, telemetry=True
    )
    result = system.run_point(offered_mrps=8.0, num_requests=20_000)
    snap = result.telemetry
    print(snap.histograms["arch.shared_cq_depth"].quantile(0.99))
"""

from .hub import PeriodicSampler, TelemetryHub, TelemetrySnapshot, merge_snapshots
from .export import (
    export_unified_trace,
    series_csv,
    snapshot_jsonl_lines,
    write_series_csv,
    write_snapshot_jsonl,
)
from .primitives import (
    Counter,
    DEFAULT_BUCKETS_PER_OCTAVE,
    Histogram,
    TimeSeries,
    merge_histograms,
)
from .probes import instrument_chip, instrument_cluster, instrument_traffic

__all__ = [
    "Counter",
    "Histogram",
    "TimeSeries",
    "DEFAULT_BUCKETS_PER_OCTAVE",
    "merge_histograms",
    "TelemetryHub",
    "PeriodicSampler",
    "TelemetrySnapshot",
    "merge_snapshots",
    "instrument_chip",
    "instrument_cluster",
    "instrument_traffic",
    "snapshot_jsonl_lines",
    "write_snapshot_jsonl",
    "series_csv",
    "write_series_csv",
    "export_unified_trace",
]
