"""Exporting telemetry snapshots: JSONL, CSV, and unified Perfetto traces.

Plain-text formats for external tooling (pandas, jq, spreadsheets):

* :func:`write_snapshot_jsonl` — one JSON object per line, one line per
  counter/gauge/histogram/series; self-describing via a ``kind`` field;
* :func:`series_csv` / :func:`write_series_csv` — long-format
  ``series,time,value`` rows of every sampled time series.

Plus the one-stop Perfetto exporter, :func:`export_unified_trace`: it
combines every trace-shaped artifact the repo produces — per-message
stage bars (:func:`repro.metrics.chrome_trace_events`), per-RPC span
trees (:func:`repro.tracing.span_trace_events`), and telemetry counter
tracks — into a single Trace Event Format file, so queue-depth charts,
NI/dispatcher/core bars, and client-side span trees line up on one
timeline at https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import pathlib
from typing import IO, Iterator, Optional, Sequence, Union

from .hub import TelemetrySnapshot

__all__ = [
    "snapshot_jsonl_lines",
    "write_snapshot_jsonl",
    "series_csv",
    "write_series_csv",
    "export_unified_trace",
]


def snapshot_jsonl_lines(snapshot: TelemetrySnapshot) -> Iterator[str]:
    """Yield one compact JSON line per telemetry object, sorted by name."""
    for name in sorted(snapshot.counters):
        counter = snapshot.counters[name]
        yield json.dumps(
            {"kind": "counter", "name": name, "value": counter.value},
            sort_keys=True,
        )
    for name in sorted(snapshot.gauges):
        gauge = snapshot.gauges[name]
        yield json.dumps(
            {
                "kind": "gauge",
                "name": name,
                "value": None if gauge.updates == 0 else gauge.value,
                "min": None if gauge.updates == 0 else gauge.min,
                "max": None if gauge.updates == 0 else gauge.max,
                "updates": gauge.updates,
            },
            sort_keys=True,
        )
    for name in sorted(snapshot.histograms):
        histogram = snapshot.histograms[name]
        empty = histogram.count == 0
        yield json.dumps(
            {
                "kind": "histogram",
                "name": name,
                "buckets_per_octave": histogram.buckets_per_octave,
                "count": histogram.count,
                "sum": histogram.total,
                "min": None if empty else histogram.min,
                "max": None if empty else histogram.max,
                "zero_count": histogram.zero_count,
                "p50": None if empty else histogram.quantile(0.50),
                "p99": None if empty else histogram.quantile(0.99),
                "buckets": {
                    str(index): histogram.counts[index]
                    for index in sorted(histogram.counts)
                },
            },
            sort_keys=True,
        )
    for name in sorted(snapshot.series):
        series = snapshot.series[name]
        yield json.dumps(
            {
                "kind": "series",
                "name": name,
                "times": list(series.times),
                "values": list(series.values),
            },
            sort_keys=True,
        )


def write_snapshot_jsonl(
    snapshot: TelemetrySnapshot, destination: Union[str, pathlib.Path, IO[str]]
) -> int:
    """Write a snapshot as JSON-lines; returns the number of lines."""
    lines = list(snapshot_jsonl_lines(snapshot))
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        pathlib.Path(destination).write_text(text, encoding="utf-8")
    return len(lines)


def series_csv(snapshot: TelemetrySnapshot) -> str:
    """Long-format CSV (``series,time,value``) of every time series."""
    rows = ["series,time,value"]
    for name in sorted(snapshot.series):
        series = snapshot.series[name]
        for time, value in zip(series.times, series.values):
            rows.append(f"{name},{time:g},{value:g}")
    return "\n".join(rows) + "\n"


def write_series_csv(
    snapshot: TelemetrySnapshot, destination: Union[str, pathlib.Path, IO[str]]
) -> int:
    """Write the time-series CSV; returns the number of data rows."""
    text = series_csv(snapshot)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        pathlib.Path(destination).write_text(text, encoding="utf-8")
    return text.count("\n") - 1


def export_unified_trace(
    destination: Union[str, pathlib.Path, IO[str]],
    messages: Sequence = (),
    spans=None,
    telemetry: Optional[TelemetrySnapshot] = None,
) -> int:
    """One Perfetto file: message bars + span trees + counter tracks.

    ``messages`` are completed :class:`repro.arch.SendMessage` records
    (per-RPC bars on NI/dispatcher/core tracks), ``spans`` a
    :class:`repro.tracing.TraceBuffer` (or iterable of traces), and
    ``telemetry`` a snapshot whose time series become counter tracks.
    Any subset may be given; returns the total event count.
    """
    from ..metrics.chrometrace import (
        chrome_trace_events,
        telemetry_counter_events,
        write_trace,
    )

    events = []
    if messages:
        events.extend(chrome_trace_events(messages))
    if spans is not None:
        from ..tracing.export import span_trace_events

        events.extend(span_trace_events(spans))
    if telemetry is not None:
        events.extend(telemetry_counter_events(telemetry))
    return write_trace(events, destination)
