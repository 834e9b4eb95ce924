"""Measurement: latency recording, SLO extraction, load sweeps, tables."""

from .ascii_chart import ascii_chart, sweeps_chart
from .breakdown import StageBreakdown, breakdown_from_messages
from .chrometrace import (
    chrome_trace_events,
    counter_track_events,
    export_chrome_trace,
    telemetry_counter_events,
)
from .latency import LatencyRecorder, LatencySummary
from .statistics import (
    BatchMeansResult,
    ImbalanceStats,
    batch_means_ci,
    cross_node_imbalance,
    mser5_truncation,
    slowdown_factors,
)
from .sweep import LoadSweep, SweepPoint, SweepResult, throughput_under_slo
from .tables import format_table, sweep_table, sweeps_csv

__all__ = [
    "ascii_chart",
    "sweeps_chart",
    "StageBreakdown",
    "breakdown_from_messages",
    "chrome_trace_events",
    "counter_track_events",
    "telemetry_counter_events",
    "export_chrome_trace",
    "LatencyRecorder",
    "LatencySummary",
    "mser5_truncation",
    "batch_means_ci",
    "BatchMeansResult",
    "ImbalanceStats",
    "cross_node_imbalance",
    "slowdown_factors",
    "LoadSweep",
    "SweepPoint",
    "SweepResult",
    "throughput_under_slo",
    "format_table",
    "sweep_table",
    "sweeps_csv",
]
