"""Measurement: latency recording, SLO extraction, sweep curves, tables."""

from .ascii_chart import ascii_chart, sweeps_chart
from .breakdown import StageBreakdown, breakdown_from_messages
from .chrometrace import (
    chrome_trace_events,
    counter_track_events,
    export_chrome_trace,
    telemetry_counter_events,
)
from .latency import LatencyRecorder, LatencySummary
from .statistics import ImbalanceStats, cross_node_imbalance, slowdown_factors
from .sweep import SweepPoint, SweepResult, throughput_under_slo
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
    "ImbalanceStats",
    "cross_node_imbalance",
    "slowdown_factors",
    "SweepPoint",
    "SweepResult",
    "throughput_under_slo",
    "format_table",
    "sweep_table",
    "sweeps_csv",
]
