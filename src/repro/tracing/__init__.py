"""Per-RPC span tracing and tail attribution.

The repo's telemetry (:mod:`repro.telemetry`) says *that* p99 moved;
this package says *why*: a sampling span tracer threads through the
DES hot paths — NI dispatch and queue-pair residency in ``arch``, the
robust-client attempt lifecycle (timeout / retry / hedge / duplicate
reconciliation) in ``cluster``, router decisions and load-signal
staleness in ``rack``, fault events in ``faults`` — and produces
per-RPC span trees whose phase components sum exactly to the recorded
end-to-end latency.

Design contracts (shared with the telemetry layer):

* **zero-cost when disabled** — every instrumented site is a bare
  ``is not None`` check, and the tracer itself draws no random
  variates, so traced and untraced runs are bit-identical;
* **mergeable** — per-task :class:`TraceBuffer`\\ s concatenate in task
  order, bit-identical at any worker count;
* **DES-tier only** — the fast/fluid tiers have no per-RPC state to
  trace; engine-aware drivers reject ``engine != "des"`` with a clear
  error when tracing is requested.

Quickstart::

    from repro.cluster import Cluster
    from repro.rack import RackRouter
    from repro.tracing import TraceConfig, attribute_tails

    cluster = Cluster(4, router=RackRouter("jsq2"), trace=TraceConfig())
    result = cluster.run(per_node_mrps=24.0, requests_per_node=4_000)
    report = attribute_tails(result.spans)
    print(report.cohort("p99").phase_fraction["dispatch_wait"])
"""

from .attribution import (
    AttributionReport,
    CohortReport,
    attribute_tails,
    attribution_to_dict,
    render_exemplar,
)
from .export import export_span_trace, span_trace_events
from .spans import (
    PHASES,
    AttemptSpan,
    RpcTrace,
    TraceBuffer,
    TraceConfig,
    Tracer,
)

__all__ = [
    "PHASES",
    "TraceConfig",
    "AttemptSpan",
    "RpcTrace",
    "TraceBuffer",
    "Tracer",
    "AttributionReport",
    "CohortReport",
    "attribute_tails",
    "attribution_to_dict",
    "render_exemplar",
    "span_trace_events",
    "export_span_trace",
]
