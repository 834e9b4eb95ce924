"""Wiring a TelemetryHub into the architectural simulator.

:func:`instrument_chip` attaches histograms and periodic probes at the
load-bearing points of a built :class:`~repro.arch.chip.Chip`:

* **dispatcher decisions** — shared-CQ depth at every enqueue, the
  chosen core's outstanding count at every dispatch, and a dispatch
  counter (:mod:`repro.balancing.base`);
* **QP/CQ depth** — private-CQ depth at every CQE write
  (:mod:`repro.arch.qp`);
* **NI backend pipeline depth** at every ingress message
  (:mod:`repro.arch.backend`);
* **receive-buffer occupancy** at every slot claim
  (:mod:`repro.arch.buffers`);
* **periodic probes** (→ Perfetto counter tracks): per-dispatcher
  shared-CQ length, per-core outstanding count, per-backend pipeline
  depth, and receive slots in use.

The instrumented sites all guard with a single ``is not None`` check,
so a chip that is *not* instrumented pays nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .hub import TelemetryHub

if TYPE_CHECKING:  # pragma: no cover
    from ..arch.chip import Chip
    from ..cluster.cluster import Cluster
    from ..workloads.traffic import TrafficGenerator

__all__ = ["instrument_chip", "instrument_cluster", "instrument_traffic"]

#: Canonical metric names used by :func:`instrument_chip`.
PRIVATE_CQ_DEPTH = "arch.private_cq_depth"
SHARED_CQ_DEPTH = "arch.shared_cq_depth"
DISPATCH_OUTSTANDING = "arch.dispatch_outstanding"
DISPATCHES = "arch.dispatches"
BACKEND_DEPTH = "arch.backend_pipeline_depth"
RECV_SLOTS = "arch.recv_slots_occupied"


def instrument_chip(chip: "Chip", hub: TelemetryHub) -> TelemetryHub:
    """Attach ``hub``'s probes to every instrumented site of ``chip``.

    Must be called after the balancing scheme is installed (it probes
    the dispatchers) and before the run starts. Returns ``hub``.
    """
    if not chip.dispatchers:
        raise RuntimeError("instrument_chip: no balancing scheme installed yet")
    chip.telemetry = hub

    # Event-driven histograms: one shared instance per metric, so the
    # distribution is chip-wide and merges cleanly across workers.
    private_cq = hub.histogram(PRIVATE_CQ_DEPTH)
    for core in chip.cores:
        core.qp.depth_hist = private_cq

    shared_cq = hub.histogram(SHARED_CQ_DEPTH)
    decisions = hub.histogram(DISPATCH_OUTSTANDING)
    dispatches = hub.counter(DISPATCHES)
    for dispatcher in chip.dispatchers:
        dispatcher.cq_depth_hist = shared_cq
        dispatcher.decision_hist = decisions
        dispatcher.dispatch_counter = dispatches

    backend_depth = hub.histogram(BACKEND_DEPTH)
    for backend in chip.backends:
        backend.depth_hist = backend_depth

    chip.receive_buffer.occupancy_hist = hub.histogram(RECV_SLOTS)

    # Periodic probes: per-component queue-length counter tracks.
    for dispatcher in chip.dispatchers:
        hub.add_probe(
            f"shared_cq[{dispatcher.group_id}]",
            lambda d=dispatcher: len(d.shared_cq),
        )
    for dispatcher in chip.dispatchers:
        for core_id in dispatcher.core_ids:
            hub.add_probe(
                f"outstanding[core{core_id:02d}]",
                lambda d=dispatcher, c=core_id: d.outstanding[c],
            )
    for backend in chip.backends:
        # Backends book work ahead of the clock: read it as of the tick.
        hub.add_probe(
            f"backend[{backend.backend_id}].pipeline",
            lambda b=backend, h=hub: b.queue_depth(h.sampler.tick),
        )
    hub.add_probe("recv_slots", lambda rb=chip.receive_buffer: rb.occupied)
    return hub


#: Canonical metric names of the traffic-side offered-load tracks.
OFFERED_RATE = "traffic.offered_rate_rps"
OFFERED_ARRIVALS = "traffic.generated"


def instrument_traffic(
    traffic: "TrafficGenerator", hub: TelemetryHub
) -> TelemetryHub:
    """Attach offered-load probes to a traffic generator.

    Two periodic counter tracks (→ Perfetto): the *intended* offered
    rate λ(t) in requests/second (:data:`OFFERED_RATE` — constant for
    the paper's stationary Poisson, the profile curve for
    population-driven processes from :mod:`repro.popload`), and the
    cumulative generated-arrival count (:data:`OFFERED_ARRIVALS`).
    Probes added after the hub's sampler is attached still sample —
    the sampler reads the hub's probe list by reference.
    """
    env = traffic.chip.env
    hub.add_probe(
        OFFERED_RATE, lambda t=traffic, e=env: t.offered_rate_rps(e.now)
    )
    hub.add_probe(OFFERED_ARRIVALS, lambda t=traffic: t.generated)
    return hub


#: Canonical metric name of the router staleness-error histogram.
RACK_SIGNAL_ERROR = "rack.signal_error"

#: Canonical metric name of the failure-detector latency histogram.
FAULT_DETECTION_LATENCY = "faults.detection_latency_ns"


def instrument_cluster(cluster: "Cluster", hub: TelemetryHub) -> TelemetryHub:
    """Attach cluster-level probes to every node of ``cluster``.

    Periodic probes (→ Perfetto counter tracks), all off unless the
    cluster was built with ``telemetry=True``:

    * ``shared_cq[node{i}]`` — entries waiting in node *i*'s dispatcher
      shared CQ(s), the server-side backlog rack routing reacts to;
    * ``send_credits[node{i}]`` — send-slot credits node *i* currently
      holds across the fabric (cross-node flow-control pressure);
    * ``rack.outstanding[node{i}]`` — the router's ground-truth
      outstanding load per destination (router runs only).

    Event-driven rack instrumentation (router runs only): one routed
    counter per destination plus the total decision counter, and a
    histogram of |estimate - true load| at each load-aware decision
    (:data:`RACK_SIGNAL_ERROR` — the staleness error the ``ext-rack``
    sweep studies).
    """
    for node in cluster.nodes:
        hub.add_probe(
            f"shared_cq[node{node.node_id}]",
            lambda n=node: n.shared_cq_depth(),
        )
    for node in cluster.nodes:
        hub.add_probe(
            f"send_credits[node{node.node_id}]",
            lambda n=node: n.slots_in_use(),
        )
    router = cluster.router
    if router is not None:
        for node_id in range(cluster.num_nodes):
            hub.add_probe(
                f"rack.outstanding[node{node_id}]",
                lambda r=router, i=node_id: r.outstanding[i],
            )
        router.decision_counters = [
            hub.counter(f"rack.routed[node{node_id}]")
            for node_id in range(cluster.num_nodes)
        ]
        router.staleness_hist = hub.histogram(RACK_SIGNAL_ERROR)
    injector = getattr(cluster, "injector", None)
    if injector is not None:
        # Fault-layer counter tracks: nodes currently down, plus the
        # cumulative retry / hedge / timeout / fabric-drop activity —
        # sampled from the injector's running stats so Perfetto shows
        # when a retry storm ignites, not just its final total.
        hub.add_probe("faults.nodes_down", lambda inj=injector: inj.nodes_down())
        stats = injector.stats
        hub.add_probe("faults.retries", lambda s=stats: s.retries)
        hub.add_probe("faults.hedges", lambda s=stats: s.hedges)
        hub.add_probe("faults.timeouts", lambda s=stats: s.timeouts)
        hub.add_probe("faults.msg_drops", lambda s=stats: s.msg_drops)
        if router is not None and router.suspect_after_ns is not None:
            router.detection_hist = hub.histogram(FAULT_DETECTION_LATENCY)
    return hub
