"""Fast-tier datacenter front-end: two-level routing on the shared loop.

The rack front-end (:mod:`repro.fastpath.fastcluster`) knows one rack;
this module is its rack-of-racks sibling. Routing is inherently
state-dependent here — every hierarchy model reads live per-node and
per-rack outstanding counts — so every run goes through the fast
tier's one sequential loop (:func:`repro.fastpath.loop.run_loop`),
which also owns batching, fault timelines, departures and result
assembly. Every node runs the paper's 1x16 single-queue scheme, the
RPCValet configuration.

Fidelity notes, matching the DES cross-check in ``ext-datacenter``:

* **Calibration** — per-RPC fixed overhead comes from the same 2-node
  light-load DES probe as the rack engine, run with the topology's
  :class:`~repro.datacenter.topology.NodeProfile` costs and chip
  config, so the ``nanopu`` profile is anchored against a DES that
  actually runs the reduced NI-bypass latencies (not an ad-hoc scale
  on the baseline calibration).
* **JBSQ(k)** — the ToR hold queue is modeled exactly: a rack whose
  least-loaded member sits at the bound holds the RPC at the ToR
  (counted in the rack's aggregate signal) and late-binds it to the
  member that next frees a slot; held time stays on the RPC's sojourn
  clock. The DES counterpart cannot hold (a destination is needed at
  issue time), so the paired cross-check runs sub-critical where the
  bound rarely binds.
* **Send slots** — not modeled: a datacenter client sprays across
  hundreds of destinations, so the per-(client, dst) 32-slot pools of
  the soNUMA messaging domain cannot bind at sub-critical load
  (``stall_fractions`` reports zeros).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ..cluster.cluster import ClusterResult
from ..fastpath.calibration import light_load_overhead_ns
from ..fastpath.loop import (
    FaultTimeline, RoutingStream, build_result, check_scenario, run_loop, sample_requests,
)
from ..rack.router import RouterStats
from .schedulers import DEFAULT_JBSQ_K, make_scheduler
from .topology import DatacenterTopology, node_profile

__all__ = [
    "calibrated_profile_overhead_ns",
    "simulate_datacenter_fast",
]


def calibrated_profile_overhead_ns(
    profile_name: str, cores: int = 16, probe_seed: int = 0
) -> float:
    """DES-anchored fixed per-RPC overhead for one node profile.

    The light-load 1x16 probe, run with the profile's costs and chip
    config; the baseline profile shares the rack engine's cached probe.
    1x16's occupancy ≈ total overhead (the shared-queue waits are
    insensitive to the occupancy/shift split — see
    :func:`~repro.fastpath.fastcluster.calibrated_scheme_profile`), so
    a single number suffices.
    """
    return light_load_overhead_ns(node_profile(profile_name), "1x16", cores, probe_seed)


def simulate_datacenter_fast(
    topology: DatacenterTopology,
    hierarchy: str = "racksched",
    policy: str = "jsq2",
    skew: float = 0.0,
    jbsq_k: int = DEFAULT_JBSQ_K,
    per_node_mrps: float = 20.0,
    requests_per_node: int = 1000,
    cores: int = 16,
    seed: int = 0,
    warmup_fraction: float = 0.1,
    faults=None,
    arrival_process=None,
    telemetry: bool = False,
    _audit: Optional[Dict[str, object]] = None,
) -> ClusterResult:
    """Run one datacenter scenario on the fast tier.

    Returns the same :class:`~repro.cluster.cluster.ClusterResult`
    shape as the rack engines, so the ``ext-datacenter`` driver can
    switch tiers without touching its analysis. ``_audit``, when a
    dict, receives engine internals the result shape has no field for
    (JBSQ ``holds``/``max_outstanding``; used by the bound-invariant
    tests and the driver's hold column).
    """
    num_nodes = topology.num_nodes
    node_cores = [cores] * num_nodes
    speeds = topology.speed_factors
    check_scenario(num_nodes, per_node_mrps, requests_per_node, warmup_fraction, node_cores, speeds)
    profile = node_profile("nanopu") if hierarchy == "nanopu" else topology.profile
    overhead = calibrated_profile_overhead_ns(profile.name, cores)

    scheduler = make_scheduler(hierarchy, topology, policy=policy, skew=skew, jbsq_k=jbsq_k)
    scheduler.set_capacities([cores * float(speed) for speed in speeds])
    bound = scheduler.bound_k

    times, clients, processing, route_rng = sample_requests(
        num_nodes, requests_per_node, per_node_mrps, arrival_process, seed
    )
    timeline = FaultTimeline.of(faults, num_nodes, times, seed)
    stream = RoutingStream(route_rng)

    rack_of = [topology.rack_of(node) for node in range(num_nodes)]
    outstanding = [0] * num_nodes
    #: Per-rack aggregate the spine reads: dispatched + ToR-held.
    rack_load = [0] * topology.num_racks
    hold = [deque() for _ in range(topology.num_racks)]
    holds = 0
    max_outstanding = 0
    choose = scheduler.choose

    def route(index: int, client: int, now: float) -> int:
        return choose(client, outstanding, rack_load, stream)

    def admit(index: int, client: int, dst: int, entered_at: float) -> bool:
        nonlocal holds, max_outstanding
        rack = rack_of[dst]
        rack_load[rack] += 1
        if bound is not None and outstanding[dst] >= bound:
            # The rack's least-loaded member is at the bound: every
            # member is full, so the ToR holds the RPC (still counted
            # in the rack aggregate the spine reads).
            holds += 1
            hold[rack].append((index, entered_at))
            return False
        load = outstanding[dst] + 1
        outstanding[dst] = load
        if load > max_outstanding:
            max_outstanding = load
        return True

    def release(when: float, dst: int, client: int):
        outstanding[dst] -= 1
        rack = rack_of[dst]
        rack_load[rack] -= 1
        if bound is not None:
            queue = hold[rack]
            if queue and outstanding[dst] < bound:
                # Late binding: the freed member is by construction the
                # rack's first slot below the bound, so the oldest held
                # RPC binds to it at the free instant.
                outstanding[dst] += 1
                return queue.popleft()
        return None

    dsts, sojourns, departures, dropped = run_loop(
        (times, clients, processing, stream), route, admit, release, node_cores, speeds,
        [overhead] * num_nodes, [0.0] * num_nodes, timeline=timeline,
    )
    assert all(not queue for queue in hold), "ToR hold queues must drain"

    if _audit is not None:
        _audit["holds"] = holds
        _audit["max_outstanding"] = max_outstanding
        _audit["bound_k"] = bound

    stats = RouterStats(policy=scheduler.label, signal="fresh", skew=skew)
    return build_result(
        num_nodes, dsts, sojourns, departures, dropped, [0] * num_nodes,
        requests_per_node, warmup_fraction, timeline, stats, telemetry=telemetry,
    )
