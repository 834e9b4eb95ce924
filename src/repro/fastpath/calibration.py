"""DES calibration shared by the fast tier's engines.

Every fast engine collapses a chip to a FIFO service process whose
fixed per-RPC overhead is measured on the DES itself. Two pieces are
shared: the light-load cluster probe that measures that overhead, and
the bisection that splits it into core occupancy and a pure latency
shift where per-core queues make the split matter (16x1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

__all__ = ["bisect_occupancy", "light_load_overhead_ns"]


@lru_cache(maxsize=None)
def light_load_overhead_ns(
    profile, scheme: str, cores: int, probe_seed: int
) -> float:
    """Total per-RPC latency overhead from a light-load DES probe.

    Runs a tiny two-node DES cluster of ``profile``
    (:class:`~repro.datacenter.topology.NodeProfile`) nodes at ~5%
    utilization, where queueing is negligible, and subtracts the
    workload's mean processing time: what remains is the
    NI/dispatch/messaging latency every RPC pays — the same "measured
    mean minus processing mean" recipe Fig. 9's analytic model uses.
    The baseline profile's config and costs equal the cluster defaults,
    so rack and datacenter runs share one cache entry.
    """
    from ..balancing import Partitioned, SingleQueue
    from ..cluster import Cluster
    from ..workloads import HerdWorkload

    factory = {"1x16": SingleQueue, "16x1": Partitioned}[scheme]
    workload = HerdWorkload()
    cluster = Cluster(
        num_nodes=2,
        scheme_factory=factory,
        workload=workload,
        config=profile.chip_config(),
        costs=profile.costs(),
        seed=probe_seed,
        core_counts=[cores, cores],
    )
    result = cluster.run(per_node_mrps=2.0, requests_per_node=600)
    return max(result.aggregate.mean - workload.mean_processing_ns, 0.0)


def bisect_occupancy(
    engine_mean: Callable[[float], float], target: float, overhead: float
) -> Tuple[float, float]:
    """Split ``overhead`` into ``(occupancy, shift)`` that hits ``target``.

    ``engine_mean(occupancy)`` runs the fast engine on the probe's own
    scenario with ``occupancy`` ns added to every service time (the
    rest of ``overhead`` booked as a latency shift) and returns its
    mean sojourn; ten halvings of ``[0, overhead]`` find the occupancy
    whose mean matches the DES probe's ``target``.
    """
    low, high = 0.0, overhead
    for _ in range(10):
        mid = (low + high) / 2.0
        if engine_mean(mid) > target:
            high = mid
        else:
            low = mid
    occupancy = (low + high) / 2.0
    return occupancy, overhead - occupancy
