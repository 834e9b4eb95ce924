"""Rack-of-racks datacenter hierarchy with in-network scheduler models.

The third level on top of the chip (:mod:`repro.arch`) and rack
(:mod:`repro.rack`) layers: a spine fabric connects per-rack ToR
routers, and the in-network scheduler designs from the related work —
RackSched-style two-layer scheduling, RAIN-style bounded JBSQ(k), and
nanoPU-style NI-core bypass node profiles — become composable models
over the existing cluster machinery. See ``ext-datacenter`` in
EXPERIMENTS.md for the sweep this package exists to answer.
"""

from .failures import merge_plans, rack_power_loss
from .fastdc import calibrated_profile_overhead_ns, simulate_datacenter_fast
from .router import DatacenterRouter
from .schedulers import (
    DEFAULT_JBSQ_K,
    HIERARCHIES,
    SPINE_POLICIES,
    DatacenterScheduler,
    FlatScheduler,
    TwoLevelScheduler,
    make_scheduler,
)
from .topology import NODE_PROFILES, DatacenterTopology, NodeProfile, node_profile

__all__ = [
    "DatacenterTopology",
    "NodeProfile",
    "NODE_PROFILES",
    "node_profile",
    "HIERARCHIES",
    "SPINE_POLICIES",
    "DEFAULT_JBSQ_K",
    "DatacenterScheduler",
    "FlatScheduler",
    "TwoLevelScheduler",
    "make_scheduler",
    "DatacenterRouter",
    "simulate_datacenter_fast",
    "calibrated_profile_overhead_ns",
    "rack_power_loss",
    "merge_plans",
]
