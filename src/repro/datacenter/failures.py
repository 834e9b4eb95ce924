"""Correlated failure domains: whole racks failing as one FaultPlan group.

Single-node crashes (:mod:`repro.faults`) model independent failures;
a datacenter's dominant outages are *correlated* — a rack PDU trips, a
ToR crashes — taking every member node out at the same instant.
:func:`rack_power_loss` expands such a rack-level event into the explicit per-member
:class:`~repro.faults.NodeCrash` group the existing fault machinery
executes, so both simulation tiers (the DES injector and the fast
tier's :class:`~repro.fastpath.loop.FaultTimeline`) replay the
correlated outage with zero new event types.

A power loss kills the
servers (in-flight work frozen until the outage ends — exactly
``NodeCrash``'s recovery semantics); a ToR crash makes them unreachable
(arriving requests drop at the NI, which ``NodeCrash`` also models). At
the fidelity of this layer the two coincide, so both are
:func:`rack_power_loss`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..faults import FaultPlan
from ..faults.plan import NodeCrash
from .topology import DatacenterTopology

__all__ = ["rack_power_loss", "merge_plans"]


def rack_power_loss(
    topology: DatacenterTopology,
    rack: int,
    at_ns: float,
    outage_ns: Optional[float] = None,
) -> FaultPlan:
    """Whole-rack outage: every member crashes at ``at_ns``.

    ``outage_ns=None`` is a permanent loss; otherwise the rack comes
    back up together after the outage.
    """
    if not 0 <= rack < topology.num_racks:
        raise ValueError(
            f"rack {rack!r} out of range [0, {topology.num_racks})"
        )
    return FaultPlan(events=tuple(
        NodeCrash(node=node, at_ns=at_ns, outage_ns=outage_ns)
        for node in topology.members(rack)
    ))


def merge_plans(plans: Iterable[FaultPlan]) -> FaultPlan:
    """Combine explicit-event plans into one (events concatenated).

    Only explicit events merge — rate-based noise fields must agree
    with the defaults, because summing rates across plans has no
    single right answer and silently keeping one plan's rates would
    mis-state the scenario.
    """
    merged: tuple = ()
    reference = FaultPlan()
    for plan in plans:
        for field in (
            "crash_rate_hz",
            "slowdown_rate_hz",
            "drop_prob",
            "dup_prob",
            "spike_prob",
        ):
            if getattr(plan, field) != getattr(reference, field):
                raise ValueError(
                    f"merge_plans only merges explicit events; plan has "
                    f"non-default {field}"
                )
        merged += plan.events
    return FaultPlan(events=merged)
