"""Datacenter topology: racks of nodes, hardware generations, profiles.

The datacenter layer composes the existing single-rack machinery into a
rack-of-racks: ``num_racks`` equal racks of ``rack_size`` nodes each,
fronted by per-rack ToR routers that a spine fabric connects
(:class:`repro.cluster.HierarchicalFabric` prices the hops). Two knobs
make the topology more than a shape:

* **heterogeneity** — per-node ``speed_factors`` model mixed hardware
  generations (:meth:`DatacenterTopology.mixed_generations` puts the
  trailing racks on an older, slower generation);
* **node profiles** — a :class:`NodeProfile` scales the NI-pipeline
  and software-loop costs of every node *through the existing config
  objects* (:class:`~repro.arch.ChipConfig` /
  :class:`~repro.workloads.MicrobenchCosts`), not a fork of the arch
  layer. The ``nanopu`` preset models a nanoPU-style NI-core bypass:
  requests land in core-adjacent state, so poll/dispatch/CQE costs
  shrink to a quarter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cluster.cluster import check_speed_factors

__all__ = [
    "NodeProfile",
    "NODE_PROFILES",
    "node_profile",
    "DatacenterTopology",
]


@dataclass(frozen=True)
class NodeProfile:
    """Scaling of one node's fixed per-RPC costs (hardware variant).

    ``ni_scale`` multiplies the chip's NI-pipeline latencies (backend
    fixed/per-packet, dispatch, CQE write); ``sw_scale`` multiplies the
    microbenchmark loop's software costs (poll/read/send/replenish).
    ``1.0``/``1.0`` is the paper's platform.
    """

    name: str
    ni_scale: float = 1.0
    sw_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.ni_scale <= 0 or self.sw_scale <= 0:
            raise ValueError(
                f"profile scales must be positive, got "
                f"({self.ni_scale!r}, {self.sw_scale!r})"
            )

    def chip_config(self, base=None):
        """The profile's :class:`~repro.arch.ChipConfig` (scaled NI)."""
        from ..arch import ChipConfig

        config = base if base is not None else ChipConfig()
        return config.with_updates(
            backend_fixed_ns=config.backend_fixed_ns * self.ni_scale,
            backend_per_packet_ns=config.backend_per_packet_ns * self.ni_scale,
            dispatch_ns=config.dispatch_ns * self.ni_scale,
            cqe_write_ns=config.cqe_write_ns * self.ni_scale,
        )

    def costs(self, base=None):
        """The profile's :class:`~repro.workloads.MicrobenchCosts`."""
        from ..workloads import MicrobenchCosts

        costs = base if base is not None else MicrobenchCosts.lean()
        return MicrobenchCosts(
            poll_detect_ns=costs.poll_detect_ns * self.sw_scale,
            read_request_ns=costs.read_request_ns * self.sw_scale,
            send_issue_ns=costs.send_issue_ns * self.sw_scale,
            replenish_issue_ns=costs.replenish_issue_ns * self.sw_scale,
        )


#: The paper's platform, and the nanoPU-style NI-core bypass variant
#: (requests bypass the memory hierarchy into core-local state: NI
#: pipeline and the poll/read/reply loop both collapse to a quarter).
NODE_PROFILES = {
    "baseline": NodeProfile("baseline"),
    "nanopu": NodeProfile("nanopu", ni_scale=0.25, sw_scale=0.25),
}


def node_profile(name: str) -> NodeProfile:
    """Look up a :class:`NodeProfile` preset by name."""
    try:
        return NODE_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown node profile {name!r}; known: "
            f"{', '.join(sorted(NODE_PROFILES))}"
        ) from None


class DatacenterTopology:
    """``num_racks`` equal racks of ``rack_size`` nodes, id-ordered.

    Node ids are assigned rack-major: rack ``r`` holds nodes
    ``[r * rack_size, (r + 1) * rack_size)``. ``speed_factors`` (one
    per node) model hardware generations; ``profile`` names the
    :class:`NodeProfile` every node runs (the datacenter sweeps compare
    profiles fleet-wide, not per-rack).
    """

    def __init__(
        self,
        num_racks: int,
        rack_size: int,
        speed_factors: Optional[Sequence[float]] = None,
        profile: str = "baseline",
    ) -> None:
        if num_racks < 2:
            raise ValueError(f"need at least 2 racks, got {num_racks!r}")
        if rack_size < 2:
            raise ValueError(
                f"rack_size must be >= 2 (a client must have an in-rack "
                f"peer), got {rack_size!r}"
            )
        self.num_racks = num_racks
        self.rack_size = rack_size
        self.num_nodes = num_racks * rack_size
        self.profile = node_profile(profile)
        if speed_factors is not None:
            check_speed_factors(speed_factors, self.num_nodes)
            self.speed_factors: List[float] = [
                float(speed) for speed in speed_factors
            ]
        else:
            self.speed_factors = [1.0] * self.num_nodes

    @classmethod
    def mixed_generations(
        cls,
        num_racks: int,
        rack_size: int,
        old_racks: int,
        old_speed: float = 0.7,
        profile: str = "baseline",
    ) -> "DatacenterTopology":
        """Trailing ``old_racks`` racks on an older, slower generation."""
        if not 0 <= old_racks <= num_racks:
            raise ValueError(
                f"old_racks must be in [0, {num_racks}], got {old_racks!r}"
            )
        speeds = [1.0] * (num_racks - old_racks) * rack_size + [
            float(old_speed)
        ] * old_racks * rack_size
        return cls(num_racks, rack_size, speed_factors=speeds, profile=profile)

    def rack_of(self, node: int) -> int:
        return node // self.rack_size

    def members(self, rack: int) -> range:
        """Node ids of one rack."""
        if not 0 <= rack < self.num_racks:
            raise ValueError(f"rack {rack!r} out of range")
        return range(rack * self.rack_size, (rack + 1) * self.rack_size)

    def rack_speed(self, rack: int) -> float:
        """Mean speed factor of one rack's members."""
        members = self.members(rack)
        return sum(self.speed_factors[node] for node in members) / len(members)

    def fabric(
        self,
        racks_per_pod: Optional[int] = None,
        intra_rack_ns: float = 100.0,
        inter_rack_ns: float = 500.0,
        inter_pod_ns: float = 1000.0,
    ):
        """The matching :class:`~repro.cluster.HierarchicalFabric`."""
        from ..cluster import HierarchicalFabric

        return HierarchicalFabric(
            self.num_nodes,
            self.rack_size,
            racks_per_pod=racks_per_pod,
            intra_rack_ns=intra_rack_ns,
            inter_rack_ns=inter_rack_ns,
            inter_pod_ns=inter_pod_ns,
        )

    def describe(self) -> str:
        return (
            f"{self.num_racks} racks x {self.rack_size} nodes "
            f"({self.num_nodes} total, profile={self.profile.name})"
        )
