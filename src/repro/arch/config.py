"""Chip and NI latency parameters (paper Table 1 + §4).

All latency constants are expressed in nanoseconds. Cycle counts from
Table 1 convert at the table's 2GHz clock (0.5ns/cycle). The constants
an experiment actually exercises are:

* mesh hop latency — NI backend → dispatcher → core frontend indirection
  (§4.3: "a couple of on-chip interconnect hops, adding just a few ns");
* backend packet handling — soNUMA unrolls a message into cache-block
  packets; each costs a pipeline slot at the receiving NI backend;
* dispatch cost — the Dispatch pipeline stage's decision time;
* CQE delivery — the frontend writing into the core's cacheable CQ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["ChipConfig", "cycles_to_ns", "DEFAULT_CONFIG"]


def cycles_to_ns(cycles: float, clock_ghz: float = 2.0) -> float:
    """Convert core cycles to nanoseconds at the given clock."""
    if clock_ghz <= 0:
        raise ValueError(f"clock must be positive, got {clock_ghz!r}")
    return cycles / clock_ghz


@dataclass(frozen=True)
class ChipConfig:
    """Parameters of the modeled 16-core soNUMA chip (Table 1).

    The defaults reproduce the paper's platform: a tiled 4×4 mesh of
    ARM-class cores at 2GHz, 64-byte cache blocks, four NI backends at
    the mesh edge (one per row, per the Manycore NI architecture
    [Daglis et al., ISCA'15]), and a 200-node messaging domain.
    """

    # --- chip geometry (Table 1) -----------------------------------------
    num_cores: int = 16
    mesh_rows: int = 4
    mesh_cols: int = 4
    clock_ghz: float = 2.0
    mesh_hop_cycles: int = 3
    cache_block_bytes: int = 64

    # --- memory hierarchy (Table 1), folded into fixed access costs -------
    l1_latency_ns: float = cycles_to_ns(3)
    llc_latency_ns: float = cycles_to_ns(6)
    memory_latency_ns: float = 50.0

    # --- NI organization (§4.1) ------------------------------------------
    num_backends: int = 4
    #: Fixed Remote Request Processing pipeline latency per message
    #: (header decode, counter fetch-and-increment, completion check).
    backend_fixed_ns: float = 6.0
    #: Per 64B-packet handling cost at a backend (link + memory write).
    backend_per_packet_ns: float = 3.0
    #: Dispatch pipeline stage decision cost (§4.3/§4.4), serialized at
    #: the NI dispatcher.
    dispatch_ns: float = 2.0
    #: Frontend writing a CQE into the core's (cacheable) private CQ.
    cqe_write_ns: float = 6.0

    # --- cluster / messaging domain (§5) ----------------------------------
    num_nodes: int = 200
    send_slots_per_node: int = 32
    max_msg_bytes: int = 2048
    #: One-way wire latency between nodes; only affects send-slot
    #: recycling (request latency is measured from NI arrival).
    wire_latency_ns: float = 100.0

    def __post_init__(self) -> None:
        if self.num_cores != self.mesh_rows * self.mesh_cols:
            raise ValueError(
                f"num_cores ({self.num_cores}) must equal mesh_rows*mesh_cols "
                f"({self.mesh_rows}x{self.mesh_cols})"
            )
        if self.num_backends <= 0 or self.num_backends > self.num_cores:
            raise ValueError(f"invalid num_backends {self.num_backends!r}")
        if self.num_nodes < 2:
            raise ValueError("need at least two nodes (one remote sender)")
        if self.send_slots_per_node <= 0:
            raise ValueError("send_slots_per_node must be positive")
        if self.cache_block_bytes <= 0:
            raise ValueError("cache_block_bytes must be positive")
        if self.max_msg_bytes < self.cache_block_bytes:
            raise ValueError("max_msg_bytes must hold at least one block")
        for name in (
            "backend_fixed_ns",
            "backend_per_packet_ns",
            "dispatch_ns",
            "cqe_write_ns",
            "wire_latency_ns",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # --- derived quantities -------------------------------------------------

    @property
    def mesh_hop_ns(self) -> float:
        """Latency of one mesh hop."""
        return cycles_to_ns(self.mesh_hop_cycles, self.clock_ghz)

    @property
    def num_remote_nodes(self) -> int:
        """Number of nodes that can send to the modeled chip."""
        return self.num_nodes - 1

    def packets_for(self, size_bytes: int) -> int:
        """Number of cache-block packets a message of this size unrolls to."""
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes!r}")
        return math.ceil(size_bytes / self.cache_block_bytes)

    def with_updates(self, **changes) -> "ChipConfig":
        """Functional update, e.g. ``config.with_updates(num_backends=8)``."""
        return replace(self, **changes)


#: The paper's evaluation platform.
DEFAULT_CONFIG = ChipConfig()
