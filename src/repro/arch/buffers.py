"""Messaging-domain buffer provisioning (§4.2, "Buffer provisioning").

A messaging domain over N nodes with S slots per node-pair allocates on
each node a *send buffer* (N×S bookkeeping slots, 32B each) and a
*receive buffer* (N×S payload slots of ``max_msg_size`` plus a 64B
counter block). The paper's footprint formula:

    32·N·S + (max_msg_size + 64)·N·S  bytes

This module implements the receive buffer (per-slot packet counters
and occupancy) and the footprint math for both buffers. The send side
is plain free-slot lists held by the senders (the traffic generator and
each cluster node), credited back through
``Chip.on_slot_replenished``: senders block on an exhausted list, so
flow control and buffer-sizing experiments stay faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "MessagingDomain",
    "ReceiveSlot",
    "ReceiveBuffer",
    "DynamicSlotAllocator",
    "SEND_SLOT_BYTES",
    "COUNTER_BLOCK_BYTES",
]

#: §4.2: each send slot holds a valid bit, payload pointer, and size —
#: the footprint formula charges 32 bytes per slot.
SEND_SLOT_BYTES = 32

#: §4.2: the per-receive-slot packet counter is overprovisioned to a
#: full 64B cache block "to avoid unaligned accesses".
COUNTER_BLOCK_BYTES = 64


@dataclass(frozen=True)
class MessagingDomain:
    """Static parameters of one messaging domain (§4.2).

    ``num_nodes`` (N), ``slots_per_node`` (S), and ``max_msg_bytes``
    are fixed at setup time; receive-slot addresses are then computable
    by every sender without coordination.
    """

    num_nodes: int
    slots_per_node: int
    max_msg_bytes: int

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes!r}")
        if self.slots_per_node < 1:
            raise ValueError(f"slots_per_node must be >= 1, got {self.slots_per_node!r}")
        if self.max_msg_bytes < 1:
            raise ValueError(f"max_msg_bytes must be >= 1, got {self.max_msg_bytes!r}")

    @property
    def total_slots(self) -> int:
        """N×S — slots in each of the send and receive buffers."""
        return self.num_nodes * self.slots_per_node

    @property
    def send_buffer_bytes(self) -> int:
        """32·N·S."""
        return SEND_SLOT_BYTES * self.total_slots

    @property
    def receive_buffer_bytes(self) -> int:
        """(max_msg_size + 64)·N·S."""
        return (self.max_msg_bytes + COUNTER_BLOCK_BYTES) * self.total_slots

    @property
    def footprint_bytes(self) -> int:
        """The paper's total per-node memory footprint formula."""
        return self.send_buffer_bytes + self.receive_buffer_bytes

    def receive_slot_index(self, node_index: int, slot: int) -> int:
        """Global receive-buffer slot index for (sender, slot)."""
        if not 0 <= node_index < self.num_nodes:
            raise ValueError(f"node_index {node_index!r} out of range")
        if not 0 <= slot < self.slots_per_node:
            raise ValueError(f"slot {slot!r} out of range")
        return node_index * self.slots_per_node + slot


class ReceiveSlot:
    """Receiver-side payload slot with its packet counter (§4.2)."""

    __slots__ = ("counter", "expected_packets", "busy")

    def __init__(self) -> None:
        self.counter = 0
        self.expected_packets = 0
        self.busy = False

    def begin_message(self, expected_packets: int) -> None:
        if self.busy:
            raise RuntimeError("receive slot already holds an in-flight message")
        if expected_packets <= 0:
            raise ValueError("expected_packets must be positive")
        self.busy = True
        self.counter = 0
        self.expected_packets = expected_packets

    def packet_arrived(self) -> bool:
        """NI fetch-and-increment; True when the message is complete."""
        return self.packets_arrived(1)

    def packets_arrived(self, count: int) -> bool:
        """``count`` fetch-and-increments at once (a backend writes a
        whole message in one pipeline pass); True when complete."""
        if not self.busy:
            raise RuntimeError("packet for an idle receive slot")
        self.counter += count
        if self.counter > self.expected_packets:
            raise RuntimeError("more packets than the message header declared")
        return self.counter == self.expected_packets

    def release(self) -> None:
        """Free the slot once the RPC has been processed."""
        if not self.busy:
            raise RuntimeError("releasing an idle receive slot")
        self.busy = False
        self.counter = 0
        self.expected_packets = 0


class ReceiveBuffer:
    """A node's N×S receive slots, indexed by (source node, slot)."""

    __slots__ = ("domain", "slots", "_occupied", "max_occupied", "occupancy_hist")

    def __init__(self, domain: MessagingDomain) -> None:
        self.domain = domain
        self.slots: List[ReceiveSlot] = [
            ReceiveSlot() for _ in range(domain.total_slots)
        ]
        self._occupied = 0
        self.max_occupied = 0
        #: Telemetry: occupancy histogram, installed by
        #: :func:`repro.telemetry.instrument_chip` (None = disabled).
        self.occupancy_hist = None

    @property
    def occupied(self) -> int:
        return self._occupied

    def begin_message(self, node_index: int, slot: int, expected_packets: int) -> int:
        return self.begin_at(
            self.domain.receive_slot_index(node_index, slot), expected_packets
        )

    def begin_at(self, index: int, expected_packets: int) -> int:
        """Start reassembly at a pre-computed global slot index.

        Used by the dynamic slot allocator (§4.2 extension), which hands
        out arbitrary free indices instead of (sender, slot) pairs.
        """
        if not 0 <= index < len(self.slots):
            raise ValueError(f"slot index {index!r} out of range")
        self.slots[index].begin_message(expected_packets)
        occupied = self._occupied = self._occupied + 1
        if occupied > self.max_occupied:
            self.max_occupied = occupied
        hist = self.occupancy_hist
        if hist is not None:
            hist.record(occupied)
        return index

    def packet_arrived(self, index: int) -> bool:
        return self.slots[index].packet_arrived()

    def release(self, index: int) -> None:
        self.slots[index].release()
        self._occupied -= 1


class DynamicSlotAllocator:
    """Shared free-list slot allocation (§4.2's future-work extension).

    The paper's static provisioning reserves S slots per node pair —
    32·N·S + (max_msg+64)·N·S bytes even when most node pairs are
    idle. "Dynamic buffer management mechanisms to reduce memory
    footprint are possible, but beyond the scope of this paper."

    This allocator implements the obvious such mechanism: a single pool
    of ``pool_size`` receive slots shared by all senders, handed out on
    demand and returned on replenish. The traffic generator's dynamic
    mode uses it (``slot_policy="dynamic"``); the pooled-vs-static
    footprint trade-off is measured in benchmarks/bench_extensions.py.
    """

    __slots__ = (
        "pool_size",
        "max_msg_bytes",
        "_free",
        "max_in_use",
        "failed_allocations",
    )

    def __init__(self, pool_size: int, max_msg_bytes: int) -> None:
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size!r}")
        if max_msg_bytes <= 0:
            raise ValueError(f"max_msg_bytes must be positive, got {max_msg_bytes!r}")
        self.pool_size = pool_size
        self.max_msg_bytes = max_msg_bytes
        self._free: List[int] = list(range(pool_size - 1, -1, -1))
        self.max_in_use = 0
        self.failed_allocations = 0

    @property
    def in_use(self) -> int:
        return self.pool_size - len(self._free)

    @property
    def footprint_bytes(self) -> int:
        """Receive-side memory: pool_size slots instead of N·S."""
        return (self.max_msg_bytes + COUNTER_BLOCK_BYTES) * self.pool_size

    def allocate(self) -> Optional[int]:
        """Return a free slot index, or None when the pool is exhausted."""
        if not self._free:
            self.failed_allocations += 1
            return None
        index = self._free.pop()
        if self.in_use > self.max_in_use:
            self.max_in_use = self.in_use
        return index

    def release(self, index: int) -> None:
        """Return a slot to the pool."""
        if not 0 <= index < self.pool_size:
            raise ValueError(f"slot index {index!r} out of range")
        if index in self._free:
            raise RuntimeError(f"slot {index} released twice")
        self._free.append(index)
