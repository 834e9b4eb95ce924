"""Protocol-level helpers: building send operations (§4.2).

The wire protocol itself is latency-modeled inside
:mod:`repro.arch.backend`; this module provides the sender-side
constructor that computes packetization (a message unrolls into
cache-block packets, each carrying the total message size in its
header so the receiving NI can detect completion).
"""

from __future__ import annotations

from typing import Dict, List

from .config import ChipConfig
from .packets import SendMessage

__all__ = ["SendFactory", "make_send"]


class SendFactory:
    """Builds the send operations of one chip config.

    :meth:`make` is the one validation and packetization path:
    :func:`make_send` and :meth:`repro.arch.Chip.make_send` both build
    through it. Packet counts are memoized per size; only counts that
    :meth:`ChipConfig.packets_for` returned are cached, so an invalid
    size raises on every call.
    """

    __slots__ = ("config", "free", "_remote_nodes", "_slots", "_packets")

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        #: Completed records that :meth:`make` resets in place instead
        #: of allocating (the chip's pool of ~max-in-flight messages).
        self.free: List[SendMessage] = []
        self._remote_nodes = config.num_remote_nodes
        self._slots = config.send_slots_per_node
        self._packets: Dict[int, int] = {}

    def make(
        self,
        msg_id: int,
        src_node: int,
        slot: int,
        size_bytes: int,
        service_ns: float,
        label: str = "rpc",
    ) -> SendMessage:
        """Build a send operation, packetized per the chip's MTU.

        Oversized payloads (> ``max_msg_bytes``) are *not* rejected:
        the chip converts them to a rendezvous transfer on arrival
        (§4.2).
        """
        if not 0 <= src_node < self._remote_nodes:
            raise ValueError(f"src_node {src_node!r} out of range")
        if not 0 <= slot < self._slots:
            raise ValueError(f"slot {slot!r} out of range")
        num_packets = self._packets.get(size_bytes)
        if num_packets is None:
            config = self.config
            num_packets = config.packets_for(min(size_bytes, config.max_msg_bytes))
            self._packets[size_bytes] = num_packets
        free = self.free
        if free:
            return free.pop().reset(
                msg_id, src_node, slot, size_bytes, num_packets, service_ns, label
            )
        return SendMessage(
            msg_id, src_node, slot, size_bytes, num_packets, service_ns, label
        )


def make_send(
    config: ChipConfig,
    msg_id: int,
    src_node: int,
    slot: int,
    size_bytes: int,
    service_ns: float,
    label: str = "rpc",
) -> SendMessage:
    """Build one send operation (see :meth:`SendFactory.make`).

    Callers that build many sends keep a :class:`SendFactory` instead.
    """
    return SendFactory(config).make(
        msg_id, src_node, slot, size_bytes, service_ns, label
    )

