"""Message and operation records flowing through the simulated NI.

The unit of work end to end is a :class:`SendMessage` — a soNUMA
``send`` operation carrying an RPC request. It is created by the
traffic generator, reassembled at an NI backend, queued at a dispatcher,
executed on a core, and finished by a ``replenish``. The record carries
the timestamps each experiment measures.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["SendMessage", "OneSidedWrite"]


class SendMessage:
    """One RPC request carried by a native-messaging ``send`` (§4.2)."""

    __slots__ = (
        "msg_id",
        "src_node",
        "slot",
        "size_bytes",
        "num_packets",
        "service_ns",
        "label",
        "receive_slot",
        "backend_id",
        "group_id",
        "core_id",
        "rendezvous",
        "extra_pre_ns",
        # timestamps (ns); None until the corresponding stage happens
        "t_arrival",
        "t_reassembled",
        "t_dispatch",
        "t_cqe",
        "t_start",
        "t_replenish",
    )

    def __init__(
        self,
        msg_id: int,
        src_node: int,
        slot: int,
        size_bytes: int,
        num_packets: int,
        service_ns: float,
        label: str = "rpc",
    ) -> None:
        self.reset(
            msg_id, src_node, slot, size_bytes, num_packets, service_ns, label
        )

    def reset(
        self,
        msg_id: int,
        src_node: int,
        slot: int,
        size_bytes: int,
        num_packets: int,
        service_ns: float,
        label: str = "rpc",
    ) -> "SendMessage":
        """(Re)initialize every field — the recycling hook.

        :meth:`Chip.make_send` pools completed messages and resets them
        here instead of allocating; every slot (including the
        rendezvous-path mutations of ``num_packets``/``extra_pre_ns``
        and all timestamps) must be restored to construction state.
        """
        if service_ns < 0:
            raise ValueError(f"service_ns must be non-negative, got {service_ns!r}")
        if num_packets <= 0:
            raise ValueError(f"num_packets must be positive, got {num_packets!r}")
        self.msg_id = msg_id
        self.src_node = src_node
        self.slot = slot
        self.size_bytes = size_bytes
        self.num_packets = num_packets
        self.service_ns = service_ns
        self.label = label
        #: Global receive-buffer slot index (src_index * S + slot).
        self.receive_slot: int = -1
        #: NI backend that receives/reassembles the message.
        self.backend_id: int = -1
        #: Balancing group (dispatcher) the message is steered to.
        self.group_id: int = -1
        #: Core the dispatcher assigned the message to.
        self.core_id: int = -1
        #: True when the payload exceeds max_msg_size and is fetched by
        #: the receiver with a one-sided read (§4.2's rendezvous).
        self.rendezvous: bool = False
        #: Extra pre-processing latency on the core (rendezvous fetch).
        self.extra_pre_ns: float = 0.0
        self.t_arrival: Optional[float] = None
        self.t_reassembled: Optional[float] = None
        self.t_dispatch: Optional[float] = None
        #: CQE written into the assigned core's private CQ (frontend).
        self.t_cqe: Optional[float] = None
        self.t_start: Optional[float] = None
        self.t_replenish: Optional[float] = None
        return self

    @property
    def latency_ns(self) -> float:
        """§5's metric: reception of the send → replenish posted."""
        if self.t_arrival is None or self.t_replenish is None:
            raise RuntimeError(f"message {self.msg_id} has not completed")
        return self.t_replenish - self.t_arrival

    @property
    def queueing_ns(self) -> float:
        """Time between NI arrival and the core starting the RPC."""
        if self.t_arrival is None or self.t_start is None:
            raise RuntimeError(f"message {self.msg_id} was never started")
        return self.t_start - self.t_arrival

    def __repr__(self) -> str:
        return (
            f"<SendMessage id={self.msg_id} src={self.src_node} "
            f"slot={self.slot} {self.size_bytes}B {self.label}>"
        )


class OneSidedWrite:
    """A plain soNUMA one-sided RDMA write (not load-balance eligible).

    The NI distinguishes these from ``send`` operations (§3.3): they are
    written straight to memory and produce no CPU notification. They
    exist in the model so tests can assert that the dispatcher never
    sees them.
    """

    __slots__ = ("op_id", "src_node", "size_bytes", "num_packets")

    def __init__(self, op_id: int, src_node: int, size_bytes: int, num_packets: int) -> None:
        self.op_id = op_id
        self.src_node = src_node
        self.size_bytes = size_bytes
        self.num_packets = num_packets

    def __repr__(self) -> str:
        return f"<OneSidedWrite id={self.op_id} {self.size_bytes}B>"
