"""The modeled soNUMA chip: cores, frontends, backends, buffers (§4/§5).

:class:`Chip` wires the pieces together and provides the two entry
points the rest of the system uses:

* :meth:`submit_message` — a send message arrives from the network
  (called by the traffic generator at the message's NI arrival time);
* :meth:`complete_request` — a core finished an RPC and posted its
  replenish (called by :class:`repro.arch.cpu.Core`).

The chip is balancing-scheme agnostic: a scheme (from
:mod:`repro.balancing`) installs one or more dispatcher objects and a
message→group spray before the simulation starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..metrics import LatencyRecorder
from ..sim import Environment, RngRegistry
from .backend import NIBackend
from .buffers import MessagingDomain, ReceiveBuffer
from .config import ChipConfig
from .cpu import Core, CoreProgram
from .frontend import NIFrontend
from .mesh import Mesh
from .packets import OneSidedWrite, SendMessage
from .protocol import SendFactory

__all__ = ["Chip", "ChipStats"]


@dataclass
class ChipStats:
    """Counters accumulated over one simulation run."""

    submitted: int = 0
    completed: int = 0
    rendezvous_messages: int = 0
    onesided_ops: int = 0
    #: Sum of per-request core occupancy; ``/ completed`` gives S̄.
    occupancy_sum_ns: float = 0.0

    @property
    def mean_service_ns(self) -> float:
        """Measured mean service time S̄ (core occupancy per request)."""
        if self.completed == 0:
            return float("nan")
        return self.occupancy_sum_ns / self.completed


class Chip:
    """A 16-core soNUMA chip with a Manycore NI."""

    def __init__(
        self,
        env: Environment,
        config: ChipConfig,
        program: CoreProgram,
        rngs: RngRegistry,
    ) -> None:
        self.env = env
        self.config = config
        self.program = program
        self.mesh = Mesh(config)
        self.domain = MessagingDomain(
            num_nodes=config.num_remote_nodes,
            slots_per_node=config.send_slots_per_node,
            max_msg_bytes=config.max_msg_bytes,
        )
        self.receive_buffer = ReceiveBuffer(self.domain)
        self.cores: List[Core] = [
            Core(self, core_id, program) for core_id in range(config.num_cores)
        ]
        self.frontends: List[NIFrontend] = [
            NIFrontend(self, core.core_id, core.qp) for core in self.cores
        ]
        self.backends: List[NIBackend] = [
            NIBackend(self, backend_id) for backend_id in range(config.num_backends)
        ]
        #: Installed by a balancing scheme before the run starts.
        self.dispatchers: List = []
        #: Extra per-request core occupancy imposed by the scheme
        #: (software dequeue cost; zero for hardware dispatch).
        self.per_request_core_overhead_ns: float = 0.0
        #: Called (with the completed message) one wire latency after
        #: the replenish leaves, so the traffic source can recycle the
        #: send slot; installed by the traffic generator.
        self.on_slot_replenished: Optional[Callable[[SendMessage], None]] = None
        #: Optional message→group mapping replacing the uniform spray
        #: (used by RSS-style per-source hashing).
        self.group_spray_override: Optional[Callable[[SendMessage], int]] = None

        self.recorder = LatencyRecorder()
        self.stats = ChipStats()
        self._spray_rng = rngs.stream("group_spray")
        self._next_onesided = 0
        #: When set to a list, completed messages are appended to it
        #: (for per-stage latency breakdowns; off by default to keep
        #: memory flat on long runs).
        self.completed_messages: Optional[List[SendMessage]] = None
        #: Optional §3.2 interference injection (stragglers, TLB-style
        #: stalls); consulted by cores at each request pickup.
        self.interference = None
        self._interference_rng = rngs.stream("interference")
        #: Telemetry hub, set by :func:`repro.telemetry.instrument_chip`
        #: (None = telemetry disabled; instrumented sites stay no-ops).
        self.telemetry = None
        sends = SendFactory(config)
        #: ``make_send(msg_id, src_node, slot, size_bytes, service_ns,
        #: label="rpc")`` builds a send operation (see
        #: :meth:`SendFactory.make`), resetting a completed record from
        #: the pool below instead of allocating. Traffic sources go
        #: through it, so ~max-in-flight records serve the whole run.
        self.make_send = sends.make
        #: Completed SendMessage records awaiting reuse; only populated
        #: while ``completed_messages`` is None, because a kept message
        #: must never be reset under the keeper.
        self._message_pool: List[SendMessage] = sends.free
        #: The program's (pre, post, reply size), or None to call its
        #: per-message methods (see :meth:`CoreProgram.fixed_costs`).
        self._fixed_costs = program.fixed_costs()
        #: Each core's reply egress backend, and reply packets per size
        #: (only successful ``packets_for`` results are cached).
        self._reply_backend = [
            self._nearest_backend(core_id) for core_id in range(config.num_cores)
        ]
        self._reply_packets: Dict[int, int] = {}

    # -- scheme installation ---------------------------------------------------

    def install_dispatchers(
        self, dispatchers: List, core_overhead_ns: float = 0.0
    ) -> None:
        """Install the balancing scheme's dispatcher objects."""
        if not dispatchers:
            raise ValueError("need at least one dispatcher")
        self.dispatchers = list(dispatchers)
        self.per_request_core_overhead_ns = core_overhead_ns

    # -- network-facing entry points ------------------------------------------

    def submit_message(self, msg: SendMessage) -> None:
        """A send message reaches the chip's NI (time = ``env.now``).

        Steers the message to an NI backend (by receive-slot
        interleaving), starts reassembly bookkeeping, and sprays it to
        a balancing group.
        """
        if not self.dispatchers:
            raise RuntimeError("no balancing scheme installed")
        config = self.config
        msg.t_arrival = self.env.now
        if msg.size_bytes > config.max_msg_bytes:
            # §4.2 rendezvous: the send carries a descriptor; the
            # receiver pulls the payload with a one-sided read before
            # processing. The fetch costs a round trip plus the payload
            # transfer through a backend.
            payload_packets = config.packets_for(msg.size_bytes)
            msg.rendezvous = True
            msg.num_packets = 1
            msg.extra_pre_ns = (
                2.0 * config.wire_latency_ns
                + payload_packets * config.backend_per_packet_ns
            )
            self.stats.rendezvous_messages += 1
        if msg.receive_slot < 0:
            # Static provisioning: the sender-computed (src, slot) pair
            # addresses the receive buffer directly (§4.2).
            msg.receive_slot = self.domain.receive_slot_index(
                msg.src_node, msg.slot
            )
        self.receive_buffer.begin_at(msg.receive_slot, msg.num_packets)
        # Messages spread across the replicated backends (the Manycore
        # NI handles network packets in parallel, §4.3); slot-index
        # interleaving degenerates because slot indices are multiples
        # of S, so spread by message id instead.
        msg.backend_id = msg.msg_id % config.num_backends
        if self.group_spray_override is not None:
            msg.group_id = self.group_spray_override(msg)
        elif len(self.dispatchers) == 1:
            msg.group_id = 0
        else:
            msg.group_id = int(self._spray_rng.integers(0, len(self.dispatchers)))
        self.stats.submitted += 1
        self.backends[msg.backend_id].receive_message(msg)

    def submit_onesided(self, size_bytes: int, src_node: int = 0) -> OneSidedWrite:
        """A plain one-sided write arrives: handled by a backend only.

        Never reaches a dispatcher — the §3.3 property that one-sided
        ops produce no CPU notification.
        """
        op = OneSidedWrite(
            op_id=self._next_onesided,
            src_node=src_node,
            size_bytes=size_bytes,
            num_packets=self.config.packets_for(size_bytes),
        )
        self._next_onesided += 1
        self.stats.onesided_ops += 1
        backend = self.backends[op.op_id % self.config.num_backends]
        backend.receive_onesided(op)
        return op

    # -- completion path ----------------------------------------------------------

    def complete_request(self, msg: SendMessage, core: Core) -> None:
        """Core posted the replenish for ``msg`` at ``env.now`` (§4.2)."""
        config = self.config
        stats = self.stats
        stats.completed += 1
        fixed = self._fixed_costs
        pre_ns = self.program.pre_ns(msg) if fixed is None else fixed[0]
        # Core occupancy = everything between CQE pickup and replenish;
        # reconstruct it from the (t_start - pre) .. t_replenish window.
        t_replenish = msg.t_replenish
        stats.occupancy_sum_ns += t_replenish - msg.t_start + pre_ns + msg.extra_pre_ns
        # The latency is msg.latency_ns; both timestamps are set by now.
        self.recorder.record(t_replenish, t_replenish - msg.t_arrival, msg.label)
        if self.completed_messages is not None:
            self.completed_messages.append(msg)

        # 1. The replenish propagates to the dispatcher that issued the RPC.
        core_id = core.core_id
        self.frontends[core_id].propagate_replenish(msg)
        # 2. The receive slot frees once the RPC is processed.
        self.receive_buffer.release(msg.receive_slot)
        # 3. The reply (512B send) leaves through this core's nearest
        #    backend, consuming egress pipeline occupancy.
        size = self.program.reply_size_bytes(msg) if fixed is None else fixed[2]
        reply_packets = self._reply_packets.get(size)
        if reply_packets is None:
            reply_packets = self._reply_packets[size] = config.packets_for(size)
        self.backends[self._reply_backend[core_id]].send_reply(reply_packets)
        # 4. The replenish packet reaches the source node one wire
        #    latency later and frees the sender's send slot. The record
        #    is recycled once that callback (the last reader) has run.
        if self.on_slot_replenished is not None:
            self.env.schedule_call(
                config.wire_latency_ns, self._replenish_arrived, msg
            )
        elif self.completed_messages is None:
            self._message_pool.append(msg)

    def _replenish_arrived(self, msg: SendMessage) -> None:
        self.on_slot_replenished(msg)
        if self.completed_messages is None:
            self._message_pool.append(msg)

    def _nearest_backend(self, core_id: int) -> int:
        row = core_id // self.config.mesh_cols
        return row * self.config.num_backends // self.config.mesh_rows

    # -- observability -----------------------------------------------------------

    @property
    def total_cqe_depth_high_water(self) -> int:
        """Max private-CQ depth observed across cores."""
        return max(core.qp.max_cq_depth for core in self.cores)

    def core_utilizations(self) -> np.ndarray:
        """Busy fraction per core over the elapsed simulated time."""
        return np.array([core.utilization_of for core in self.cores])
