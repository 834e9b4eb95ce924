"""NI backends: the replicated "data" half of the Manycore NI (§4.1).

Each backend independently receives network packets, writes payloads
into receive-buffer slots, and runs the extended Remote Request
Processing pipeline (§4.4): per-packet counter fetch-and-increment,
message-completion check, and — once a ``send`` is fully received —
forwarding a *message completion packet* to the NI dispatcher over the
mesh.

The pipeline is modeled as a serialized FIFO server: a work item of P
packets occupies the backend for ``backend_fixed_ns +
P·backend_per_packet_ns``. Outgoing replies and plain one-sided writes
occupy the same pipeline, so heavy egress traffic can (realistically)
delay ingress handling. An item's timing is fixed when it enters, so
the backend books it against ``free_at`` instead of scheduling its
finish; only a reassembled message schedules a call, the completion
packet's arrival at its dispatcher.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .packets import OneSidedWrite, SendMessage

if TYPE_CHECKING:  # pragma: no cover
    from .chip import Chip

__all__ = ["NIBackend"]


class NIBackend:
    """One NI backend at the mesh edge."""

    def __init__(self, chip: "Chip", backend_id: int) -> None:
        self.chip = chip
        self.backend_id = backend_id
        self._env = chip.env
        #: When the last booked item leaves the pipeline.
        self.free_at = chip.env.now
        chip.env.add_booked_server(self)
        #: Pipeline occupancy per item: fixed + packets × per-packet.
        self._fixed_ns = chip.config.backend_fixed_ns
        self._per_packet_ns = chip.config.backend_per_packet_ns
        #: Observability counters, counted when an item is booked.
        self.messages_reassembled = 0
        self.replies_sent = 0
        self.onesided_handled = 0
        self.busy_ns = 0.0
        #: Telemetry: pipeline-depth histogram, installed by
        #: :func:`repro.telemetry.instrument_chip` (None = disabled).
        self.depth_hist = None
        #: Booked start times (sorted), kept only while ``depth_hist``
        #: is installed; started ones are dropped as the depth is read.
        self._starts: deque = deque()

    # -- ingress/egress entry points ------------------------------------------

    def receive_message(self, msg: SendMessage) -> None:
        """A ``send`` message starts arriving from the network: book its
        reassembly and send its completion packet to its dispatcher."""
        done = self.occupy_pipeline(msg.num_packets)
        chip = self.chip
        slot = chip.receive_buffer.slots[msg.receive_slot]
        if not slot.packets_arrived(msg.num_packets):  # pragma: no cover
            raise RuntimeError("packet counter disagrees with message length")
        self.messages_reassembled += 1
        msg.t_reassembled = done
        dispatcher = chip.dispatchers[msg.group_id]
        forward = dispatcher._forward_ns[self.backend_id]
        self._env.schedule_at(done + forward, dispatcher.on_message_ready, msg)
        hist = self.depth_hist
        if hist is not None:
            # Items waiting behind the one in service: those starting later.
            starts = self._starts
            while starts and starts[0] <= self._env.now:
                starts.popleft()
            hist.record(len(starts))

    def send_reply(self, num_packets: int) -> None:
        """A core's reply ``send`` leaves through this backend."""
        self.occupy_pipeline(num_packets)
        self.replies_sent += 1

    def receive_onesided(self, op: OneSidedWrite) -> None:
        """A plain one-sided write: memory traffic only, no dispatch."""
        self.occupy_pipeline(op.num_packets)
        self.onesided_handled += 1

    def occupy_pipeline(self, num_packets: int) -> float:
        """Book ``num_packets`` of pipeline work (also generic data
        movement: one-sided payloads); returns when it leaves."""
        start = self.free_at
        now = self._env.now
        if start < now:
            start = now
        busy = self._fixed_ns + num_packets * self._per_packet_ns
        self.busy_ns += busy
        done = self.free_at = start + busy
        if self.depth_hist is not None:
            self._starts.append(start)
        return done

    def queue_depth(self, at: float) -> int:
        """Items waiting just before time ``at`` (booked to start at or
        after it). Instrumented chips only; ``at`` must not decrease."""
        starts = self._starts
        while starts and starts[0] < at:
            starts.popleft()
        return len(starts)
