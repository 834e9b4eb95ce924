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
delay ingress handling. The server is callback-driven: an item that
finds the backend idle schedules its own completion; a completion does
its accounting and then starts the next waiting item.
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
        #: (kind, item, packets) work items waiting behind the one in service.
        self._waiting: deque = deque()
        self._busy = False
        #: Pipeline occupancy per item: fixed + packets × per-packet.
        self._fixed_ns = chip.config.backend_fixed_ns
        self._per_packet_ns = chip.config.backend_per_packet_ns
        #: Observability counters.
        self.messages_reassembled = 0
        self.replies_sent = 0
        self.onesided_handled = 0
        self.busy_ns = 0.0
        #: Telemetry: pipeline-depth histogram, installed by
        #: :func:`repro.telemetry.instrument_chip` (None = disabled).
        self.depth_hist = None

    # -- ingress/egress entry points ------------------------------------------

    def receive_message(self, msg: SendMessage) -> None:
        """A ``send`` message starts arriving from the network."""
        self._submit("ingress", msg, msg.num_packets)
        hist = self.depth_hist
        if hist is not None:
            hist.record(len(self._waiting))

    def send_reply(self, num_packets: int) -> None:
        """A core's reply ``send`` leaves through this backend."""
        self._submit("egress", None, num_packets)

    def occupy_pipeline(self, num_packets: int) -> None:
        """Charge generic data movement (one-sided payloads) to the
        pipeline without counting it as a reply."""
        self._submit("data", None, num_packets)

    def receive_onesided(self, op: OneSidedWrite) -> None:
        """A plain one-sided write: memory traffic only, no dispatch."""
        self._submit("onesided", op, op.num_packets)

    @property
    def queue_depth(self) -> int:
        """Work items waiting at this backend's pipeline."""
        return len(self._waiting)

    # -- the pipeline ------------------------------------------------------------

    def _submit(self, kind: str, item, num_packets: int) -> None:
        if self._busy:
            self._waiting.append((kind, item, num_packets))
            return
        self._busy = True
        busy = self._fixed_ns + num_packets * self._per_packet_ns
        self.chip.env.schedule_call(busy, self._finish, kind, item, busy)

    def _finish(self, kind: str, item, busy: float) -> None:
        self.busy_ns += busy
        if kind == "ingress":
            # All packets of the message are written: drive the
            # receive-slot counter to completion (the whole message's
            # fetch-and-increments in one call), then forward the
            # completion packet to the message's dispatcher.
            msg = item
            chip = self.chip
            slot = chip.receive_buffer.slots[msg.receive_slot]
            if not slot.packets_arrived(msg.num_packets):  # pragma: no cover
                raise RuntimeError("packet counter disagrees with message length")
            self.messages_reassembled += 1
            env = chip.env
            msg.t_reassembled = env.now
            dispatcher = chip.dispatchers[msg.group_id]
            delay = dispatcher._forward_ns[self.backend_id]
            if delay > 0:
                env.schedule_call(delay, dispatcher.on_message_ready, msg)
            else:
                dispatcher.on_message_ready(msg)
        elif kind == "egress":
            self.replies_sent += 1
        elif kind == "onesided":
            self.onesided_handled += 1
        self._busy = False
        if self._waiting:
            self._submit(*self._waiting.popleft())
