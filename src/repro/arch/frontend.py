"""NI frontends: the per-core "control" half of the Manycore NI (§4.1).

A frontend is collocated with its core's tile. It receives dispatch
decisions from an NI backend over the mesh and writes the CQE into the
core's private CQ (the Request Completion pipeline); in the opposite
direction it propagates the core's ``replenish`` back to the backend
that dispatched the request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .packets import SendMessage
from .qp import QueuePair

if TYPE_CHECKING:  # pragma: no cover
    from .chip import Chip

__all__ = ["NIFrontend"]


class NIFrontend:
    """The NI frontend paired with one core."""

    def __init__(self, chip: "Chip", core_id: int, qp: QueuePair) -> None:
        self.chip = chip
        self.core_id = core_id
        self.qp = qp
        #: Number of CQEs this frontend wrote (observability).
        self.cqes_written = 0

    def deliver(self, msg: SendMessage) -> None:
        """Write the dispatched message's CQE into the core's CQ.

        Called (after the mesh + CQE-write latency has elapsed) by the
        dispatcher; see ``Dispatcher._dispatch_to``.
        """
        self.cqes_written += 1
        msg.t_cqe = self.chip.env.now
        self.qp.post_cqe(msg)

    def propagate_replenish(self, msg: SendMessage) -> None:
        """Forward the core's replenish to the dispatching backend (§4.4).

        "The core signals its availability by enqueuing a replenish
        operation in its WQ, which is propagated by the core's NI
        frontend to the NI backend that originally dispatched the
        request."
        """
        chip = self.chip
        core_id = self.core_id
        dispatcher = chip.dispatchers[msg.group_id]
        delay = dispatcher._replenish_ns[core_id]
        if delay > 0:
            chip.env.schedule_call(delay, dispatcher.on_replenish, core_id, msg)
        else:
            dispatcher.on_replenish(core_id, msg)
