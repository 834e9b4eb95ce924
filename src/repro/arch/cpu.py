"""CPU cores running the RPC-handling loop (§5, "Microbenchmark").

Each core executes the paper's per-RPC loop: spin on the private CQ,
process the request (the emulated service time), send the reply, and
post the replenish. A :class:`CoreProgram` supplies the cost
decomposition so different applications (the microbenchmark, the
execution-driven KV store in :mod:`repro.store`) can run on the same
core model.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

from .packets import SendMessage
from .qp import QueuePair

if TYPE_CHECKING:  # pragma: no cover
    from .chip import Chip

__all__ = ["Core", "CoreProgram"]


class CoreProgram(abc.ABC):
    """Cost decomposition of one RPC on a core.

    Total core occupancy per request is
    ``pre_ns + msg.service_ns + post_ns``:

    * ``pre_ns`` — from CQE visibility to the start of the RPC proper
      (poll-loop detection + reading the request from the receive slot);
    * ``msg.service_ns`` — the RPC's processing time (workload-defined);
    * ``post_ns`` — reply ``send`` issue + ``replenish`` issue.
    """

    @abc.abstractmethod
    def pre_ns(self, msg: SendMessage) -> float:
        """Cost before the RPC's own processing starts."""

    @abc.abstractmethod
    def post_ns(self, msg: SendMessage) -> float:
        """Cost after processing, through posting the replenish."""

    def reply_size_bytes(self, msg: SendMessage) -> int:
        """Size of the RPC reply payload (paper microbenchmark: 512B)."""
        return 512

    def fixed_costs(self) -> Optional[Tuple[float, float, int]]:
        """``(pre_ns, post_ns, reply_size_bytes)`` if no message changes
        them, else None.

        The core and the chip read a program's fixed costs once instead
        of calling the three methods on every request. The default,
        None, keeps the per-message calls.
        """
        return None


class Core:
    """One CPU core spinning on its private CQ (a callback-driven server)."""

    def __init__(self, chip: "Chip", core_id: int, program: CoreProgram) -> None:
        self.chip = chip
        self.core_id = core_id
        self.program = program
        #: The program's (pre, post, reply size), or None to call its
        #: per-message methods (see :meth:`CoreProgram.fixed_costs`).
        self._fixed_costs = program.fixed_costs()
        self.qp = QueuePair(core_id)
        self.qp.core = self
        #: True from a request's pickup until the core pulls its next CQE.
        self.busy = False
        #: Observability: requests processed.
        self.processed = 0

    def start(self, msg: SendMessage) -> None:
        """Pick up ``msg`` from the CQ and run it to its replenish."""
        self.busy = True
        chip = self.chip
        env = chip.env
        fixed = self._fixed_costs
        if fixed is None:
            pre_ns = self.program.pre_ns(msg)
            post_ns = self.program.post_ns(msg)
        else:
            pre_ns, post_ns, _reply = fixed
        pre = pre_ns + msg.extra_pre_ns
        if chip.interference is not None:
            # §3.2 tail-inducing events: stall before the RPC runs.
            pre += chip.interference.pause_ns(
                self.core_id, env.now, chip._interference_rng
            )
        post = post_ns + chip.per_request_core_overhead_ns
        msg.t_start = env.now + pre
        occupancy = pre + msg.service_ns + post
        env.schedule_call(occupancy, self._finish, msg)

    def _finish(self, msg: SendMessage) -> None:
        msg.t_replenish = self.chip.env.now
        msg.core_id = self.core_id
        self.processed += 1
        self.chip.complete_request(msg, self)
        cq = self.qp.cq
        if cq:
            self.start(cq.popleft())
        else:
            self.busy = False
