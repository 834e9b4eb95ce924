"""Queue pairs: the VIA-style CPU↔NI interface (§3.1).

Each core owns one QP. In the paper it pairs a Work Queue the core
writes WQEs into with a Completion Queue the NI writes CQEs into. The
microbenchmark folds WQE-write costs into its per-request issue costs,
so the simulator models only the CQ: the core's private request inbox
(the object the paper's step 8 writes into), a plain deque of requests
waiting behind the one in service.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["QueuePair"]


class QueuePair:
    """One core's private completion queue.

    The CQ is unbounded: under the paper's 16×1 configuration all
    queueing happens here, and under RPCValet the dispatcher's
    outstanding-limit (not the CQ capacity) bounds its depth — which
    tests assert. A CQE posted to an idle core starts it at once.
    """

    __slots__ = ("core_id", "cq", "core", "max_cq_depth", "depth_hist")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.cq: deque = deque()
        #: The :class:`repro.arch.cpu.Core` polling this CQ, if any.
        self.core = None
        #: High-water mark of CQ depth, for the single-queue invariant.
        self.max_cq_depth = 0
        #: Telemetry: CQ-depth histogram, installed by
        #: :func:`repro.telemetry.instrument_chip` (None = disabled).
        self.depth_hist = None

    def post_cqe(self, item: Any) -> None:
        """NI-side: write a completion entry into the core's CQ."""
        core = self.core
        if core is not None and not core.busy:
            core.start(item)
        else:
            self.cq.append(item)
        depth = len(self.cq)
        if depth > self.max_cq_depth:
            self.max_cq_depth = depth
        hist = self.depth_hist
        if hist is not None:
            hist.record(depth)
