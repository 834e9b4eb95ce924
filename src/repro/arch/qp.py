"""Queue pairs: the VIA-style CPU↔NI interface (§3.1).

Each core owns one QP: a Work Queue the core writes WQEs into and a
Completion Queue the NI writes CQEs into. In the simulator the CQ is
the core's private request inbox (the object the paper's step 8 writes
into), a plain deque of CQEs waiting behind the one in service. The
WQ, a plain deque of posted WQEs, exists for API completeness — the
microbenchmark folds WQE-write costs into its per-request issue costs,
so nothing in the simulator drains it.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["QueuePair", "WorkQueueEntry", "CompletionQueueEntry"]


class WorkQueueEntry:
    """A WQE: one command the core posts to the NI."""

    __slots__ = ("op", "payload")

    def __init__(self, op: str, payload: Any = None) -> None:
        if op not in ("send", "replenish", "read", "write"):
            raise ValueError(f"unknown WQ operation {op!r}")
        self.op = op
        self.payload = payload

    def __repr__(self) -> str:
        return f"<WQE {self.op}>"


class CompletionQueueEntry:
    """A CQE: one notification the NI writes for the core."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload: Any = None) -> None:
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"<CQE {self.kind}>"


class QueuePair:
    """One core's private WQ/CQ pair.

    The CQ is unbounded: under the paper's 16×1 configuration all
    queueing happens here, and under RPCValet the dispatcher's
    outstanding-limit (not the CQ capacity) bounds its depth — which
    tests assert. A CQE posted to an idle core starts it at once.
    """

    __slots__ = ("core_id", "wq", "cq", "core", "max_cq_depth", "depth_hist")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.wq: deque = deque()
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

    def post_wqe(self, item: Any) -> None:
        """Core-side: enqueue a work request for the NI."""
        self.wq.append(item)
