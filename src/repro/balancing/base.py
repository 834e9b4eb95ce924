"""Dispatcher core: the NI Dispatch pipeline stage (§4.3/§4.4).

A :class:`Dispatcher` owns a shared completion queue (the "shared CQ")
over a group of cores, tracks each core's outstanding-request count,
and assigns the queue's head entry to an available core. The three
configurations the paper evaluates are all instances:

* 1×16 — one dispatcher over all cores, threshold 2 (RPCValet);
* 4×4  — four dispatchers, one per backend/row, threshold 2;
* 16×1 — one "dispatcher" per core with no threshold (push-on-arrival),
  i.e. RSS-style partitioned dataplanes.

Schemes (:mod:`repro.balancing.hardware`, ``.software``) build the
dispatchers and define the latency/serialization model of dispatch.
"""

from __future__ import annotations

import abc
import numbers
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

import numpy as np

from .policies import SelectionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..arch.chip import Chip
    from ..arch.packets import SendMessage

__all__ = ["Dispatcher", "BalancingScheme"]


def check_outstanding_limit(limit: Optional[int]) -> Optional[int]:
    """Return ``limit`` if it is None or an integer >= 1, else raise.

    A float or bool would be accepted by ``< limit`` comparisons and
    silently act as its ceiling (2.5 as 3, True as 1).
    """
    if limit is not None and not (
        isinstance(limit, numbers.Integral)
        and not isinstance(limit, bool)
        and limit >= 1
    ):
        raise ValueError(
            f"outstanding_limit must be an integer >= 1 or None, got {limit!r}"
        )
    return limit


class Dispatcher:
    """Balances one group of cores from a single FIFO (the shared CQ)."""

    def __init__(
        self,
        chip: "Chip",
        group_id: int,
        core_ids: List[int],
        outstanding_limit: Optional[int],
        policy: SelectionPolicy,
        home_backend_id: Optional[int],
        serialize_ns: float,
        rng: np.random.Generator,
    ) -> None:
        if not core_ids:
            raise ValueError("dispatcher needs at least one core")
        check_outstanding_limit(outstanding_limit)
        self.chip = chip
        self.group_id = group_id
        self.core_ids = list(core_ids)
        self.outstanding_limit = outstanding_limit
        self.policy = policy
        #: Backend hosting this dispatcher; None for the software queue
        #: (which lives in memory, not at a backend).
        self.home_backend_id = home_backend_id
        #: Serialized occupancy per dispatch decision. The hardware
        #: Dispatch stage uses the (tiny) pipeline cost; the software
        #: scheme uses the MCS hand-off + critical-section cost.
        self.serialize_ns = serialize_ns
        self._rng = rng
        self.shared_cq: Deque["SendMessage"] = deque()
        self.outstanding: Dict[int, int] = {core: 0 for core in self.core_ids}
        #: Time of each core's most recent dispatch (tie-break input).
        self.last_dispatch: Dict[int, float] = {core: 0.0 for core in self.core_ids}
        self._busy_until = 0.0
        #: Observability.
        self.dispatched = 0
        self.max_shared_cq_depth = 0
        #: Telemetry hooks, installed by
        #: :func:`repro.telemetry.instrument_chip` (None = disabled).
        self.cq_depth_hist = None
        self.decision_hist = None
        self.dispatch_counter = None
        # Route tables: the three delays below, evaluated once per
        # backend/core so the per-RPC path indexes a list instead of
        # calling through the mesh's checked lookups.
        config = chip.config
        self._forward_ns = [
            self.completion_forward_delay_ns(backend)
            for backend in range(config.num_backends)
        ]
        self._replenish_ns = [
            self.replenish_delay_ns(core) for core in range(config.num_cores)
        ]
        self._delivery_ns = [
            self.delivery_delay_ns(core) for core in range(config.num_cores)
        ]

    # -- latency model (tabulated into the route tables at construction) -------

    def completion_forward_delay_ns(self, backend_id: int) -> float:
        """Mesh latency: receiving backend → this dispatcher (§4.3)."""
        if self.home_backend_id is None:
            return 0.0
        return self.chip.mesh.backend_to_backend_ns(
            backend_id, self.home_backend_id
        )

    def replenish_delay_ns(self, core_id: int) -> float:
        """Mesh latency: core's frontend → this dispatcher."""
        if self.home_backend_id is None:
            return 0.0
        return self.chip.mesh.core_to_backend_ns(core_id, self.home_backend_id)

    def delivery_delay_ns(self, core_id: int) -> float:
        """Latency: dispatch decision → CQE visible in the core's CQ."""
        config = self.chip.config
        if self.home_backend_id is None:
            # Software: the core reads the queue entry out of the LLC.
            return config.llc_latency_ns
        return (
            self.chip.mesh.backend_to_core_ns(self.home_backend_id, core_id)
            + config.cqe_write_ns
        )

    # -- event entry points --------------------------------------------------------

    def on_message_ready(self, msg: "SendMessage") -> None:
        """A fully reassembled message's completion packet arrived.

        With a threshold (RPCValet mode), an arriving message may be
        dispatched immediately only to an *idle* core; if every core is
        already working, it waits in the shared CQ for a replenish —
        §4.3: the dispatcher "dispatches messages to cores in FIFO
        order as soon as it receives a replenish operation". Unbounded
        dispatchers (16×1 partitioning) push unconditionally.
        """
        self.shared_cq.append(msg)
        depth = len(self.shared_cq)
        if depth > self.max_shared_cq_depth:
            self.max_shared_cq_depth = depth
        hist = self.cq_depth_hist
        if hist is not None:
            hist.record(depth)
        self._drain(self.outstanding_limit is not None)

    def on_replenish(self, core_id: int, msg: "SendMessage") -> None:
        """A core finished a request previously dispatched by us.

        The replenishing core just dropped below the threshold: refill
        it from the shared CQ head (this is what keeps its prefetch
        slot full and the core bubble-free), then hand anything left
        to idle cores.
        """
        count = self.outstanding[core_id]
        if count <= 0:
            raise RuntimeError(
                f"replenish from core {core_id} with no outstanding requests"
            )
        count -= 1
        self.outstanding[core_id] = count
        limit = self.outstanding_limit
        shared_cq = self.shared_cq
        if shared_cq and (limit is None or count < limit):
            self._dispatch_to(shared_cq.popleft(), core_id)
        if shared_cq:
            self._drain(limit is not None)

    # -- the dispatch loop ------------------------------------------------------------

    def _drain(self, idle_only: bool) -> None:
        """Dispatch shared-CQ entries in FIFO order to eligible cores.

        ``idle_only`` restricts eligibility to cores with zero
        outstanding requests — committing a request behind an
        in-flight RPC of unknown remaining time is exactly the
        multi-queue mistake RPCValet exists to avoid, so prefetch
        slots fill only at replenish time (see :meth:`on_replenish`).
        """
        limit = 1 if idle_only else self.outstanding_limit
        shared_cq = self.shared_cq
        select = self.policy.select
        while shared_cq:
            core_id = select(
                self.core_ids,
                self.outstanding,
                limit,
                self._rng,
                self.last_dispatch,
            )
            if core_id is None:
                return
            self._dispatch_to(shared_cq.popleft(), core_id)

    def _dispatch_to(self, msg: "SendMessage", core_id: int) -> None:
        hist = self.decision_hist
        if hist is not None:
            # The chosen core's load *before* this dispatch: 0 = the
            # idle-core fast path, >0 = a prefetch-slot refill.
            hist.record(self.outstanding[core_id])
            self.dispatch_counter.inc()
        self.outstanding[core_id] += 1
        self.last_dispatch[core_id] = self.chip.env.now
        self.dispatched += 1
        self._deliver(msg, core_id)

    def _deliver(self, msg: "SendMessage", core_id: int) -> None:
        """Schedule CQE delivery, honoring dispatch serialization."""
        chip = self.chip
        env = chip.env
        now = env.now
        start = self._busy_until if self._busy_until > now else now
        decision_done = start + self.serialize_ns
        self._busy_until = decision_done
        msg.t_dispatch = decision_done
        delay = (decision_done - now) + self._delivery_ns[core_id]
        frontend = chip.frontends[core_id]
        if delay > 0:
            env.schedule_call(delay, frontend.deliver, msg)
        else:
            frontend.deliver(msg)


class BalancingScheme(abc.ABC):
    """Factory installing dispatchers onto a chip."""

    label: str = "scheme"

    @abc.abstractmethod
    def install(self, chip: "Chip", rng: np.random.Generator) -> None:
        """Create dispatchers and register them with the chip."""
