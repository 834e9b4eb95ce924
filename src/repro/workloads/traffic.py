"""The remote-cluster traffic generator (§5, "System organization").

"The modeled chip is part of a 200-node cluster, with remote nodes
emulated by a traffic generator which creates synthetic send requests
following Poisson arrival rates, from randomly selected nodes of the
cluster."

The generator enforces the messaging domain's sender-side flow control.
Two provisioning policies are supported:

* ``static`` (the paper's §4.2 design): each remote node owns S send
  slots toward the modeled chip; a node with no free slot holds its
  request until a replenish returns. Footprint: N×S receive slots.
* ``dynamic`` (the paper's §4.2 future-work extension): all senders
  share one pool of ``pool_size`` slots handed out on demand — the
  same in-flight capacity at a fraction of the memory.

Stalls are counted in both modes — they only occur past saturation (or
with deliberately tiny provisioning).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..arch.buffers import DynamicSlotAllocator
from ..arch.chip import Chip
from ..arch.packets import SendMessage
from ..popload.arrivals import ArrivalProcess, StationaryPoisson
from ..popload.skew import zipf_weights
from ..sim import RngRegistry
from .base import RpcWorkload

__all__ = ["TrafficGenerator", "ClosedLoopClients"]

#: A queued request waiting for a free send slot.
_Pending = Tuple[int, int, float, str]  # (msg_id, src, service_ns, label)


class ClosedLoopClients:
    """Closed-loop request generation: N clients, one outstanding each.

    The paper's evaluation is open-loop (Poisson arrivals regardless of
    completions). Many real benchmarking setups are *closed*: each
    client issues its next request only after receiving the previous
    reply (plus think time). Closed loops cannot overload the server —
    they self-throttle — so tails look very different near capacity;
    this class lets users study both regimes.

    Latency accounting is the same server-side window (§5); the client
    think/round-trip time only shapes the arrival process.
    """

    def __init__(
        self,
        chip: Chip,
        workload: RpcWorkload,
        num_clients: int,
        requests_per_client: int,
        rngs: RngRegistry,
        think_time_ns: float = 0.0,
    ) -> None:
        if num_clients <= 0:
            raise ValueError(f"num_clients must be positive, got {num_clients!r}")
        if requests_per_client <= 0:
            raise ValueError(
                f"requests_per_client must be positive, got {requests_per_client!r}"
            )
        if not 0 <= think_time_ns < math.inf:
            raise ValueError(
                f"think_time_ns must be finite and non-negative, got {think_time_ns!r}"
            )
        slots = chip.config.send_slots_per_node
        nodes = chip.config.num_remote_nodes
        if num_clients > nodes * slots:
            raise ValueError(
                f"{num_clients} clients exceed the domain's {nodes * slots} send slots"
            )
        self.chip = chip
        self.workload = workload
        self.num_clients = num_clients
        self.requests_per_client = requests_per_client
        self.think_time_ns = think_time_ns
        self._rngs = rngs
        self._service_rng = rngs.stream("service")
        self._think_rng = rngs.stream("think")
        self.generated = 0
        #: Open-loop compatibility: closed loops never stall.
        self.stalled = 0
        self._remaining = {}
        self._next_msg_id = 0
        chip.on_slot_replenished = self._reply_received
        # Client i owns slot (i % slots) at node (i // slots): disjoint
        # (node, slot) pairs, so flow control can never interleave two
        # clients on one slot.
        for client in range(num_clients):
            self._remaining[(client // slots, client % slots)] = (
                requests_per_client
            )
            self._issue(client // slots, client % slots)

    @property
    def stall_fraction(self) -> float:
        return 0.0

    def _issue(self, src: int, slot: int) -> None:
        service_ns, label = self.workload.sample(self._service_rng)
        msg = self.chip.make_send(
            msg_id=self._next_msg_id,
            src_node=src,
            slot=slot,
            size_bytes=self.workload.request_size_bytes,
            service_ns=service_ns,
            label=label,
        )
        self._next_msg_id += 1
        self.generated += 1
        self._remaining[(src, slot)] -= 1
        self.chip.submit_message(msg)

    def _reply_received(self, msg: SendMessage) -> None:
        key = (msg.src_node, msg.slot)
        if self._remaining[key] <= 0:
            return
        if self.think_time_ns > 0:
            delay = self._think_rng.exponential(self.think_time_ns)
            self.chip.env.schedule_call(delay, self._issue, msg.src_node, msg.slot)
        else:
            self._issue(msg.src_node, msg.slot)


class TrafficGenerator:
    """Open-loop Poisson RPC source over the remote cluster nodes."""

    def __init__(
        self,
        chip: Chip,
        workload: RpcWorkload,
        arrival_rate_rps: float,
        num_requests: int,
        rngs: RngRegistry,
        slot_policy: str = "static",
        pool_size: Optional[int] = None,
        source_skew: float = 0.0,
        arrival_process: Optional[ArrivalProcess] = None,
    ) -> None:
        if not 0 < arrival_rate_rps < math.inf:
            raise ValueError(
                f"arrival rate must be positive and finite, got {arrival_rate_rps!r}"
            )
        if num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {num_requests!r}")
        if slot_policy not in ("static", "dynamic"):
            raise ValueError(f"slot_policy must be 'static' or 'dynamic', got {slot_policy!r}")
        if source_skew < 0:
            raise ValueError(f"source_skew must be non-negative, got {source_skew!r}")
        if arrival_process is not None and not isinstance(
            arrival_process, ArrivalProcess
        ):
            raise TypeError(
                "arrival_process must be a repro.popload ArrivalProcess, "
                f"got {type(arrival_process).__name__}"
            )
        self.chip = chip
        self.workload = workload
        self.arrival_rate_rps = arrival_rate_rps
        self.num_requests = num_requests
        self.slot_policy = slot_policy
        #: Optional population-driven arrival stream (repro.popload).
        #: None keeps the paper's stationary Poisson at
        #: ``arrival_rate_rps``, byte-identical to the historical path;
        #: a StationaryPoisson at the same rate reproduces it exactly.
        self.arrival_process = arrival_process
        #: Zipf-like exponent over sender ranks: 0 = the paper's
        #: uniformly random sources; >0 makes low-ranked nodes send a
        #: disproportionate share (skewed flow rates, where static
        #: per-source RSS hashing concentrates load).
        self.source_skew = source_skew
        self._arrival_rng = rngs.stream("arrivals")
        self._source_rng = rngs.stream("sources")
        self._service_rng = rngs.stream("service")
        num_remote = chip.config.num_remote_nodes
        if source_skew > 0:
            self._source_probs = zipf_weights(num_remote, source_skew)
        else:
            self._source_probs = None

        config = chip.config
        if slot_policy == "static":
            slots = config.send_slots_per_node
            #: Free send-slot indices per remote node.
            self._free_slots: List[List[int]] = [
                list(range(slots)) for _ in range(config.num_remote_nodes)
            ]
            #: Requests waiting for a slot at their source node.
            self._pending: Dict[int, Deque[_Pending]] = {}
            self.pool = None
        else:
            if pool_size is None:
                pool_size = config.send_slots_per_node * 4
            total_slots = chip.domain.total_slots
            if pool_size > total_slots:
                raise ValueError(
                    f"pool_size {pool_size} exceeds the receive buffer's "
                    f"{total_slots} slots"
                )
            self.pool = DynamicSlotAllocator(pool_size, config.max_msg_bytes)
            self._pool_pending: Deque[_Pending] = deque()

        #: Number of arrivals that found no free slot.
        self.stalled = 0
        self.generated = 0

        chip.on_slot_replenished = self._on_slot_replenished

        # Pre-draw every request in one vectorized call per stream
        # instead of 3+ scalar Generator calls per request — the
        # arch-simulator hot path. Arrivals, sources, and services are
        # separate named streams, so batching each stream consumes its
        # bitstream exactly like the former per-request scalar draws.
        # Without an arrival process (repro.popload) the gaps are a
        # stationary Poisson at ``arrival_rate_rps``.
        # The batches are read through memoryviews: indexing one yields
        # a plain float or int, the value float()/int() of the numpy
        # scalar gave, without boxing a numpy scalar per request.
        n = num_requests
        process = arrival_process
        if process is None:
            process = StationaryPoisson(arrival_rate_rps)
        gaps = process.sample_gaps(self._arrival_rng, n)
        self._gaps = memoryview(np.ascontiguousarray(gaps, dtype=np.float64))
        if self._source_probs is not None:
            sources = self._source_rng.choice(
                num_remote, size=n, p=self._source_probs
            )
        else:
            sources = self._source_rng.integers(0, num_remote, size=n)
        self._sources = memoryview(np.ascontiguousarray(sources, dtype=np.int64))
        services, self._labels = workload.sample_batch(self._service_rng, n)
        self._services = memoryview(np.ascontiguousarray(services, dtype=np.float64))
        self._request_bytes = workload.request_size_bytes
        chip.env.schedule_call(self._gaps[0], self._arrive, 0)

    # -- arrival chain -------------------------------------------------------

    def _arrive(self, msg_id: int) -> None:
        """Request ``msg_id`` arrives; then schedule the next arrival."""
        src = self._sources[msg_id]
        service_ns = self._services[msg_id]
        label = self._labels[msg_id]
        self.generated += 1
        if self.slot_policy == "static":
            free = self._free_slots[src]
            if free:
                chip = self.chip
                chip.submit_message(
                    chip.make_send(
                        msg_id, src, free.pop(), self._request_bytes, service_ns, label
                    )
                )
            else:
                self.stalled += 1
                self._pending.setdefault(src, deque()).append(
                    (msg_id, src, service_ns, label)
                )
        else:
            index = self.pool.allocate()
            if index is not None:
                self._send_dynamic(msg_id, src, index, service_ns, label)
            else:
                self.stalled += 1
                self._pool_pending.append((msg_id, src, service_ns, label))
        msg_id += 1
        if msg_id < self.num_requests:
            self.chip.env.schedule_call(self._gaps[msg_id], self._arrive, msg_id)

    def _send_dynamic(
        self, msg_id: int, src: int, index: int, service_ns: float, label: str
    ) -> None:
        # Slot 0: the slot field is unused under pooled provisioning.
        msg = self.chip.make_send(
            msg_id, src, 0, self._request_bytes, service_ns, label
        )
        msg.receive_slot = index
        self.chip.submit_message(msg)

    # -- flow control ----------------------------------------------------------

    def _on_slot_replenished(self, msg: SendMessage) -> None:
        """A replenish arrived back at the source: reuse or free the slot."""
        if self.slot_policy == "static":
            pending = self._pending.get(msg.src_node)
            if pending:
                msg_id, src, service_ns, label = pending.popleft()
                chip = self.chip
                chip.submit_message(
                    chip.make_send(
                        msg_id, src, msg.slot, self._request_bytes, service_ns, label
                    )
                )
            else:
                self._free_slots[msg.src_node].append(msg.slot)
        else:
            if self._pool_pending:
                msg_id, src, service_ns, label = self._pool_pending.popleft()
                self._send_dynamic(
                    msg_id, src, msg.receive_slot, service_ns, label
                )
            else:
                self.pool.release(msg.receive_slot)

    @property
    def stall_fraction(self) -> float:
        """Fraction of arrivals that hit sender-side flow control."""
        if self.generated == 0:
            return 0.0
        return self.stalled / self.generated

    def offered_rate_rps(self, t_ns: Optional[float] = None) -> float:
        """Intended offered rate at ``t_ns`` (defaults to sim-now).

        The telemetry offered-rate track samples this: profile-backed
        arrival processes report λ(t); the legacy stationary path
        reports the constant ``arrival_rate_rps``.
        """
        if self.arrival_process is None:
            return self.arrival_rate_rps
        if t_ns is None:
            t_ns = self.chip.env.now
        return self.arrival_process.rate_at(t_ns)
