"""Outbound one-sided operations: the soNUMA baseline the paper extends.

soNUMA's native primitives are one-sided remote reads and writes
(§3.1/§3.3): a core posts a WQE, the NI unrolls the request into
cache-block packets, the remote NI services them against its memory
hierarchy *without involving a remote CPU*, and the local NI posts a
CQE on completion. RPCValet's messaging is layered on top; this module
models the baseline itself so client-side code (examples, the
rendezvous fetch, latency studies) can issue reads/writes with faithful
round-trip costs.

Latency model for an op of P payload packets:

    wqe_issue (core-side cost, charged by the caller)
  + local backend pipeline (fixed + P·per_packet for writes, header for reads)
  + wire (one way)
  + remote NI pipeline (fixed + P·per_packet) + memory access
  + wire (back)
  + local backend pipeline for the response payload (reads)
  + CQE write at the core's frontend

With the default ChipConfig this lands a 64B remote read at ≈300ns —
the sub-µs remote access soNUMA reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .chip import Chip

__all__ = ["OneSidedEngine", "OneSidedCompletion"]


class OneSidedCompletion:
    """Result of a completed one-sided operation."""

    __slots__ = ("op", "size_bytes", "issued_at", "completed_at")

    def __init__(self, op: str, size_bytes: int, issued_at: float, completed_at: float) -> None:
        self.op = op
        self.size_bytes = size_bytes
        self.issued_at = issued_at
        self.completed_at = completed_at

    @property
    def latency_ns(self) -> float:
        return self.completed_at - self.issued_at

    def __repr__(self) -> str:
        return f"<OneSidedCompletion {self.op} {self.size_bytes}B {self.latency_ns:.1f}ns>"


class OneSidedEngine:
    """Issues one-sided reads/writes from a chip to remote memory."""

    #: Remote-end memory access folded into the round trip; one DRAM
    #: access regardless of payload (the NI pipelines the block reads).
    _HEADER_PACKETS = 1

    def __init__(self, chip: "Chip") -> None:
        self.chip = chip
        self.reads_issued = 0
        self.writes_issued = 0

    def _pipeline_ns(self, packets: int) -> float:
        config = self.chip.config
        return config.backend_fixed_ns + packets * config.backend_per_packet_ns

    def round_trip_ns(self, op: str, size_bytes: int, core_id: int) -> float:
        """Deterministic round-trip latency for an op (excl. WQE issue)."""
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        config = self.chip.config
        payload_packets = config.packets_for(size_bytes)
        request_packets = (
            self._HEADER_PACKETS if op == "read" else payload_packets
        )
        response_packets = (
            payload_packets if op == "read" else self._HEADER_PACKETS
        )
        backend_id = self.chip._nearest_backend(core_id)
        frontend_to_backend = self.chip.mesh.core_to_backend_ns(
            core_id, backend_id
        )
        return (
            frontend_to_backend
            + self._pipeline_ns(request_packets)  # local egress
            + config.wire_latency_ns
            # The remote NI moves the full payload regardless of
            # direction: it either absorbs the write's packets or
            # streams the read's response blocks out of memory.
            + self._pipeline_ns(payload_packets)  # remote pipeline
            + config.memory_latency_ns  # remote memory access
            + config.wire_latency_ns
            + self._pipeline_ns(response_packets)  # local ingress
            + frontend_to_backend
            + config.cqe_write_ns
        )

    def issue(
        self,
        op: str,
        size_bytes: int,
        core_id: int = 0,
        on_complete: Optional[Callable[[OneSidedCompletion], None]] = None,
    ) -> None:
        """Issue an op; ``on_complete(completion)`` runs when it completes.

        The local backend is *occupied* for the packet-handling parts
        (so heavy one-sided traffic competes with messaging ingress, as
        on the real NI); wire and remote time are pure latency.
        """
        config = self.chip.config
        payload_packets = config.packets_for(size_bytes)
        if op == "read":
            self.reads_issued += 1
            local_packets = payload_packets  # response payload lands here
        elif op == "write":
            self.writes_issued += 1
            local_packets = payload_packets  # request payload leaves here
        else:
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")

        total_ns = self.round_trip_ns(op, size_bytes, core_id)
        backend = self.chip.backends[self.chip._nearest_backend(core_id)]
        # The backend charge runs from a zero-delay hop, after the calls
        # already due now.
        self.chip.env.schedule_call(
            0.0, self._start, op, size_bytes, backend, local_packets,
            total_ns, on_complete,
        )

    def _start(
        self,
        op: str,
        size_bytes: int,
        backend,
        local_packets: int,
        total_ns: float,
        on_complete,
    ) -> None:
        # Charge the local backend for the payload's packets, then let
        # the rest of the round trip elapse as pure latency.
        env = self.chip.env
        backend.occupy_pipeline(local_packets)
        env.schedule_call(
            total_ns, self._complete, op, size_bytes, env.now, on_complete
        )

    def _complete(
        self, op: str, size_bytes: int, issued_at: float, on_complete
    ) -> None:
        if on_complete is not None:
            on_complete(
                OneSidedCompletion(op, size_bytes, issued_at, self.chip.env.now)
            )
