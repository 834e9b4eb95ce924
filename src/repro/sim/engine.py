"""The simulation environment: clock, call heap, and run loop.

The :class:`Environment` is the single shared object threaded through
every model in this repository. Time is a ``float`` whose unit is by
convention **nanoseconds** in the architectural simulator
(:mod:`repro.arch`) and **multiples of the mean service time** in the
theoretical queueing models (:mod:`repro.queueing`); the kernel itself
is unit-agnostic.

The kernel is callback-only: the schedule is a heap of
``(time, seq, fn, args)`` tuples, and processing an entry sets the
clock and calls ``fn(*args)``. ``seq`` is a per-environment counter, so
calls due at the same time fire in the order they were scheduled.
Anything that must happen later — a mesh hop, a service completion, a
periodic heartbeat — is a callback that schedules its successor.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Environment"]


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.
    """

    __slots__ = ("now", "_queue", "_eid", "_next_eid", "_sampler", "_booked")

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time. A plain attribute that only the run
        #: loop writes — read-only by convention. Models read it on
        #: every stage, so a property's call would cost on every read.
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, Callable[..., Any], tuple]] = []
        #: Sequence numbers of scheduled calls; ``repr`` reads the next
        #: one without consuming it, so it doubles as the event count.
        self._eid = count()
        #: Bound ``__next__`` of the counter — every scheduled call pays
        #: this call, so skip the iterator-protocol dispatch.
        self._next_eid = self._eid.__next__
        self._sampler = None
        self._booked: List[Any] = []

    # -- telemetry ------------------------------------------------------------

    def attach_sampler(self, sampler) -> None:
        """Attach a periodic telemetry sampler (or ``None`` to detach).

        ``sampler`` follows the :class:`repro.telemetry.PeriodicSampler`
        protocol: a ``next_at`` attribute and an ``advance(now)`` method
        that samples every due tick ``<= now``. The run loop consults it
        before processing each call, so sampling happens at simulated
        times and stops naturally when the schedule drains. With no
        sampler attached, :meth:`run` takes its plain hot loop — the
        disabled path costs nothing per event.
        """
        self._sampler = sampler

    # -- scheduling -------------------------------------------------------------

    def schedule_call(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Invoke ``fn(*args)`` after ``delay`` time units.

        The call cannot be observed or cancelled; a callee that must
        not act any more checks its own state when it fires. A NaN or
        negative ``delay`` raises :class:`ValueError`.
        """
        # ``not >=`` rather than ``<``: it also rejects NaN, which would
        # otherwise sort before every finite time and fire first.
        if not delay >= 0:
            raise ValueError(f"delay must be a number >= 0, got {delay!r}")
        heappush(self._queue, (self.now + delay, self._next_eid(), fn, args))

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Invoke ``fn(*args)`` at time ``when``, which ``now + (when - now)``
        need not round back to. A NaN or past ``when`` raises ValueError."""
        if not when >= self.now:
            raise ValueError(f"when must be a time not before now ({self.now}), got {when!r}")
        heappush(self._queue, (when, self._next_eid(), fn, args))

    def add_booked_server(self, server: Any) -> None:
        """Register a server that books its occupancy up to
        ``server.free_at`` instead of scheduling it (see :meth:`run`)."""
        self._booked.append(server)

    def peek(self) -> float:
        """Time of the next scheduled call, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        ``until`` may be ``None`` — run until the schedule is exhausted —
        or a time: process every call due at or before it, then leave
        the clock there if calls remain. An exhausted schedule leaves
        the clock at the last call or, if later, where the booked
        servers' work ends (at most ``until``), sampling the ticks up to
        it as a call there would. An exception raised by a call
        propagates out of :meth:`run`; the schedule keeps the calls not
        yet processed.
        """
        queue = self._queue
        pop = heappop
        sampler = self._sampler
        stop_at = float("inf") if until is None else float(until)
        if not stop_at >= self.now:
            raise ValueError(
                f"until ({stop_at}) must be a time not before now ({self.now})"
            )
        if until is None and sampler is None:
            # Drain the schedule with no stop or sampler check per call
            # — the arch simulator's only mode and the hottest loop here.
            while queue:
                when, _seq, fn, args = pop(queue)
                self.now = when
                fn(*args)
        while queue:
            if queue[0][0] > stop_at:
                self.now = stop_at
                return
            when, _seq, fn, args = pop(queue)
            if sampler is not None and when >= sampler.next_at:
                sampler.advance(when)
            self.now = when
            fn(*args)
        if self._booked:
            end = min(max(server.free_at for server in self._booked), stop_at)
            if end > self.now:
                if sampler is not None and end >= sampler.next_at:
                    sampler.advance(end)
                self.now = end
