"""Discrete-event simulation kernel.

A small callback-only DES kernel: an :class:`Environment` holds the
clock and a heap of ``(time, seq, fn, args)`` calls, and
:meth:`Environment.schedule_call` is the one way to make something
happen later. All higher layers (the queueing oracle, the soNUMA
architectural simulator, the cluster, workloads) are chains of such
calls. :class:`RngRegistry` hands out the named random streams every
stochastic component draws from.
"""

from .engine import Environment
from .rng import RngRegistry

__all__ = ["Environment", "RngRegistry"]
