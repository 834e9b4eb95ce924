"""Nonstationary arrivals: bursts and diurnal load swings.

The paper's Poisson arrivals are stationary; real RPC traffic has
flash bursts (fan-out storms) and slow rate swings. This module keeps
the queueing-level square-wave burst shape and re-exports the **nonhomogeneous Poisson** thinner from
:mod:`repro.popload.arrivals` — the population-driven workload
subsystem now owns the single implementation, and this import path
stays for existing consumers (bit-identical streams). Two regimes
(both verified in the tests): bursts that stay below system capacity
are absorbed by the single queue but transiently overload 16×1's
unlucky queues — the relative gap *widens*; bursts far past capacity
build the same backlog in both systems and the relative gap compresses
(while absolute tails explode).
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..popload.arrivals import nonhomogeneous_poisson

__all__ = [
    "nonhomogeneous_poisson",
    "square_wave_rate",
]


def square_wave_rate(
    base_rate: float, burst_rate: float, period: float, burst_fraction: float
) -> Tuple[Callable[[float], float], float]:
    """Flash-burst profile: ``burst_rate`` for the first
    ``burst_fraction`` of each period, ``base_rate`` otherwise.

    Returns ``(rate_fn, rate_max)`` ready for
    :func:`nonhomogeneous_poisson`.
    """
    if base_rate < 0 or burst_rate < base_rate:
        raise ValueError("need 0 <= base_rate <= burst_rate")
    if period <= 0 or not 0 < burst_fraction < 1:
        raise ValueError("period must be positive and burst_fraction in (0,1)")

    def rate_fn(t: float) -> float:
        phase = (t % period) / period
        return burst_rate if phase < burst_fraction else base_rate

    return rate_fn, burst_rate

