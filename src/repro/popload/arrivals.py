"""Arrival processes: offered load as a *process*, not a constant.

The paper's §5 methodology drives the modeled chip with stationary
Poisson arrivals at a hand-picked rate. Real services see load that
*emerges* from a user population — diurnal swings, flash crowds,
correlated bursts. This module defines the :class:`ArrivalProcess`
protocol the traffic generators consume, plus the three concrete
processes the ``ext-diurnal`` experiment sweeps:

* :class:`StationaryPoisson` — the paper's process. Bit-identical to
  the legacy ``TrafficGenerator`` path: one vectorized
  ``rng.exponential(mean_gap, size=n)`` call, consuming the named
  ``"arrivals"`` stream exactly like the historical code.
* :class:`NonhomogeneousPoisson` — intensity follows a
  :class:`RateProfile` (diurnal sinusoid, flash-crowd trapezoid);
  generated by Lewis–Shedler thinning.
* :class:`PopulationProcess` — AsyncFlow-style population model:
  ``active_users(t) × per-user rate``, with the user count re-sampled
  once per window and optionally scaled by a diurnal/flash profile.

Every process draws from an explicitly passed
``numpy.random.Generator`` and consumes it deterministically, so runs
stay bit-identical at any worker count (see :mod:`repro.runner`).

All rates are in requests/second and all times in nanoseconds, the
simulator's units.
"""

from __future__ import annotations

import abc
import math
from typing import Callable

import numpy as np

__all__ = [
    "ArrivalProcess",
    "StationaryPoisson",
    "NonhomogeneousPoisson",
    "PopulationProcess",
    "RateProfile",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "nonhomogeneous_poisson",
]

#: Nanoseconds per second — rate (rps) × NS_PER_S⁻¹ = rate per ns.
_NS_PER_S = 1e9


# ---------------------------------------------------------------------------
# Rate profiles: deterministic intensity functions λ(t).
# ---------------------------------------------------------------------------


class RateProfile(abc.ABC):
    """A deterministic arrival intensity λ(t) in requests/second.

    Profiles answer three questions: the rate *now* (:meth:`rate`), the
    tightest constant bound (:attr:`rate_max`, needed by thinning), and
    the expected event count over a horizon (:meth:`integral`, used by
    the conservation tests and capacity bookkeeping).
    """

    name = "profile"

    @abc.abstractmethod
    def rate(self, t_ns: float) -> float:
        """Intensity at simulated time ``t_ns``, in requests/second."""

    def rate_array(self, t_ns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate` over an array of times.

        The thinning hot loop evaluates the intensity once per
        *candidate*, so scalar ``rate`` calls dominate generation; the
        concrete profiles override this with closed-form numpy
        expressions that are bit-identical to the scalar path (pinned
        by the tests). This fallback keeps third-party profiles
        working unchanged.
        """
        times = np.asarray(t_ns, dtype=float)
        return np.array([self.rate(float(when)) for when in times])

    @property
    @abc.abstractmethod
    def rate_max(self) -> float:
        """A constant upper bound on :meth:`rate` (thinning envelope)."""

    @abc.abstractmethod
    def integral(self, t_ns: float) -> float:
        """Expected arrivals on ``[0, t_ns)``: ∫λ(s)ds in events."""

    def mean_rate(self, horizon_ns: float) -> float:
        """Average intensity over ``[0, horizon_ns)`` in requests/second."""
        if horizon_ns <= 0:
            raise ValueError(f"horizon_ns must be positive, got {horizon_ns!r}")
        return self.integral(horizon_ns) / horizon_ns * _NS_PER_S

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} max={self.rate_max:.4g}rps>"


class ConstantRate(RateProfile):
    """The degenerate profile: λ(t) = rate.

    No driver builds one. It is the reference profile the tests hold
    the thinning path against: a shaped run at a constant intensity
    must match the stationary Poisson run at the same rate.
    """

    name = "constant"

    def __init__(self, rate_rps: float) -> None:
        if rate_rps <= 0:
            raise ValueError(
                f"constant rate must be positive, got {rate_rps!r} rps"
            )
        self.rate_rps = float(rate_rps)

    def rate(self, t_ns: float) -> float:
        return self.rate_rps

    def rate_array(self, t_ns: np.ndarray) -> np.ndarray:
        times = np.asarray(t_ns, dtype=float)
        return np.full(times.shape, self.rate_rps)

    @property
    def rate_max(self) -> float:
        return self.rate_rps

    def integral(self, t_ns: float) -> float:
        return self.rate_rps * t_ns / _NS_PER_S


class DiurnalRate(RateProfile):
    """Smooth day/night swing: ``mean × (1 + a·sin(2π(t/period + φ)))``.

    ``relative_amplitude`` ∈ [0, 1): the peak-to-mean ratio is ``1+a``
    and the trough never reaches zero. Over an integer number of
    periods the mean rate is exactly ``mean_rate_rps``.
    """

    name = "diurnal"

    def __init__(
        self,
        mean_rate_rps: float,
        relative_amplitude: float,
        period_ns: float,
        phase: float = 0.0,
    ) -> None:
        if mean_rate_rps <= 0:
            raise ValueError(
                f"mean rate must be positive, got {mean_rate_rps!r} rps"
            )
        if not 0.0 <= relative_amplitude < 1.0:
            raise ValueError(
                "relative_amplitude must be in [0, 1) so the rate stays "
                f"positive, got {relative_amplitude!r}"
            )
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns!r}")
        self.mean_rate_rps = float(mean_rate_rps)
        self.relative_amplitude = float(relative_amplitude)
        self.period_ns = float(period_ns)
        self.phase = float(phase)

    def rate(self, t_ns: float) -> float:
        angle = 2.0 * math.pi * (t_ns / self.period_ns + self.phase)
        return self.mean_rate_rps * (
            1.0 + self.relative_amplitude * math.sin(angle)
        )

    def rate_array(self, t_ns: np.ndarray) -> np.ndarray:
        times = np.asarray(t_ns, dtype=float)
        angles = 2.0 * math.pi * (times / self.period_ns + self.phase)
        return self.mean_rate_rps * (
            1.0 + self.relative_amplitude * np.sin(angles)
        )

    @property
    def rate_max(self) -> float:
        return self.mean_rate_rps * (1.0 + self.relative_amplitude)

    def integral(self, t_ns: float) -> float:
        # ∫ mean(1 + a sin(2π(s/T + φ))) ds, closed form.
        two_pi = 2.0 * math.pi
        base = self.mean_rate_rps * t_ns / _NS_PER_S
        swing = (
            self.mean_rate_rps
            * self.relative_amplitude
            * self.period_ns
            / (two_pi * _NS_PER_S)
            * (
                math.cos(two_pi * self.phase)
                - math.cos(two_pi * (t_ns / self.period_ns + self.phase))
            )
        )
        return base + swing


class FlashCrowdRate(RateProfile):
    """A trapezoidal crowd event on top of a constant background.

    λ(t) is ``base`` outside the event; from ``start_ns`` it ramps
    linearly to ``peak`` over ``ramp_ns``, holds for ``hold_ns``, and
    decays back over ``decay_ns``. The excess mass over the background
    is ``(peak - base) × (hold + (ramp + decay)/2)`` expected events.
    """

    name = "flash-crowd"

    def __init__(
        self,
        base_rate_rps: float,
        peak_rate_rps: float,
        start_ns: float,
        ramp_ns: float,
        hold_ns: float,
        decay_ns: float,
    ) -> None:
        if base_rate_rps <= 0:
            raise ValueError(
                f"base rate must be positive, got {base_rate_rps!r} rps"
            )
        if peak_rate_rps < base_rate_rps:
            raise ValueError(
                f"peak rate ({peak_rate_rps!r}) must be >= base rate "
                f"({base_rate_rps!r}) — a flash crowd adds load"
            )
        for label, value in (
            ("start_ns", start_ns),
            ("ramp_ns", ramp_ns),
            ("hold_ns", hold_ns),
            ("decay_ns", decay_ns),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value!r}")
        self.base_rate_rps = float(base_rate_rps)
        self.peak_rate_rps = float(peak_rate_rps)
        self.start_ns = float(start_ns)
        self.ramp_ns = float(ramp_ns)
        self.hold_ns = float(hold_ns)
        self.decay_ns = float(decay_ns)

    def rate(self, t_ns: float) -> float:
        dt = t_ns - self.start_ns
        if dt < 0:
            return self.base_rate_rps
        if dt < self.ramp_ns:
            frac = dt / self.ramp_ns
            return self.base_rate_rps + frac * (
                self.peak_rate_rps - self.base_rate_rps
            )
        dt -= self.ramp_ns
        if dt < self.hold_ns:
            return self.peak_rate_rps
        dt -= self.hold_ns
        if dt < self.decay_ns:
            frac = 1.0 - dt / self.decay_ns
            return self.base_rate_rps + frac * (
                self.peak_rate_rps - self.base_rate_rps
            )
        return self.base_rate_rps

    def rate_array(self, t_ns: np.ndarray) -> np.ndarray:
        # Each mask mirrors one branch of the scalar :meth:`rate`
        # (same comparisons, same arithmetic), so the two paths agree
        # bit-for-bit on every candidate time.
        times = np.asarray(t_ns, dtype=float)
        dt = times - self.start_ns
        extra = self.peak_rate_rps - self.base_rate_rps
        out = np.full(times.shape, self.base_rate_rps)
        if self.ramp_ns > 0:
            mask = (dt >= 0) & (dt < self.ramp_ns)
            out[mask] = self.base_rate_rps + (dt[mask] / self.ramp_ns) * extra
        mask = (dt >= self.ramp_ns) & (dt - self.ramp_ns < self.hold_ns)
        out[mask] = self.peak_rate_rps
        if self.decay_ns > 0:
            into_decay = dt - self.ramp_ns - self.hold_ns
            mask = (into_decay >= 0) & (into_decay < self.decay_ns)
            out[mask] = (
                self.base_rate_rps
                + (1.0 - into_decay[mask] / self.decay_ns) * extra
            )
        return out

    @property
    def rate_max(self) -> float:
        return self.peak_rate_rps

    def integral(self, t_ns: float) -> float:
        base = self.base_rate_rps * t_ns / _NS_PER_S
        extra = self.peak_rate_rps - self.base_rate_rps
        if extra == 0 or t_ns <= self.start_ns:
            return base
        excess_ns = 0.0
        dt = t_ns - self.start_ns
        # Ramp: triangle area grows quadratically.
        span = min(dt, self.ramp_ns)
        if self.ramp_ns > 0:
            excess_ns += 0.5 * span * span / self.ramp_ns
        dt -= self.ramp_ns
        if dt > 0:
            excess_ns += min(dt, self.hold_ns)
            dt -= self.hold_ns
        if dt > 0 and self.decay_ns > 0:
            span = min(dt, self.decay_ns)
            # Complement of the decay triangle's missing corner.
            excess_ns += span - 0.5 * span * span / self.decay_ns
        return base + extra * excess_ns / _NS_PER_S

    def excess_events(self) -> float:
        """Expected arrivals added by the whole crowd event."""
        return (
            (self.peak_rate_rps - self.base_rate_rps)
            * (self.hold_ns + 0.5 * (self.ramp_ns + self.decay_ns))
            / _NS_PER_S
        )


# ---------------------------------------------------------------------------
# Arrival processes.
# ---------------------------------------------------------------------------


class ArrivalProcess(abc.ABC):
    """A stochastic arrival stream, consumed gap-by-gap by a generator.

    The traffic generators pre-draw one batch of inter-arrival gaps per
    run (:meth:`sample_gaps`), so a process's entire randomness budget
    is one deterministic sweep over the passed ``Generator`` — the
    property the bit-identical parallel-execution contract rests on.
    """

    name = "arrivals"

    @property
    @abc.abstractmethod
    def mean_rate_rps(self) -> float:
        """Long-run average intensity, in requests/second."""

    @abc.abstractmethod
    def sample_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` inter-arrival gaps in ns (first gap from t=0)."""

    def sample_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` absolute arrival times in ns (cumulative gaps)."""
        return np.cumsum(self.sample_gaps(rng, n))

    def rate_at(self, t_ns: float) -> float:
        """Intended intensity at ``t_ns`` (offered-rate telemetry track).

        Profile-backed processes return λ(t); processes without a
        deterministic intensity fall back to the long-run mean.
        """
        return self.mean_rate_rps

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} "
            f"mean={self.mean_rate_rps:.4g}rps>"
        )


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n!r}")


class StationaryPoisson(ArrivalProcess):
    """The paper's process: constant-rate Poisson arrivals.

    ``sample_gaps`` is the *exact* vectorized call the legacy
    ``TrafficGenerator`` hot loop makes — one
    ``rng.exponential(mean_gap, size=n)`` — so routing a constant-rate
    config through the popload subsystem reproduces the historical
    arrival stream byte-for-byte (asserted in the tests).
    """

    name = "poisson"

    def __init__(self, rate_rps: float) -> None:
        if rate_rps <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {rate_rps!r} rps"
            )
        self.rate_rps = float(rate_rps)

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    def rate_at(self, t_ns: float) -> float:
        return self.rate_rps

    def sample_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_count(n)
        return rng.exponential(_NS_PER_S / self.rate_rps, size=n)


class NonhomogeneousPoisson(ArrivalProcess):
    """Poisson arrivals whose intensity follows a :class:`RateProfile`.

    Gaps are generated by Lewis–Shedler thinning against the profile's
    ``rate_max`` envelope: candidate arrivals from a homogeneous
    process at ``rate_max`` are accepted with probability
    ``rate(t)/rate_max``. Exact for any bounded profile.
    """

    name = "nonhomogeneous"

    def __init__(self, profile: RateProfile) -> None:
        if not isinstance(profile, RateProfile):
            raise TypeError(
                f"profile must be a RateProfile, got {type(profile).__name__}"
            )
        if profile.rate_max <= 0:
            raise ValueError(
                f"profile rate_max must be positive, got {profile.rate_max!r}"
            )
        self.profile = profile
        self.name = f"nonhomogeneous/{profile.name}"

    @property
    def mean_rate_rps(self) -> float:
        # A profile has no intrinsic horizon; report the envelope-free
        # instantaneous mean over one "unit" second as a best effort.
        return self.profile.mean_rate(_NS_PER_S)

    def rate_at(self, t_ns: float) -> float:
        return self.profile.rate(t_ns)

    def sample_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_count(n)
        if n == 0:
            return np.empty(0)
        profile = self.profile
        rate_max = profile.rate_max
        mean_gap_ns = _NS_PER_S / rate_max
        times = np.empty(n)
        have = 0
        t = 0.0
        # Acceptance ratio ≈ mean/max; size candidate blocks so one or
        # two rounds usually suffice, like the horizon-based thinner.
        # The intensity is evaluated once per block through the
        # profile's vectorized ``rate_array`` — repeated scalar
        # ``rate`` calls dominated generation — with RNG consumption
        # (one exponential + one uniform batch per block) and accepted
        # times bit-identical to the historical scalar loop.
        while have < n:
            remaining = n - have
            block = max(int(remaining * 1.5) + 16, 64)
            gaps = rng.exponential(mean_gap_ns, size=block)
            candidates = t + np.cumsum(gaps)
            accept = rng.uniform(size=block)
            rates = profile.rate_array(candidates)
            bad = (rates < 0) | (rates > rate_max * (1 + 1e-9))
            if np.any(bad):
                index = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"profile.rate({candidates[index]}) = {rates[index]} "
                    f"outside [0, rate_max={rate_max}]"
                )
            hits = np.flatnonzero(accept < rates / rate_max)
            take = min(hits.size, remaining)
            times[have : have + take] = candidates[hits[:take]]
            have += take
            t = float(candidates[-1])
        return np.diff(times, prepend=0.0)


class PopulationProcess(ArrivalProcess):
    """Traffic from a modeled user population (AsyncFlow-style).

    Offered load is ``active_users × per-user rate``: once per
    ``window_ns`` the active-user count is re-sampled around a target
    mean (``user_distribution``: ``"poisson"``, ``"normal"``, or
    ``"fixed"``), and arrivals within the window are Poisson at
    ``users × per_user_rps``. A :class:`RateProfile` can scale the
    target mean over time — a :class:`DiurnalRate` profile yields the
    day/night cycle, a :class:`FlashCrowdRate` the ramp event — so the
    *population* swings, and the rate follows.

    The piecewise-constant realization is exact: a draw censored by a
    window boundary is discarded and re-drawn at the boundary
    (memorylessness), never rescaled.
    """

    name = "population"

    #: Supported user-count sampling distributions.
    USER_DISTRIBUTIONS = ("poisson", "normal", "fixed")

    def __init__(
        self,
        mean_users: float,
        per_user_rps: float,
        window_ns: float,
        user_distribution: str = "poisson",
        user_sd: float = 0.0,
        profile: "RateProfile | None" = None,
    ) -> None:
        if mean_users <= 0:
            raise ValueError(
                f"mean_users must be positive, got {mean_users!r}"
            )
        if per_user_rps <= 0:
            raise ValueError(
                f"per_user_rps must be positive, got {per_user_rps!r}"
            )
        if window_ns <= 0:
            raise ValueError(
                f"window_ns must be positive, got {window_ns!r}"
            )
        if user_distribution not in self.USER_DISTRIBUTIONS:
            raise ValueError(
                f"user_distribution must be one of {self.USER_DISTRIBUTIONS}, "
                f"got {user_distribution!r}"
            )
        if user_distribution == "normal" and user_sd <= 0:
            raise ValueError(
                "user_distribution='normal' needs a positive user_sd, got "
                f"{user_sd!r}"
            )
        if profile is not None and not isinstance(profile, RateProfile):
            raise TypeError(
                f"profile must be a RateProfile, got {type(profile).__name__}"
            )
        self.mean_users = float(mean_users)
        self.per_user_rps = float(per_user_rps)
        self.window_ns = float(window_ns)
        self.user_distribution = user_distribution
        self.user_sd = float(user_sd)
        self.profile = profile

    @property
    def mean_rate_rps(self) -> float:
        return self.mean_users * self.per_user_rps

    def rate_at(self, t_ns: float) -> float:
        return self._target_users(t_ns) * self.per_user_rps

    def _target_users(self, t_ns: float) -> float:
        """Expected active users at ``t_ns`` (profile-scaled mean)."""
        if self.profile is None:
            return self.mean_users
        # The profile's shape scales the population around its t=0 rate
        # baseline; ConstantRate leaves it untouched.
        return self.mean_users * self.profile.rate(t_ns) / self.profile.rate(0.0)

    def _draw_users(self, rng: np.random.Generator, target: float) -> int:
        if self.user_distribution == "poisson":
            return int(rng.poisson(target))
        if self.user_distribution == "normal":
            return max(int(round(rng.normal(target, self.user_sd))), 0)
        return int(round(target))

    def sample_gaps(self, rng: np.random.Generator, n: int) -> np.ndarray:
        _check_count(n)
        gaps = np.empty(n)
        window_ns = self.window_ns
        t = 0.0
        window_end = window_ns
        users = self._draw_users(rng, self._target_users(0.0))
        rate = users * self.per_user_rps
        last = 0.0
        have = 0
        while have < n:
            candidate = (
                t + rng.exponential(_NS_PER_S / rate) if rate > 0 else math.inf
            )
            if candidate <= window_end:
                gaps[have] = candidate - last
                last = candidate
                t = candidate
                have += 1
            else:
                t = window_end
                window_end = t + window_ns
                users = self._draw_users(rng, self._target_users(t))
                rate = users * self.per_user_rps
        return gaps


# ---------------------------------------------------------------------------
# Horizon-based thinning — the single implementation behind
# repro.queueing.nonstationary (kept verbatim so existing consumers stay
# bit-identical; see that module's re-export).
# ---------------------------------------------------------------------------


def nonhomogeneous_poisson(
    rng: np.random.Generator,
    rate_fn: Callable[[float], float],
    rate_max: float,
    horizon: float,
) -> np.ndarray:
    """Arrival times on [0, horizon) with intensity ``rate_fn(t)``.

    Standard thinning (Lewis & Shedler): candidates from a homogeneous
    Poisson at ``rate_max`` are accepted with probability
    ``rate_fn(t)/rate_max``. ``rate_fn`` must never exceed ``rate_max``.
    """
    if rate_max <= 0:
        raise ValueError(f"rate_max must be positive, got {rate_max!r}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    # Generate candidates in blocks to stay vectorized.
    expected = rate_max * horizon
    block = max(int(expected * 1.2) + 16, 64)
    times = []
    t = 0.0
    while t < horizon:
        gaps = rng.exponential(1.0 / rate_max, size=block)
        candidates = t + np.cumsum(gaps)
        candidates = candidates[candidates < horizon]
        if candidates.size == 0 and t + gaps.sum() >= horizon:
            break
        accept = rng.uniform(size=candidates.size)
        for when, u in zip(candidates, accept):
            rate = rate_fn(float(when))
            if rate < 0 or rate > rate_max * (1 + 1e-9):
                raise ValueError(
                    f"rate_fn({when}) = {rate} outside [0, rate_max={rate_max}]"
                )
            if u < rate / rate_max:
                times.append(float(when))
        t = float(candidates[-1]) if candidates.size else t + gaps.sum()
    return np.asarray(times)
