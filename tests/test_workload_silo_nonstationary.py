"""Nonstationary arrival generation (``repro.queueing.nonstationary``)."""

import numpy as np
import pytest

from repro.queueing import (
    nonhomogeneous_poisson,
    simulate_fifo_queue,
    square_wave_rate,
)

RNG = lambda: np.random.default_rng(17)  # noqa: E731


class TestNonstationaryArrivals:
    def test_constant_rate_matches_homogeneous(self):
        rng = RNG()
        times = nonhomogeneous_poisson(rng, lambda t: 5.0, 5.0, horizon=10_000.0)
        rate = times.size / 10_000.0
        assert rate == pytest.approx(5.0, rel=0.03)
        assert np.all(np.diff(times) >= 0)

    def test_square_wave_concentrates_arrivals(self):
        rate_fn, rate_max = square_wave_rate(
            base_rate=1.0, burst_rate=20.0, period=100.0, burst_fraction=0.1
        )
        rng = RNG()
        times = nonhomogeneous_poisson(rng, rate_fn, rate_max, horizon=20_000.0)
        in_burst = np.mod(times, 100.0) < 10.0
        # Burst windows are 10% of time but carry ~2/3 of arrivals
        # (20 / (20*0.1 + 1*0.9) ≈ 0.69).
        assert in_burst.mean() == pytest.approx(0.69, abs=0.05)

    def test_subsaturating_bursts_widen_the_16x1_gap(self):
        # Bursts that stay below system capacity (0.5 base / 0.95 burst)
        # are absorbed by the single queue but overload 16x1's unlucky
        # queues transiently: the p99 gap widens vs stationary load.
        # (Bursts far past capacity compress the *relative* gap instead
        # — both systems then just accumulate the same backlog.)
        rng = np.random.default_rng(3)
        horizon = 60_000.0
        rate_fn, rate_max = square_wave_rate(
            base_rate=0.5 * 16, burst_rate=0.95 * 16, period=400.0,
            burst_fraction=0.25,
        )
        bursty = nonhomogeneous_poisson(rng, rate_fn, rate_max, horizon)
        services = rng.exponential(1.0, bursty.size)

        def gap(arrivals, svc):
            spray = np.random.default_rng(4).integers(0, 16, arrivals.size)
            partitioned = np.empty(arrivals.size)
            for queue in range(16):
                mask = spray == queue
                partitioned[mask] = (
                    simulate_fifo_queue(arrivals[mask], svc[mask], 1)
                    - arrivals[mask]
                )
            single = simulate_fifo_queue(arrivals, svc, 16) - arrivals
            return np.percentile(partitioned, 99) / np.percentile(single, 99)

        mean_rate = bursty.size / horizon
        gaps_stationary = rng.exponential(1.0 / mean_rate, bursty.size)
        stationary = np.cumsum(gaps_stationary)
        stationary_gap = gap(stationary, services)
        bursty_gap = gap(bursty, services)
        assert bursty_gap > 1.3 * stationary_gap

    def test_validation(self):
        rng = RNG()
        with pytest.raises(ValueError):
            nonhomogeneous_poisson(rng, lambda t: 1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            nonhomogeneous_poisson(rng, lambda t: 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            nonhomogeneous_poisson(rng, lambda t: 5.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            square_wave_rate(2.0, 1.0, 10.0, 0.5)
