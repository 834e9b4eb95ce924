"""fastsim: exact FIFO multi-server simulation, validated three ways.

1. Hand-computed toy traces;
2. Exact agreement with the slow kernel-based implementation;
3. Convergence to analytic M/M/1, M/M/c, and M/G/1 results.
"""

import numpy as np
import pytest

from repro.queueing import (
    RandomRouter,
    kernel_sojourn_times,
    mg1_mean_sojourn,
    mm1_mean_sojourn,
    mm1_sojourn_percentile,
    mmc_mean_sojourn,
    poisson_arrivals,
    simulate_fifo_queue,
    simulate_routed_queues,
    sojourn_times,
    spray_departures,
)


class TestToyTraces:
    def test_single_server_no_contention(self):
        arrivals = np.array([0.0, 10.0, 20.0])
        services = np.array([1.0, 2.0, 3.0])
        departures = simulate_fifo_queue(arrivals, services, 1)
        np.testing.assert_allclose(departures, [1.0, 12.0, 23.0])

    def test_single_server_queueing(self):
        arrivals = np.array([0.0, 1.0, 2.0])
        services = np.array([5.0, 5.0, 5.0])
        departures = simulate_fifo_queue(arrivals, services, 1)
        np.testing.assert_allclose(departures, [5.0, 10.0, 15.0])

    def test_two_servers_parallel(self):
        arrivals = np.array([0.0, 0.0, 0.0])
        services = np.array([5.0, 5.0, 5.0])
        departures = simulate_fifo_queue(arrivals, services, 2)
        np.testing.assert_allclose(sorted(departures), [5.0, 5.0, 10.0])

    def test_fifo_order_even_with_short_job_behind_long(self):
        # FIFO: the 0.1-long job at t=1 waits for the 10-long job.
        arrivals = np.array([0.0, 1.0])
        services = np.array([10.0, 0.1])
        departures = simulate_fifo_queue(arrivals, services, 1)
        np.testing.assert_allclose(departures, [10.0, 10.1])

    def test_sojourn_warmup_trim(self):
        arrivals = np.array([0.0, 1.0, 2.0, 3.0])
        services = np.ones(4)
        sojourns = sojourn_times(arrivals, services, 1, warmup_fraction=0.5)
        assert sojourns.size == 2


class TestValidation:
    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            simulate_fifo_queue(np.zeros(3), np.zeros(2), 1)

    def test_decreasing_arrivals(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            simulate_fifo_queue(np.array([1.0, 0.0]), np.zeros(2), 1)

    def test_negative_service(self):
        with pytest.raises(ValueError):
            simulate_fifo_queue(np.zeros(1), np.array([-1.0]), 1)

    def test_bad_server_count(self):
        with pytest.raises(ValueError):
            simulate_fifo_queue(np.zeros(1), np.zeros(1), 0)

    @pytest.mark.parametrize("servers", [True, 2.5])
    def test_server_count_must_be_an_integer(self, servers):
        with pytest.raises(ValueError, match="num_servers must be an integer"):
            simulate_fifo_queue(np.arange(4.0), np.ones(4), servers)

    def test_nan_services_rejected(self):
        with pytest.raises(ValueError, match="service times must be finite"):
            simulate_fifo_queue(np.arange(10.0), np.full(10, np.nan), 2)

    def test_infinite_arrivals_rejected(self):
        arrivals = np.array([0.0, 1.0, np.inf])
        with pytest.raises(ValueError, match="arrival_times must be finite"):
            simulate_fifo_queue(arrivals, np.ones(3), 2)

    def test_bad_warmup(self):
        with pytest.raises(ValueError):
            sojourn_times(np.zeros(1), np.zeros(1), 1, warmup_fraction=1.0)


class TestAgainstKernel:
    @pytest.mark.parametrize("num_queues,servers", [(1, 1), (1, 4), (4, 1), (4, 4)])
    def test_exact_agreement(self, num_queues, servers):
        rng = np.random.default_rng(3)
        n = 2000
        arrivals = poisson_arrivals(rng, rate=servers * num_queues * 0.8, count=n)
        services = rng.exponential(1.0, n)
        queue_ids = rng.integers(0, num_queues, n)

        kernel = kernel_sojourn_times(arrivals, services, queue_ids, num_queues, servers)
        fast = np.empty(n)
        for queue_id in range(num_queues):
            mask = queue_ids == queue_id
            fast[mask] = (
                simulate_fifo_queue(arrivals[mask], services[mask], servers)
                - arrivals[mask]
            )
        np.testing.assert_allclose(kernel, fast, rtol=1e-12)


class TestAgainstAnalytic:
    N = 400_000

    def test_mm1_mean(self):
        rng = np.random.default_rng(10)
        lam, mu = 0.7, 1.0
        arrivals = poisson_arrivals(rng, lam, self.N)
        services = rng.exponential(1.0 / mu, self.N)
        sojourns = sojourn_times(arrivals, services, 1, warmup_fraction=0.1)
        assert sojourns.mean() == pytest.approx(
            mm1_mean_sojourn(lam, mu), rel=0.05
        )

    def test_mm1_p99(self):
        rng = np.random.default_rng(11)
        lam, mu = 0.6, 1.0
        arrivals = poisson_arrivals(rng, lam, self.N)
        services = rng.exponential(1.0 / mu, self.N)
        sojourns = sojourn_times(arrivals, services, 1, warmup_fraction=0.1)
        assert np.percentile(sojourns, 99) == pytest.approx(
            mm1_sojourn_percentile(lam, mu, 0.99), rel=0.05
        )

    def test_mmc_mean(self):
        rng = np.random.default_rng(12)
        c, lam, mu = 16, 12.8, 1.0
        arrivals = poisson_arrivals(rng, lam, self.N)
        services = rng.exponential(1.0 / mu, self.N)
        sojourns = sojourn_times(arrivals, services, c, warmup_fraction=0.1)
        assert sojourns.mean() == pytest.approx(
            mmc_mean_sojourn(c, lam, mu), rel=0.05
        )

    def test_mg1_mean_deterministic_service(self):
        rng = np.random.default_rng(13)
        lam, service = 0.8, 1.0
        arrivals = poisson_arrivals(rng, lam, self.N)
        services = np.full(self.N, service)
        sojourns = sojourn_times(arrivals, services, 1, warmup_fraction=0.1)
        analytic = mg1_mean_sojourn(lam, service, service**2)
        assert sojourns.mean() == pytest.approx(analytic, rel=0.05)

    def test_mg1_mean_uniform_service(self):
        rng = np.random.default_rng(14)
        lam = 0.75
        arrivals = poisson_arrivals(rng, lam, self.N)
        services = rng.uniform(0.0, 2.0, self.N)
        # E[S]=1, E[S^2]=4/3 for U(0,2).
        sojourns = sojourn_times(arrivals, services, 1, warmup_fraction=0.1)
        analytic = mg1_mean_sojourn(lam, 1.0, 4.0 / 3.0)
        assert sojourns.mean() == pytest.approx(analytic, rel=0.05)


class TestPoissonArrivals:
    def test_rate(self):
        rng = np.random.default_rng(15)
        arrivals = poisson_arrivals(rng, rate=2.0, count=100_000)
        assert np.all(np.diff(arrivals) >= 0)
        # Mean gap = 1/rate.
        assert np.diff(arrivals).mean() == pytest.approx(0.5, rel=0.02)

    def test_start_offset(self):
        rng = np.random.default_rng(16)
        arrivals = poisson_arrivals(rng, rate=1.0, count=10, start=100.0)
        assert arrivals.min() >= 100.0

    def test_invalid(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, rate=0.0, count=1)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, rate=1.0, count=-1)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            poisson_arrivals(np.random.default_rng(17), rate, 3)


class TestSprayDepartures:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("load", [0.4, 0.6, 0.8])
    def test_matches_random_router(self, seed, load):
        # Model 16x1: one batched integers() draw equals the random
        # router's per-arrival scalar draws, so the sojourns are equal.
        n = 5_000
        rng = np.random.default_rng(seed)
        arrivals = poisson_arrivals(rng, 16.0 * load, n)
        services = rng.exponential(1.0, n)
        routed = simulate_routed_queues(
            arrivals, services, 16, 1, RandomRouter(),
            np.random.default_rng(seed + 1),
        )
        sprayed = spray_departures(
            arrivals, services, 16, 1, np.random.default_rng(seed + 1)
        ) - arrivals
        assert np.array_equal(sprayed, routed)
