"""Shaped arrivals, fault timelines, and the transient fluid tier.

Covers the engine-tier extensions: the fast tier consuming arbitrary
``repro.popload`` arrival processes and ``repro.faults`` plans, the
fluid tier's transient mean-field ODE, the capability matrix behind
``resolve_engine``, and the determinism contracts (repeat-run
bit-identity, worker-count invariance, event-count conservation
against the profile's integral) that keep the surrogate tiers honest.
"""

import numpy as np
import pytest

from repro.fastpath import (
    ENGINE_CAPABILITIES,
    arrival_capability,
    calibrated_chip_profile,
    engine_supports,
    fast_chip_point,
    fluid_transient_measure,
    required_capabilities,
    resolve_engine,
    simulate_cluster_fluid,
    simulate_rack_fast,
)
from repro.faults import FabricDegradation, FaultPlan, NodeCrash, NodeSlowdown
from repro.popload import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    NonhomogeneousPoisson,
    PopulationProcess,
    StationaryPoisson,
)
from repro.sim import RngRegistry
from repro.workloads import HerdWorkload, MasstreeWorkload

MEAN_SERVICE_NS = 553.7


def _population(rate_mrps: float) -> PopulationProcess:
    # No profile: the rate jumps with a Poisson user count redrawn each
    # window, so there is no deterministic intensity (the
    # ``arrivals:stochastic`` capability).
    return PopulationProcess(
        mean_users=50.0, per_user_rps=rate_mrps * 1e6 / 50.0, window_ns=20_000.0
    )


def _flash(rate_mrps: float, horizon_ns: float) -> NonhomogeneousPoisson:
    rps = rate_mrps * 1e6
    return NonhomogeneousPoisson(
        FlashCrowdRate(
            base_rate_rps=0.8 * rps,
            peak_rate_rps=2.0 * rps,
            start_ns=0.3 * horizon_ns,
            ramp_ns=0.05 * horizon_ns,
            hold_ns=0.15 * horizon_ns,
            decay_ns=0.05 * horizon_ns,
        )
    )


class TestFastChipShaped:
    def test_repeat_run_bit_identity_population_and_flash(self):
        workload = HerdWorkload()
        profile = calibrated_chip_profile("16x1")
        for process in (_population(20.0), _flash(20.0, 3000 / 20.0 * 1e3)):
            first = fast_chip_point(
                "16x1", workload, 20.0, 3000, 7, profile,
                arrival_process=process,
            )
            second = fast_chip_point(
                "16x1", workload, 20.0, 3000, 7, profile,
                arrival_process=process,
            )
            assert first.summary.p99 == second.summary.p99
            assert first.summary.mean == second.summary.mean
            assert first.achieved_throughput == second.achieved_throughput

    def test_event_count_conservation_vs_profile_integral(self):
        # The thinning loop must generate arrivals at the profile's
        # intensity: over the sampled span, the profile's integral
        # (expected event count) matches the actual count within
        # Poisson noise.
        n = 20_000
        profile = FlashCrowdRate(
            base_rate_rps=16e6,
            peak_rate_rps=40e6,
            start_ns=300_000.0,
            ramp_ns=50_000.0,
            hold_ns=150_000.0,
            decay_ns=50_000.0,
        )
        process = NonhomogeneousPoisson(profile)
        gaps = process.sample_gaps(np.random.default_rng(3), n)
        span_ns = float(np.sum(gaps))
        expected = profile.mean_rate(span_ns) * span_ns * 1e-9
        assert expected == pytest.approx(n, rel=6.0 / np.sqrt(n))

    def test_shaped_load_shifts_the_tail(self):
        workload = HerdWorkload()
        profile = calibrated_chip_profile("1x16")
        flat = fast_chip_point("1x16", workload, 23.0, 3000, 0, profile)
        shaped = fast_chip_point(
            "1x16", workload, 23.0, 3000, 0, profile,
            arrival_process=_flash(23.0, 3000 / 23.0 * 1e3),
        )
        assert shaped.summary.p99 > flat.summary.p99


class TestFastChipDesAgreement:
    """Paired band near capacity: ``fast_chip_point`` against
    ``make_system(...).run_point`` on the same point seeds (common
    random numbers) at 0.9·C, C = 16/S̄, for every hardware scheme, a
    heavy-tailed workload and a multi-class one. The mean signed p99
    error over the seeds stays within 5%."""

    SEEDS = (1, 2, 3, 4)
    REQUESTS = 8_000

    @pytest.mark.parametrize(
        "workload, scheme",
        [
            ("herd", "1x16"),
            ("herd", "4x4"),
            ("herd", "16x1"),
            ("synthetic-gev", "1x16"),
            # The SLO class (gets) alone sets Masstree's overhead.
            ("masstree", "1x16"),
        ],
    )
    def test_p99_within_five_percent_at_0_9_capacity(self, workload, scheme):
        from repro.core import make_system
        from repro.experiments.common import calibrate_mean_service_ns

        load = 0.9 * 16 / calibrate_mean_service_ns(workload, "16x1", 0) * 1e3
        profile = calibrated_chip_profile(scheme, workload=workload)
        errors = []
        for seed in self.SEEDS:
            system = make_system(scheme, workload, seed=seed)
            des = system.run_point(load, num_requests=self.REQUESTS).point
            fast = fast_chip_point(
                scheme, system.workload, load, self.REQUESTS, seed, profile
            )
            errors.append(fast.summary.p99 / des.summary.p99 - 1.0)
        assert abs(np.mean(errors)) <= 0.05, errors


class TestFastChipSloClass:
    """Like ``RpcValetSystem.run_point``, the fast chip point summarizes
    the SLO class only; the warm-up cutoff and the throughput count
    every completion."""

    REQUESTS = 4_000

    def _point(self, slo_label, warmup_fraction=0.1):
        workload = MasstreeWorkload()
        workload.slo_label = slo_label
        return fast_chip_point(
            "1x16",
            workload,
            3.0,
            self.REQUESTS,
            1,
            (500.0, 300.0),
            warmup_fraction=warmup_fraction,
        )

    def test_summary_counts_the_slo_class_only(self):
        _, labels = MasstreeWorkload().sample_batch(
            RngRegistry(1).stream("service"), self.REQUESTS
        )
        point = self._point("get", warmup_fraction=0.0)
        assert 0 < point.summary.count == labels.count("get") < self.REQUESTS

    def test_cutoff_and_throughput_cover_every_class(self):
        gets, scans = self._point("get"), self._point("scan")
        # A label that was never drawn falls back to every class.
        every = self._point("none")
        assert gets.summary.count + scans.summary.count == every.summary.count
        assert (
            gets.achieved_throughput
            == scans.achieved_throughput
            == every.achieved_throughput
        )
        # Scans are ~100x longer than gets: they must not set the tail.
        assert gets.summary.p99 < every.summary.p99 / 5


class TestFastClusterShaped:
    def test_rack_repeat_identity_under_population(self):
        kwargs = dict(
            policy="jsq2",
            per_node_mrps=20.0,
            requests_per_node=400,
            seed=11,
            arrival_process=_population(20.0),
        )
        first = simulate_rack_fast(8, **kwargs)
        second = simulate_rack_fast(8, **kwargs)
        assert first.aggregate.p99 == second.aggregate.p99
        assert first.completed == second.completed
        assert list(first.per_node_completed) == list(second.per_node_completed)

    def test_rack_shaped_differs_from_constant(self):
        flat = simulate_rack_fast(
            8, policy="jsq2", per_node_mrps=20.0, requests_per_node=400,
            seed=11,
        )
        shaped = simulate_rack_fast(
            8, policy="jsq2", per_node_mrps=20.0, requests_per_node=400,
            seed=11, arrival_process=_flash(20.0, 400 / 20.0 * 1e3),
        )
        assert shaped.completed == flat.completed
        assert shaped.aggregate.p99 != flat.aggregate.p99

    def test_stationary_process_matches_legacy_poisson(self):
        # StationaryPoisson.sample_gaps draws the identical
        # exponential batch the legacy generator drew: byte-identical
        # results, not just statistically close.
        legacy = simulate_rack_fast(
            4, policy="random", per_node_mrps=18.0, requests_per_node=500,
            seed=5,
        )
        explicit = simulate_rack_fast(
            4, policy="random", per_node_mrps=18.0, requests_per_node=500,
            seed=5, arrival_process=StationaryPoisson(18e6),
        )
        assert explicit.aggregate.p99 == legacy.aggregate.p99
        assert explicit.aggregate.mean == legacy.aggregate.mean


class TestFastClusterFaults:
    def test_trivial_plan_is_bit_identical_to_no_faults(self):
        base = simulate_rack_fast(
            6, policy="jsq2", per_node_mrps=20.0, requests_per_node=400,
            seed=2,
        )
        trivial = simulate_rack_fast(
            6, policy="jsq2", per_node_mrps=20.0, requests_per_node=400,
            seed=2, faults=FaultPlan(),
        )
        assert trivial.aggregate.p99 == base.aggregate.p99
        assert trivial.completed == base.completed

    def test_crash_drops_and_availability(self):
        horizon_ns = 400 / 20.0 * 1e3
        plan = FaultPlan(
            events=(
                NodeCrash(node=2, at_ns=0.2 * horizon_ns,
                          outage_ns=0.5 * horizon_ns),
            )
        )
        result = simulate_rack_fast(
            6, policy="random", per_node_mrps=20.0, requests_per_node=400,
            seed=2, faults=plan,
        )
        assert result.lost > 0
        assert result.fault_stats.crash_drops == result.lost
        assert result.fault_stats.crashes == 1
        assert result.fault_stats.recoveries == 1
        assert result.availability[2] < 1.0
        assert min(
            a for i, a in enumerate(result.availability) if i != 2
        ) == pytest.approx(1.0)
        assert result.completed + result.lost == result.offered
        assert result.goodput_fraction < 1.0

    def test_slowdown_raises_the_tail(self):
        horizon_ns = 400 / 20.0 * 1e3
        plan = FaultPlan(
            events=(
                NodeSlowdown(node=0, at_ns=0.0, duration_ns=horizon_ns,
                             factor=0.3),
            )
        )
        base = simulate_rack_fast(
            4, policy="random", per_node_mrps=20.0, requests_per_node=400,
            seed=3,
        )
        slowed = simulate_rack_fast(
            4, policy="random", per_node_mrps=20.0, requests_per_node=400,
            seed=3, faults=plan,
        )
        assert slowed.fault_stats.slowdowns == 1
        assert slowed.aggregate.p99 > base.aggregate.p99

    def test_fabric_degradation_drops_and_spikes(self):
        horizon_ns = 600 / 20.0 * 1e3
        plan = FaultPlan(
            events=(
                FabricDegradation(
                    at_ns=0.0, duration_ns=horizon_ns, drop_prob=0.05,
                    spike_prob=0.1, spike_ns=2_000.0,
                ),
            )
        )
        result = simulate_rack_fast(
            6, policy="jsq2", per_node_mrps=20.0, requests_per_node=600,
            seed=4, faults=plan,
        )
        assert result.fault_stats.msg_drops > 0
        assert result.fault_stats.delay_spikes > 0
        assert result.lost == result.fault_stats.msg_drops
        assert result.completed + result.lost == result.offered

    def test_faulted_run_repeat_identity(self):
        plan = FaultPlan(crash_rate_hz=2e4, slowdown_rate_hz=2e4,
                         drop_prob=0.01)
        kwargs = dict(
            policy="jsq2", per_node_mrps=20.0, requests_per_node=400,
            seed=6, faults=plan,
        )
        first = simulate_rack_fast(6, **kwargs)
        second = simulate_rack_fast(6, **kwargs)
        assert first.aggregate.p99 == second.aggregate.p99
        assert first.lost == second.lost
        assert first.fault_stats.msg_drops == second.fault_stats.msg_drops


class TestFluidTransient:
    def test_constant_profile_matches_stationary(self):
        stationary = simulate_cluster_fluid(
            256, policy="jsq2", per_node_mrps=14.0,
            mean_service_ns=MEAN_SERVICE_NS, seed=0,
        )
        transient = simulate_cluster_fluid(
            256, policy="jsq2", per_node_mrps=14.0,
            mean_service_ns=MEAN_SERVICE_NS, seed=0,
            arrival_process=NonhomogeneousPoisson(ConstantRate(14e6)),
            horizon_ns=50_000.0,
        )
        assert transient.aggregate.p99 == pytest.approx(
            stationary.aggregate.p99, rel=0.05
        )

    def test_diurnal_transient_is_deterministic(self):
        process = NonhomogeneousPoisson(DiurnalRate(14e6, 0.6, 20_000.0))
        kwargs = dict(
            policy="jsq2", per_node_mrps=14.0,
            mean_service_ns=MEAN_SERVICE_NS, seed=1,
            arrival_process=process, horizon_ns=20_000.0,
        )
        first = simulate_cluster_fluid(256, **kwargs)
        second = simulate_cluster_fluid(256, **kwargs)
        assert first.aggregate.p99 == second.aggregate.p99
        assert first.aggregate.mean == second.aggregate.mean

    def test_transient_overload_window_survives(self):
        # A flash peak above capacity builds fluid backlog and drains
        # it; the run must stay finite and the tail must exceed the
        # no-flash tail.
        flash = NonhomogeneousPoisson(
            FlashCrowdRate(10e6, 40e6, 5_000.0, 2_000.0, 4_000.0, 2_000.0)
        )
        shaped = simulate_cluster_fluid(
            128, policy="jsq2", per_node_mrps=12.0,
            mean_service_ns=MEAN_SERVICE_NS, seed=0,
            arrival_process=flash, horizon_ns=30_000.0,
        )
        flat = simulate_cluster_fluid(
            128, policy="jsq2", per_node_mrps=12.0,
            mean_service_ns=MEAN_SERVICE_NS, seed=0,
            arrival_process=NonhomogeneousPoisson(ConstantRate(12e6)),
            horizon_ns=30_000.0,
        )
        assert np.isfinite(shaped.aggregate.p99)
        assert shaped.aggregate.p99 > flat.aggregate.p99

    def test_stochastic_process_raises_actionable_error(self):
        with pytest.raises(ValueError, match="deterministic RateProfile"):
            simulate_cluster_fluid(
                256, policy="jsq2", per_node_mrps=14.0,
                mean_service_ns=MEAN_SERVICE_NS, seed=0,
                arrival_process=_population(14.0), horizon_ns=20_000.0,
            )

    def test_transient_measure_is_a_distribution_trajectory(self):
        profile = DiurnalRate(14e6, 0.6, 20_000.0)
        grid, snaps = fluid_transient_measure(
            profile, 20_000.0, 16, MEAN_SERVICE_NS, 2, snapshots=64
        )
        assert grid.shape == (64,)
        assert snaps.shape[0] == 64
        # Each snapshot is a valid tail-distribution vector: s_0 = 1,
        # values in [0, 1], non-increasing in queue length.
        assert np.all(snaps[:, 0] == pytest.approx(1.0))
        assert np.all((snaps >= 0.0) & (snaps <= 1.0))
        assert np.all(np.diff(snaps, axis=1) <= 1e-12)


class TestCapabilityMatrix:
    def test_arrival_tokens(self):
        assert arrival_capability(None) is None
        assert arrival_capability(StationaryPoisson(1e6)) is None
        shaped = NonhomogeneousPoisson(ConstantRate(1e6))
        assert arrival_capability(shaped) == "arrivals:profile"
        assert arrival_capability(_population(1.0)) == "arrivals:stochastic"

    def test_required_capabilities(self):
        assert required_capabilities() == frozenset()
        assert required_capabilities(faults=FaultPlan()) == frozenset()
        need = required_capabilities(
            arrival_process=_population(1.0),
            faults=FaultPlan(drop_prob=0.1),
            tracing=True,
            chip=True,
        )
        assert need == {
            "arrivals:stochastic", "faults", "tracing", "chip",
        }

    def test_engine_supports_matrix(self):
        assert engine_supports("des", ENGINE_CAPABILITIES["fast"])
        assert not engine_supports("fast", {"tracing"})
        assert not engine_supports("fluid", {"arrivals:stochastic"})
        assert engine_supports("fluid", {"arrivals:profile"})
        with pytest.raises(ValueError, match="engine must be one of"):
            engine_supports("auto", set())

    def test_auto_falls_back_to_fast_never_fluid(self):
        # Above the threshold auto wants fluid, but population windows and
        # fault plans are per-RPC features: it must fall back to fast.
        assert resolve_engine(
            "auto", 1024, arrival_process=_population(1.0)
        ) == "fast"
        assert resolve_engine(
            "auto", 1024, faults=FaultPlan(drop_prob=0.1)
        ) == "fast"
        # Tracing exists only in the DES.
        assert resolve_engine("auto", 1024, tracing=True) == "des"
        # A deterministic profile stays on the fluid tier.
        shaped = NonhomogeneousPoisson(DiurnalRate(1e6, 0.5, 1e6))
        assert resolve_engine("auto", 1024, arrival_process=shaped) == "fluid"
        assert resolve_engine("auto", 64, arrival_process=shaped) == "fast"

    def test_explicit_engine_without_capability_raises(self):
        with pytest.raises(ValueError, match="does not support"):
            resolve_engine("fluid", 1024, arrival_process=_population(1.0))
        with pytest.raises(ValueError, match="does not support"):
            resolve_engine("fast", 16, tracing=True)

    def test_env_override_still_capability_checked(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fluid")
        with pytest.raises(ValueError, match="does not support"):
            resolve_engine("des", 1024, arrival_process=_population(1.0))
        monkeypatch.setenv("REPRO_ENGINE", "des")
        assert resolve_engine(
            "fluid", 1024, arrival_process=_population(1.0)
        ) == "des"
