"""Population-driven workload subsystem (repro.popload) and CSV CDFs."""

import numpy as np
import pytest

from repro.core import make_system
from repro.dists import CdfDistribution, datamining, dist_from_file, websearch
from repro.popload import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    NonhomogeneousPoisson,
    PopulationProcess,
    StationaryPoisson,
    zipf_weights,
)

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


class TestRateProfiles:
    def test_constant_integral(self):
        profile = ConstantRate(2e6)
        assert profile.rate(123.0) == 2e6
        assert profile.integral(1e9) == pytest.approx(2e6)
        assert profile.mean_rate(5e8) == pytest.approx(2e6)

    def test_diurnal_closed_form_matches_quadrature(self):
        profile = DiurnalRate(1e6, 0.6, period_ns=4e6, phase=0.2)
        ts = np.linspace(0.0, 1e7, 200_001)
        rates = np.array([profile.rate(t) for t in ts])
        numeric = np.trapz(rates, ts) / 1e9 if not hasattr(
            np, "trapezoid"
        ) else np.trapezoid(rates, ts) / 1e9
        assert profile.integral(1e7) == pytest.approx(numeric, rel=1e-6)
        assert profile.rate_max == pytest.approx(1.6e6)

    def test_diurnal_mean_over_full_period_is_nominal(self):
        profile = DiurnalRate(5e5, 0.9, period_ns=1e6)
        assert profile.mean_rate(3e6) == pytest.approx(5e5, rel=1e-12)

    def test_flash_crowd_shape_and_excess(self):
        profile = FlashCrowdRate(
            base_rate_rps=1e6,
            peak_rate_rps=3e6,
            start_ns=1e6,
            ramp_ns=2e5,
            hold_ns=1e6,
            decay_ns=4e5,
        )
        assert profile.rate(0.0) == 1e6
        assert profile.rate(1.1e6) == pytest.approx(2e6)  # mid-ramp
        assert profile.rate(1.5e6) == 3e6  # hold
        assert profile.rate(2.4e6) == pytest.approx(2e6)  # mid-decay
        assert profile.rate(5e6) == 1e6  # back to background
        # Total integral = background + the trapezoid's excess mass.
        expected = 1e6 / 1e9 * 1e7 + profile.excess_events()
        assert profile.integral(1e7) == pytest.approx(expected, rel=1e-12)
        assert profile.excess_events() == pytest.approx(
            2e6 * (1e6 + 0.5 * 6e5) / 1e9
        )

    def test_eager_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ConstantRate(0.0)
        with pytest.raises(ValueError, match="positive"):
            DiurnalRate(-1.0, 0.5, 1e6)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            DiurnalRate(1e6, 1.0, 1e6)
        with pytest.raises(ValueError, match="adds load"):
            FlashCrowdRate(2e6, 1e6, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            FlashCrowdRate(1e6, 2e6, -1.0, 1.0, 1.0, 1.0)


class TestArrivalProcesses:
    def test_stationary_matches_legacy_stream_bytewise(self):
        # The byte-identity contract: one vectorized exponential call.
        a, b = RNG(11), RNG(11)
        gaps = StationaryPoisson(1.2e6).sample_gaps(a, 4096)
        legacy = b.exponential(1e9 / 1.2e6, size=4096)
        assert gaps.tobytes() == legacy.tobytes()

    @pytest.mark.parametrize(
        "profile",
        [
            DiurnalRate(1e6, 0.6, period_ns=5e6),
            FlashCrowdRate(8e5, 2.4e6, 1e6, 2e5, 1e6, 2e5),
        ],
        ids=["diurnal", "flash"],
    )
    def test_event_count_conservation(self, profile):
        # N arrivals by time T ⇒ ∫λ ≈ N (Poisson counting property).
        n = 20_000
        times = NonhomogeneousPoisson(profile).sample_times(RNG(3), n)
        expected = profile.integral(float(times[-1]))
        assert n == pytest.approx(expected, rel=0.05)
        assert np.all(np.diff(times) > 0)

    def test_nonhomogeneous_rate_at_follows_profile(self):
        profile = DiurnalRate(1e6, 0.5, period_ns=4e6)
        process = NonhomogeneousPoisson(profile)
        assert process.rate_at(1e6) == pytest.approx(profile.rate(1e6))

    def test_population_mean_rate_conserved(self):
        process = PopulationProcess(
            mean_users=500.0, per_user_rps=2e3, window_ns=5e4
        )
        assert process.mean_rate_rps == pytest.approx(1e6)
        times = process.sample_times(RNG(7), 30_000)
        realized = times.size / float(times[-1]) * 1e9
        assert realized == pytest.approx(1e6, rel=0.05)

    def test_population_follows_profile(self):
        # Rates realized in the first vs second half-period of a
        # diurnal profile must differ like the profile says.
        horizon = 1e7
        profile = DiurnalRate(1e6, 0.8, period_ns=horizon)
        process = PopulationProcess(
            mean_users=2000.0,
            per_user_rps=500.0,
            window_ns=horizon / 50,
            profile=profile,
        )
        times = process.sample_times(RNG(9), 10_000)
        half = horizon / 2
        first = int(np.sum(times[times <= horizon] <= half))
        second = int(np.sum((times > half) & (times <= horizon)))
        # sin is positive in the first half-period: ~3.4x the mass.
        assert first > 2.0 * second
        assert process.rate_at(horizon / 4) == pytest.approx(
            1.8e6, rel=1e-6
        )

    def test_determinism_same_seed_same_stream(self):
        for process in (
            StationaryPoisson(1e6),
            NonhomogeneousPoisson(DiurnalRate(1e6, 0.6, 5e6)),
            PopulationProcess(100.0, 1e4, 1e5),
        ):
            one = process.sample_gaps(RNG(42), 2000)
            two = process.sample_gaps(RNG(42), 2000)
            assert one.tobytes() == two.tobytes(), process

    def test_eager_validation(self):
        with pytest.raises(ValueError, match="positive"):
            StationaryPoisson(0.0)
        with pytest.raises(TypeError, match="RateProfile"):
            NonhomogeneousPoisson(lambda t: 1.0)
        with pytest.raises(ValueError, match="positive"):
            PopulationProcess(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="user_distribution"):
            PopulationProcess(10.0, 1.0, 1.0, user_distribution="cauchy")
        with pytest.raises(ValueError, match="user_sd"):
            PopulationProcess(10.0, 1.0, 1.0, user_distribution="normal")
        with pytest.raises(ValueError, match="non-negative"):
            StationaryPoisson(1e6).sample_gaps(RNG(), -1)


class TestThinningUnification:
    def test_queueing_reexport_is_the_popload_function(self):
        import repro.popload.arrivals as popload_arrivals
        import repro.queueing.nonstationary as queueing_nonstationary

        assert (
            queueing_nonstationary.nonhomogeneous_poisson
            is popload_arrivals.nonhomogeneous_poisson
        )

    def test_package_level_import_still_works(self):
        from repro.queueing import nonhomogeneous_poisson

        times = nonhomogeneous_poisson(RNG(1), lambda t: 5.0, 5.0, 1000.0)
        assert times.size > 0


class TestZipfSkew:
    def test_weights_match_analytic_mass(self):
        weights = zipf_weights(100, 1.0)
        harmonic = np.sum(1.0 / np.arange(1, 101))
        assert weights[0] == pytest.approx(1.0 / harmonic)
        assert weights.sum() == pytest.approx(1.0)

    def test_alpha_zero_is_uniform(self):
        assert zipf_weights(8, 0.0) == pytest.approx(np.full(8, 0.125))

    def test_traffic_generator_source_skew_uses_zipf_weights(self):
        # source_skew routes through popload.zipf_weights now; the
        # stream must stay byte-identical to the historical inline code.
        system = make_system("1x16", "herd", seed=8)
        system.source_skew = 1.0
        result = system.run_point(1.0, num_requests=1200)
        assert result.completed == 1200

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            zipf_weights(4, -0.5)


class TestCdfDistributions:
    def test_moments_match_samples(self):
        dist = CdfDistribution([1000, 5300, 20000], [0.15, 0.60, 1.00])
        samples = dist.sample_array(RNG(0), 200_000)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.02)
        assert samples.var() == pytest.approx(dist.variance, rel=0.05)
        assert samples.min() >= 1000.0 and samples.max() <= 20000.0

    def test_initial_point_mass(self):
        dist = CdfDistribution([500, 2000], [0.4, 1.0])
        samples = dist.sample_array(RNG(1), 50_000)
        assert np.mean(samples == 500.0) == pytest.approx(0.4, abs=0.01)

    def test_percentile(self):
        dist = CdfDistribution([0, 100], [0.5, 1.0])
        assert dist.percentile(50) == pytest.approx(0.0)
        assert dist.percentile(75) == pytest.approx(50.0)
        assert dist.percentile(100) == pytest.approx(100.0)

    def test_dist_from_file(self, tmp_path):
        csv = tmp_path / "svc.csv"
        csv.write_text("# demo\n1000, 0.5\n2000\t,\t1.0\n")
        dist = dist_from_file(csv, scale=2.0)
        assert dist.name == "svc"
        assert dist.percentile(100) == pytest.approx(4000.0)

    def test_packaged_curves(self):
        ws, dm = websearch(), datamining()
        assert ws.name == "websearch" and dm.name == "datamining"
        # datamining is far heavier-tailed than websearch.
        assert dm.percentile(99) / dm.percentile(50) > 100 * (
            ws.percentile(99) / ws.percentile(50)
        )
        for dist in (ws, dm):
            samples = dist.sample_array(RNG(2), 50_000)
            assert samples.mean() == pytest.approx(dist.mean, rel=0.1)

    def test_workload_presets_run_on_the_simulator(self):
        system = make_system("1x16", "websearch", seed=0)
        result = system.run_point(0.3, num_requests=800)
        assert result.completed == 800
        with pytest.raises(ValueError, match="unknown workload"):
            make_system("1x16", "web-search", seed=0)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            CdfDistribution([], [])
        with pytest.raises(ValueError, match="values but"):
            CdfDistribution([1.0], [0.5, 1.0])
        with pytest.raises(ValueError, match="non-negative"):
            CdfDistribution([-1.0, 2.0], [0.5, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            CdfDistribution([2.0, 1.0], [0.5, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            CdfDistribution([1.0, 2.0], [0.6, 0.6])
        with pytest.raises(ValueError, match="truncated"):
            CdfDistribution([1.0, 2.0], [0.3, 0.9])
        empty = tmp_path / "empty.csv"
        empty.write_text("# only comments\n")
        with pytest.raises(ValueError, match="empty"):
            dist_from_file(empty)
        bad = tmp_path / "bad.csv"
        bad.write_text("1000,0.5,extra\n")
        with pytest.raises(ValueError, match="bad.csv:1"):
            dist_from_file(bad)
        with pytest.raises(ValueError, match="scale"):
            dist_from_file(bad, scale=0.0)


class TestSystemIntegration:
    def test_constant_process_reproduces_legacy_run_bytewise(self):
        # The acceptance contract: a constant-rate config routed
        # through popload is indistinguishable from the legacy path.
        legacy = make_system("1x16", "herd", seed=3)
        res_legacy = legacy.run_point(1.0, num_requests=2000)
        routed = make_system("1x16", "herd", seed=3)
        routed.arrival_process = StationaryPoisson(1.0e6)
        res_routed = routed.run_point(1.0, num_requests=2000)
        assert (
            res_legacy.point.summary.p99 == res_routed.point.summary.p99
        )
        assert (
            res_legacy.point.achieved_throughput
            == res_routed.point.achieved_throughput
        )
        assert res_legacy.point.summary.mean == res_routed.point.summary.mean

    def test_rejects_non_process(self):
        system = make_system("1x16", "herd", seed=0)
        system.arrival_process = object()
        with pytest.raises(TypeError, match="ArrivalProcess"):
            system.run_point(1.0, num_requests=10)

    def test_diurnal_process_shifts_the_tail(self):
        n = 2500
        load = 1.4
        horizon = n / (load * 1e6) * 1e9
        flat = make_system("1x16", "herd", seed=6)
        res_flat = flat.run_point(load, num_requests=n)
        shaped = make_system("1x16", "herd", seed=6)
        shaped.arrival_process = NonhomogeneousPoisson(
            DiurnalRate(load * 1e6, 0.85, period_ns=horizon)
        )
        res_shaped = shaped.run_point(load, num_requests=n)
        assert res_shaped.point.summary.p99 != res_flat.point.summary.p99

    def test_offered_rate_telemetry_track(self):
        from repro.telemetry import probes

        n = 2000
        load = 1.0
        horizon = n / (load * 1e6) * 1e9
        system = make_system("1x16", "herd", seed=1, telemetry=True)
        system.arrival_process = NonhomogeneousPoisson(
            DiurnalRate(load * 1e6, 0.6, period_ns=horizon)
        )
        result = system.run_point(load, num_requests=n)
        series = result.telemetry.series[probes.OFFERED_RATE]
        values = np.asarray(series.values, dtype=float)
        assert values.max() > 1.3e6
        assert values.min() < 0.7e6
        # The sampler's last tick may precede the final few arrivals.
        generated = result.telemetry.series[probes.OFFERED_ARRIVALS]
        assert 0.9 * n <= max(generated.values) <= n

    def test_cluster_arrival_process(self):
        from repro.cluster import Cluster

        baseline = Cluster(num_nodes=4, seed=9).run(0.7, 1500)
        horizon = 1500 / 0.7e6 * 1e9
        shaped = Cluster(
            num_nodes=4,
            seed=9,
            arrival_process=NonhomogeneousPoisson(
                DiurnalRate(0.7e6, 0.6, period_ns=horizon)
            ),
        ).run(0.7, 1500)
        assert shaped.completed == baseline.completed
        assert shaped.aggregate.p99 != baseline.aggregate.p99
        with pytest.raises(TypeError, match="ArrivalProcess"):
            Cluster(num_nodes=2, seed=0, arrival_process=object())


class TestDiurnalExperiment:
    def test_make_arrival_process_kinds(self):
        from repro.experiments.diurnal import make_arrival_process

        horizon = 1e7
        constant = make_arrival_process("constant", 1e6, horizon)
        assert isinstance(constant, StationaryPoisson)
        diurnal = make_arrival_process("diurnal", 1e6, horizon)
        assert isinstance(diurnal, PopulationProcess)
        # Equal-average contract: the profile's mean over the run
        # horizon equals the nominal rate for every kind.
        assert diurnal.profile.mean_rate(horizon) == pytest.approx(1e6)
        flash = make_arrival_process("flash", 1e6, horizon)
        assert isinstance(flash, NonhomogeneousPoisson)
        assert flash.profile.mean_rate(horizon) == pytest.approx(1e6)
        with pytest.raises(ValueError, match="unknown profile kind"):
            make_arrival_process("weekly", 1e6, horizon)
        with pytest.raises(ValueError, match="positive"):
            make_arrival_process("constant", 0.0, horizon)
        with pytest.raises(ValueError, match="positive"):
            make_arrival_process("constant", 1e6, 0.0)

    def test_engine_resolution(self):
        from repro.experiments.diurnal import run_diurnal

        # The single-chip scheme surrogates are outside the fluid
        # tier's capability set: requesting it explicitly raises with
        # the supported alternatives instead of silently degrading.
        with pytest.raises(ValueError, match="does not support"):
            run_diurnal(profile="smoke", engine="fluid")

    def test_smoke_run_structure_and_worker_determinism(self):
        from repro.experiments.diurnal import PROFILE_KINDS, run_diurnal

        serial = run_diurnal(profile="smoke", seed=0, workers=1)
        parallel = run_diurnal(profile="smoke", seed=0, workers=2)
        assert serial.table() == parallel.table()
        # auto resolves to the fast tier for the single-chip sweep.
        assert serial.data["engine"] == "fast"
        capacity = serial.data["capacity"]
        for scheme in ("1x16", "16x1"):
            assert set(capacity[scheme]) == set(PROFILE_KINDS)
            # Measurable degradation under shaped load for BOTH
            # policies (the acceptance criterion).
            assert capacity[scheme]["diurnal"] < 0.8 * capacity[scheme][
                "constant"
            ]
            assert capacity[scheme]["flash"] < 0.8 * capacity[scheme][
                "constant"
            ]
        assert len(serial.data["sweeps"]) == 6
        assert serial.findings
