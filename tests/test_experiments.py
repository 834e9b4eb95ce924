"""Experiment drivers: every figure regenerates with the right shape."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    PROFILES,
    distribution_moments,
    load_grid,
    run_fig2a,
    run_fig2b,
    run_fig2c,
    run_fig6,
    run_fig7a,
    run_fig8,
    run_outstanding_ablation,
    unit_mean_service,
)
from repro.experiments.common import get_profile, tier_check


class TestCommon:
    def test_profiles_exist(self):
        assert {"smoke", "quick", "full"} <= set(PROFILES)
        assert PROFILES["full"].arch_requests > PROFILES["quick"].arch_requests

    def test_get_profile_unknown(self):
        with pytest.raises(ValueError):
            get_profile("publication")

    def test_load_grid(self):
        grid = load_grid(0.1, 0.9, 5)
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(0.9)
        with pytest.raises(ValueError):
            load_grid(0.9, 0.1, 5)
        with pytest.raises(ValueError):
            load_grid(0.1, 0.9, 1)

    def test_unit_mean_service(self):
        for kind in ("fixed", "uniform", "exponential", "gev"):
            assert unit_mean_service(kind).mean == pytest.approx(1.0, rel=0.01)

    def test_registry_covers_all_figures(self):
        expected = {
            "fig2a", "fig2b", "fig2c", "fig6", "fig7a", "fig7b", "fig7c",
            "fig8", "fig9", "headline",
        }
        assert expected <= set(EXPERIMENTS)


class TestTierCheck:
    def test_delta_signs_are_candidate_over_reference(self):
        table, data, finding = tier_check(
            [("a", {"p50_ns": 100.0, "p99_ns": 200.0},
              {"p50_ns": 110.0, "p99_ns": 190.0})],
            "des", "fast", "title",
        )
        deltas = data["deltas"]["a"]
        assert deltas["p50_delta"] == pytest.approx(0.10)
        assert deltas["p99_delta"] == pytest.approx(-0.05)
        assert "+10.0%" in table and "-5.0%" in table
        assert table.startswith("title\n")
        assert "des p50 (ns)" in table and "fast p99 (ns)" in table
        assert finding.startswith("fast-vs-des p50/p99 agreement is within 10.0%")

    def test_worst_spans_both_percentiles_and_all_pairs(self):
        _, data, finding = tier_check(
            [("p99-heavy", {"p50_ns": 100.0, "p99_ns": 100.0},
              {"p50_ns": 101.0, "p99_ns": 92.0}),
             ("p50-heavy", {"p50_ns": 100.0, "p99_ns": 100.0},
              {"p50_ns": 88.0, "p99_ns": 103.0})],
            "fast", "fluid", "t",
        )
        assert data["worst_abs_delta"] == pytest.approx(0.12)
        assert set(data) == {"deltas", "worst_abs_delta"}
        assert "(worst: p50-heavy)" in finding

    def test_wall_lines_only_when_both_rows_carry_wall_s(self):
        ref = {"p50_ns": 1.0, "p99_ns": 2.0}
        table, _, _ = tier_check(
            [("timed", dict(ref, wall_s=0.5), dict(ref, wall_s=0.25)),
             ("half", dict(ref, wall_s=0.5), dict(ref)),
             ("untimed", ref, ref)],
            "des", "fast", "t",
        )
        walls = [line for line in table.splitlines() if " took " in line]
        assert walls == ["  [timed des took 0.500s, fast took 0.250s]"]
        table, _, _ = tier_check([("x", ref, ref)], "des", "fast", "t")
        assert " took " not in table

    def test_empty_pairs_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            tier_check([], "des", "fast", "t")


class TestFig2:
    def test_fig2a_ordering(self):
        result = run_fig2a(profile="smoke", seed=1)
        p99s = result.data["high_load_p99"]
        # Fig 2a: performance proportional to U.
        assert p99s["1x16"] < p99s["4x4"] < p99s["16x1"]
        assert p99s["1x16"] < p99s["2x8"]
        assert p99s["8x2"] < p99s["16x1"]
        assert result.table()  # renders

    def test_fig2b_variance_ordering(self):
        result = run_fig2b(profile="smoke", seed=1)
        p99s = result.data["pre_saturation_p99"]
        assert p99s["fixed"] <= p99s["uniform"] <= p99s["exponential"] <= p99s["gev"]

    def test_fig2c_gap_larger_than_fig2b(self):
        # The 16x1/1x16 gap grows with variance (GEV worst).
        single = run_fig2b(profile="smoke", seed=1).data["pre_saturation_p99"]
        partitioned = run_fig2c(profile="smoke", seed=1).data["pre_saturation_p99"]
        for kind in ("fixed", "uniform", "exponential", "gev"):
            assert partitioned[kind] > single[kind]
        gev_gap = partitioned["gev"] / single["gev"]
        fixed_gap = partitioned["fixed"] / single["fixed"]
        assert gev_gap > fixed_gap


class TestFig6:
    def test_moments_table(self):
        result = run_fig6(profile="smoke", seed=0)
        data = result.data
        assert data["herd"]["mean_analytic"] == pytest.approx(330.0)
        assert data["masstree_get"]["mean_analytic"] == pytest.approx(1250.0)
        for kind in ("fixed", "uniform", "exponential", "gev"):
            assert data[kind]["mean_analytic"] == pytest.approx(600.0, rel=0.01)

    def test_distribution_moments_fields(self):
        from repro.dists import herd

        moments = distribution_moments(herd(), 10_000, seed=0)
        assert set(moments) == {
            "mean_analytic", "mean_sampled", "cv2", "p50", "p99", "max",
        }
        assert moments["p99"] >= moments["p50"]


class TestFig7a:
    def test_scheme_ordering_under_slo(self):
        result = run_fig7a(profile="smoke", seed=0)
        sweeps = result.data["sweeps"]
        slo = result.data["slo_ns"]
        single = sweeps["1x16"].throughput_under_slo(slo)
        grouped = sweeps["4x4"].throughput_under_slo(slo)
        partitioned = sweeps["16x1"].throughput_under_slo(slo)
        assert single >= grouped >= partitioned
        assert single > 0

    def test_measured_service_time_near_paper(self):
        result = run_fig7a(profile="smoke", seed=0)
        # Paper: S̄ ≈ 550ns for HERD.
        assert result.data["mean_service_ns"] == pytest.approx(550.0, rel=0.05)


class TestFig8:
    def test_hardware_beats_software(self):
        result = run_fig8(profile="smoke", seed=0)
        for kind, ratio in result.data["ratios"].items():
            assert ratio > 1.5, kind

    def test_tables_render(self):
        result = run_fig8(profile="smoke", seed=0)
        text = result.table()
        assert "fixed_hw" in text
        assert "fixed_sw" in text


class TestAblations:
    def test_outstanding_ablation_structure(self):
        result = run_outstanding_ablation(profile="smoke", seed=0)
        assert set(result.data["by_limit"]) == {1, 2, 4}
        for stats in result.data["by_limit"].values():
            assert stats["tput_mrps"] > 0


class TestFig7bc:
    def test_fig7b_shape(self):
        from repro.experiments import run_fig7b

        result = run_fig7b(profile="smoke", seed=0)
        sweeps = result.data["sweeps"]
        slo = result.data["slo_ns"]
        assert sweeps["16x1"].throughput_under_slo(slo) == 0.0
        assert sweeps["1x16"].throughput_under_slo(slo) > 2.0

    def test_fig7c_shape(self):
        from repro.experiments import run_fig7c

        result = run_fig7c(profile="smoke", seed=0, kinds=("gev",))
        sweeps = result.data["sweeps"]["gev"]
        slo = result.data["slo_ns_gev"]
        assert sweeps["1x16_gev"].throughput_under_slo(slo) >= sweeps[
            "16x1_gev"
        ].throughput_under_slo(slo)


class TestFig9:
    def test_within_band(self):
        from repro.experiments import run_fig9

        result = run_fig9(profile="smoke", seed=0)
        for kind in ("fixed", "gev"):
            assert result.data[kind]["worst_gap"] < 0.35

    def test_model_and_sim_same_grid(self):
        from repro.experiments import model_vs_simulation

        panel = model_vs_simulation("exponential", "smoke", 0)
        model_loads = [p.offered_load for p in panel["model"].points]
        sim_loads = [p.offered_load for p in panel["sim"].points]
        assert model_loads == sim_loads


class TestExtensions:
    def test_validate_driver(self):
        from repro.experiments import run_validate

        result = run_validate(profile="smoke", seed=0)
        assert result.data["worst_error"] < 0.15
        assert "closed-form" in result.table()

    def test_dynamic_slots_driver(self):
        from repro.experiments import run_dynamic_slots

        result = run_dynamic_slots(profile="smoke", seed=0)
        static = result.data["static"]
        pooled = result.data["dynamic_512"]
        assert pooled["recv_footprint_mib"] < static["recv_footprint_mib"]

    def test_scalability_driver(self):
        from repro.experiments import run_scalability_ablation

        result = run_scalability_ablation(profile="smoke", seed=0)
        by_cores = result.data["by_cores"]
        assert set(by_cores) == {4, 16, 64}
        # Busy fraction grows with core count but stays below 50%.
        assert (
            by_cores[4]["dispatcher_busy"]
            < by_cores[16]["dispatcher_busy"]
            < by_cores[64]["dispatcher_busy"]
            < 0.5
        )


class TestClusterAndSprayDrivers:
    def test_cluster_driver(self):
        from repro.experiments import run_cluster

        result = run_cluster(profile="smoke", seed=0)
        single = result.data["1x16/node"]
        partitioned = result.data["16x1/node"]
        assert single["p99_ns"] < partitioned["p99_ns"]
        assert single["total_tput_mrps"] == pytest.approx(
            partitioned["total_tput_mrps"], rel=0.05
        )

    def test_rss_spray_driver(self):
        from repro.experiments import run_rss_spray

        result = run_rss_spray(profile="smoke", seed=0)
        by_config = result.data["by_config"]
        assert len(by_config) == 6
        # Under sender skew, per-source RSS collapses...
        rss_skewed = by_config["16x1 per-source (RSS)/skew=1.2"]
        rss_uniform = by_config["16x1 per-source (RSS)/skew=0"]
        assert rss_skewed["tput_mrps"] < 0.6 * rss_uniform["tput_mrps"]
        assert rss_skewed["stall_fraction"] > 0.1
        # ... while RPCValet's dispatch is skew-blind.
        valet_skewed = by_config["1x16 (RPCValet)/skew=1.2"]
        valet_uniform = by_config["1x16 (RPCValet)/skew=0"]
        assert valet_skewed["p99_ns"] == pytest.approx(
            valet_uniform["p99_ns"], rel=0.15
        )


class TestExtensionDriversSmoke:
    def test_preemption_driver(self):
        from repro.experiments import run_preemption

        result = run_preemption(profile="smoke", seed=0)
        assert "run_to_completion_get_p99_us" in result.data
        # The best quantum never makes the get tail materially worse.
        best = min(
            result.data[f"quantum_{q}us_get_p99_us"] for q in ("5", "10", "15")
        )
        assert best <= 1.1 * result.data["run_to_completion_get_p99_us"]

    def test_hedging_driver(self):
        from repro.experiments import run_hedging

        result = run_hedging(profile="smoke", seed=0)
        for row in result.data.values():
            # The single queue dominates hedged duplication everywhere.
            assert row["single_queue_p99"] <= row["hedged_p99"]

    def test_straggler_driver(self):
        from repro.experiments import run_straggler_ablation

        result = run_straggler_ablation(profile="smoke", seed=0)
        by_config = result.data["by_config"]
        assert (
            by_config["16x1/1 straggler core"]["p99_ns"]
            > by_config["1x16/1 straggler core"]["p99_ns"]
        )


class TestBurstsDriver:
    def test_two_regimes(self):
        from repro.experiments import run_bursts

        result = run_bursts(profile="smoke", seed=0)
        stationary = result.data["stationary 0.6"]["ratio"]
        sub_capacity = result.data["bursts to 0.95x capacity"]["ratio"]
        overload = result.data["bursts to 2.5x capacity"]["ratio"]
        # Sub-capacity bursts widen the gap; overload bursts compress it.
        assert sub_capacity > stationary
        assert overload < stationary
        # Absolute tails explode under overload bursts for both systems.
        assert (
            result.data["bursts to 2.5x capacity"]["single_p99"]
            > 5 * result.data["stationary 0.6"]["single_p99"]
        )
