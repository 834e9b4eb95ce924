"""Tiered simulation core: engine selection, the fast tier's golden
outputs and input validation, and the DES <-> fast <-> fluid
equivalence bands documented in EXPERIMENTS.md."""

import numpy as np
import pytest

from repro.datacenter import (
    DatacenterTopology,
    rack_power_loss,
    simulate_datacenter_fast,
)
from repro.faults import FaultPlan
from repro.faults.plan import FabricDegradation, NodeCrash
from repro.fastpath import (
    DEFAULT_FLUID_THRESHOLD,
    ENGINES,
    fast_scheme_sweep,
    fluid_tail_measure,
    resolve_engine,
    simulate_cluster_fluid,
    simulate_rack_fast,
)
from repro.fastpath import fastcluster
from repro.popload import DiurnalRate, NonhomogeneousPoisson


def _golden_key(result, holds=None):
    aggregate = result.aggregate
    return (
        aggregate.p50,
        aggregate.p99,
        aggregate.mean,
        list(result.per_node_completed),
        result.lost,
        list(result.stall_fractions),
        result.router_stats.signal_error_sum,
        holds,
    )


def _rack(**kwargs):
    base = dict(num_nodes=4, per_node_mrps=24.0, requests_per_node=250, seed=7)
    base.update(kwargs)
    return lambda: _golden_key(simulate_rack_fast(**base))


def _dc(topology, **kwargs):
    base = dict(per_node_mrps=24.0, requests_per_node=200, seed=11)
    base.update(kwargs)

    def run():
        audit = {}
        result = simulate_datacenter_fast(topology, _audit=audit, **base)
        return _golden_key(result, audit["holds"])

    return run


def _golden_cases():
    """Rack policy x signal x scheme plus edge runs, and every hierarchy."""
    cases = {}
    for policy in ("random", "rr", "jsq2", "sed"):
        # State-independent policies never read the signal.
        load_aware = policy in ("jsq2", "sed")
        signals = ("fresh", "piggyback", "broadcast:2000") if load_aware else ("fresh",)
        for signal in signals:
            for scheme in ("1x16", "16x1"):
                cases[f"rack/{policy}/{signal}/{scheme}"] = _rack(
                    policy=policy, signal=signal, scheme=scheme
                )
    cases["rack/jsq2/skew0.9"] = _rack(
        num_nodes=6, policy="jsq2", signal="piggyback", skew=0.9
    )
    cases["rack/random/slots-bind"] = _rack(
        policy="random", skew=0.9, send_slots_per_node=2
    )
    cases["rack/jsq3/slots-bind"] = _rack(
        num_nodes=6, policy="jsq3", per_node_mrps=26.0, send_slots_per_node=1
    )
    cases["rack/sed/hetero"] = _rack(
        policy="sed",
        core_counts=[16, 8, 16, 8],
        speed_factors=[1.0, 0.5, 1.0, 1.5],
        per_node_mrps=14.0,
    )
    horizon_ns = 250 / 20.0 * 1e3
    cases["rack/jsq2/diurnal+faults"] = _rack(
        num_nodes=6,
        policy="jsq2",
        signal="piggyback",
        per_node_mrps=20.0,
        arrival_process=NonhomogeneousPoisson(DiurnalRate(20e6, 0.5, 5e3)),
        faults=FaultPlan(
            crash_rate_hz=2e4, slowdown_rate_hz=2e4, drop_prob=0.01,
            spike_prob=0.02, spike_ns=1_500.0, dup_prob=0.01,
        ),
    )
    cases["rack/random/16x1/crash+fabric"] = _rack(
        policy="random",
        scheme="16x1",
        per_node_mrps=20.0,
        faults=FaultPlan(
            events=(
                NodeCrash(node=1, at_ns=0.2 * horizon_ns,
                          outage_ns=0.3 * horizon_ns),
                FabricDegradation(
                    at_ns=0.5 * horizon_ns, duration_ns=0.3 * horizon_ns,
                    drop_prob=0.05, spike_prob=0.1, spike_ns=2_000.0,
                ),
            )
        ),
    )
    topo = DatacenterTopology(4, 4)
    cases["dc/flat/jsq2"] = _dc(topo, hierarchy="flat", policy="jsq2", skew=0.5)
    cases["dc/flat/sed"] = _dc(topo, hierarchy="flat", policy="sed")
    cases["dc/racksched/jsq2"] = _dc(
        topo, hierarchy="racksched", policy="jsq2", skew=0.6
    )
    cases["dc/racksched/random/faults"] = _dc(
        topo,
        hierarchy="racksched",
        policy="random",
        faults=rack_power_loss(topo, 1, at_ns=2e3, outage_ns=3e3),
    )
    cases["dc/jbsq/random/k4"] = _dc(
        topo, hierarchy="jbsq", policy="random", skew=0.8, jbsq_k=4,
        per_node_mrps=26.0,
    )
    cases["dc/jbsq/jsq2/faults"] = _dc(
        topo, hierarchy="jbsq", policy="jsq2", skew=0.8, jbsq_k=4,
        per_node_mrps=26.0,
        faults=FaultPlan(crash_rate_hz=3e4, drop_prob=0.01),
    )
    cases["dc/nanopu/sed/mixed"] = _dc(
        DatacenterTopology.mixed_generations(4, 4, old_racks=1),
        hierarchy="nanopu",
        policy="sed",
        per_node_mrps=20.0,
    )
    return cases


GOLDEN_CASES = _golden_cases()

#: Exact (p50, p99, mean, per_node_completed, lost, stall_fractions,
#: signal_error_sum, JBSQ holds) per case, recorded before the rack and
#: datacenter loops were merged into one engine. Any change here means
#: the fast tier's outputs moved.
GOLDEN = {
    "rack/random/fresh/1x16": (
        570.4558323613869, 1106.694310067334, 599.4304352707603,
        [238, 252, 261, 249],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/random/fresh/16x1": (
        1018.5661457627176, 3424.340729024088, 1233.982185168924,
        [238, 252, 261, 249],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/rr/fresh/1x16": (
        555.7590879457375, 1099.7394552997239, 586.0531329853429,
        [250, 250, 250, 250],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/rr/fresh/16x1": (
        889.1274208690548, 3460.688872812471, 1125.5751753789073,
        [250, 250, 250, 250],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/jsq2/fresh/1x16": (
        554.3657371618692, 1099.6831563869325, 583.075579351789,
        [240, 261, 252, 247],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/jsq2/fresh/16x1": (
        1029.9955439500422, 3999.27846056739, 1276.8417680995017,
        [258, 263, 243, 236],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/jsq2/piggyback/1x16": (
        565.7695719363765, 1121.1733530919582, 600.7883535542799,
        [241, 251, 258, 250],
        0, [0.0] * 4, 2939.0, None,
    ),
    "rack/jsq2/piggyback/16x1": (
        1007.1820022653495, 3348.9302686108667, 1185.2529912704972,
        [244, 253, 261, 242],
        0, [0.0] * 4, 2821.0, None,
    ),
    "rack/jsq2/broadcast:2000/1x16": (
        704.2377290256411, 2171.800088086093, 840.2751541262203,
        [250, 253, 260, 237],
        0, [0.0] * 4, 15910.0, None,
    ),
    "rack/jsq2/broadcast:2000/16x1": (
        1106.4006824119574, 3766.9927542257246, 1317.8960766043792,
        [234, 250, 240, 276],
        0, [0.0] * 4, 14674.0, None,
    ),
    "rack/sed/fresh/1x16": (
        554.3657371618692, 1099.6831563869325, 582.0969342919997,
        [241, 259, 252, 248],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/sed/fresh/16x1": (
        983.0141800550169, 3518.871090886638, 1173.2011466616718,
        [236, 253, 260, 251],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/sed/piggyback/1x16": (
        573.8918100079945, 1140.8954171035155, 600.3744353125318,
        [239, 261, 260, 240],
        0, [0.0] * 4, 3248.0, None,
    ),
    "rack/sed/piggyback/16x1": (
        980.776263409102, 4058.649245306403, 1201.0524742567961,
        [242, 267, 250, 241],
        0, [0.0] * 4, 3627.0, None,
    ),
    "rack/sed/broadcast:2000/1x16": (
        1025.97115161263, 2897.9760443231016, 1191.9874242291926,
        [266, 251, 242, 241],
        0, [0.0, 0.0, 0.024, 0.036], 26489.0, None,
    ),
    "rack/sed/broadcast:2000/16x1": (
        1299.8132175036458, 4979.34338079311, 1653.3663222428443,
        [254, 210, 235, 301],
        0, [0.032, 0.072, 0.056, 0.004], 28601.0, None,
    ),
    "rack/jsq2/skew0.9": (
        584.4151078926193, 1155.1559666873532, 612.7939735465968,
        [277, 284, 254, 237, 232, 216],
        0, [0.0] * 6, 4669.0, None,
    ),
    "rack/random/slots-bind": (
        553.3025307290609, 1062.623937044882, 578.9336541546146,
        [414, 245, 198, 143],
        0, [0.968, 0.976, 0.976, 0.968], 0.0, None,
    ),
    "rack/jsq3/slots-bind": (
        553.0472442230703, 1063.8089760181458, 577.2411300766546,
        [247, 252, 246, 249, 251, 255],
        0, [0.976, 0.98, 0.98, 0.98, 0.98, 0.98], 0.0, None,
    ),
    "rack/sed/hetero": (
        524.904458834078, 1260.125676940199, 567.616189505222,
        [327, 51, 334, 288],
        0, [0.0] * 4, 0.0, None,
    ),
    "rack/jsq2/diurnal+faults": (
        621.1320592219381, 1507.089172371264, 672.0676009159362,
        [221, 140, 255, 218, 232, 258],
        176, [0.0] * 6, 5451.0, None,
    ),
    "rack/random/16x1/crash+fabric": (
        895.2886653130696, 4217.141226713975, 1256.4734587789285,
        [236, 175, 259, 249],
        81, [0.0] * 4, 0.0, None,
    ),
    "dc/flat/jsq2": (
        556.9663628123444, 1112.106408254275, 582.5145683030897,
        [218, 208, 211, 200, 213, 206, 201, 205, 198, 192, 200, 196, 188, 179, 192, 193],
        0, [0.0] * 16, 0.0, 0,
    ),
    "dc/flat/sed": (
        554.7147240401872, 1112.106408254275, 579.5282409606417,
        [196, 197, 196, 197, 197, 197, 200, 201, 204, 192, 209, 205, 198, 208, 203, 200],
        0, [0.0] * 16, 0.0, 0,
    ),
    "dc/racksched/jsq2": (
        552.1970902082589, 1112.106408254275, 577.7245602481328,
        [206, 204, 205, 197, 200, 198, 203, 202, 196, 198, 209, 189, 197, 195, 198, 203],
        0, [0.0] * 16, 0.0, 0,
    ),
    "dc/racksched/random/faults": (
        557.6523346699842, 1119.786048293041, 584.5757384201963,
        [208, 209, 216, 199, 125, 130, 123, 127, 201, 205, 206, 199, 198, 186, 195, 197],
        276, [0.0] * 16, 0.0, 0,
    ),
    "dc/jbsq/random/k4": (
        11630.440896169835, 42635.95531320839, 15454.194038011367,
        [350, 350, 356, 352, 192, 198, 195, 191, 137, 144, 139, 140, 111, 118, 115, 112],
        0, [0.0] * 16, 0.0, 3136,
    ),
    "dc/jbsq/jsq2/faults": (
        11099.127228915395, 19371.39657513636, 11126.812266938005,
        [190, 186, 185, 190, 186, 181, 195, 180, 184, 191, 185, 187, 188, 184, 191, 187],
        210, [0.0] * 16, 0.0, 2926,
    ),
    "dc/nanopu/sed/mixed": (
        387.5191409712834, 1031.7348690371566, 418.02247697137255,
        [229, 230, 221, 231, 232, 229, 230, 231, 219, 226, 229, 226, 118, 117, 124, 108],
        0, [0.0] * 16, 0.0, 0,
    ),
}


class TestFastGolden:
    def test_grid_is_complete(self):
        assert set(GOLDEN_CASES) == set(GOLDEN)

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_matches_recorded_outputs(self, case):
        assert GOLDEN_CASES[case]() == GOLDEN[case]


@pytest.mark.parametrize(
    "engine, kwargs, match",
    [
        ("rack", dict(policy="jsq2", send_slots_per_node=0), "send_slots_per_node"),
        ("rack", dict(policy="jsq2", send_slots_per_node=-1), "send_slots_per_node"),
        ("rack", dict(warmup_fraction=-0.5), "warmup_fraction"),
        ("rack", dict(warmup_fraction=1.0), "warmup_fraction"),
        ("dc", dict(warmup_fraction=1.0), "warmup_fraction"),
        ("rack", dict(core_counts=[16, 16, 16]), "core_counts has 3 entries"),
        ("rack", dict(core_counts=[16, 0, 16, 16]), "core counts"),
        ("dc", dict(cores=0), "core counts"),
        ("rack", dict(speed_factors=[1.0, 1.0]), "speed_factors has 2 entries"),
        ("rack", dict(speed_factors=[1.0, 0.0, 1.0, 1.0]), "speed_factors"),
        ("rack", dict(per_node_mrps=float("nan")), "per_node_mrps"),
        ("dc", dict(requests_per_node=0), "requests_per_node"),
    ],
)
def test_invalid_configs_raise_actionable_errors(engine, kwargs, match):
    with pytest.raises(ValueError, match=match):
        if engine == "rack":
            simulate_rack_fast(4, requests_per_node=100, **kwargs)
        else:
            simulate_datacenter_fast(
                DatacenterTopology(2, 2), **{"requests_per_node": 100, **kwargs}
            )


class TestEngineSelection:
    def test_known_engines(self):
        assert ENGINES == ("des", "fast", "fluid", "auto")

    def test_explicit_engines_pass_through(self):
        for engine in ("des", "fast", "fluid"):
            assert resolve_engine(engine, 4) == engine
            assert resolve_engine(engine, 10_000) == engine

    def test_auto_switches_at_threshold(self):
        assert resolve_engine("auto", DEFAULT_FLUID_THRESHOLD) == "fast"
        assert resolve_engine("auto", DEFAULT_FLUID_THRESHOLD + 1) == "fluid"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("warp", 4)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fluid")
        assert resolve_engine("fast", 4) == "fluid"
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError):
            resolve_engine("fast", 4)


class TestFastDeterminism:
    def test_same_seed_bit_identical(self):
        runs = [
            simulate_rack_fast(
                4, policy="jsq2", per_node_mrps=24.0,
                requests_per_node=800, seed=3,
            )
            for _ in range(2)
        ]
        assert runs[0].aggregate.mean == runs[1].aggregate.mean
        assert runs[0].p99_ns == runs[1].p99_ns
        assert runs[0].per_node_completed == runs[1].per_node_completed

    def test_seed_actually_matters(self):
        a = simulate_rack_fast(4, policy="random", requests_per_node=800, seed=0)
        b = simulate_rack_fast(4, policy="random", requests_per_node=800, seed=1)
        assert a.aggregate.mean != b.aggregate.mean

    def test_fast_sweep_worker_count_invariant(self):
        """fast_scheme_sweep seeds per (experiment, label, index), so the
        points are independent of any fan-out — recomputing one point in
        isolation must reproduce the full-sweep value bit-for-bit."""
        from repro.dists import synthetic

        loads = [4.0, 8.0, 12.0]
        full = fast_scheme_sweep(
            "1x16", synthetic("fixed"), loads, 2_000, 0, 700.0, label="one"
        )
        lone = fast_scheme_sweep(
            "1x16", synthetic("fixed"), loads[1:2], 2_000, 0, 700.0, label="one"
        )
        # Index participates in the seed: point 1 recomputed as index 0
        # differs, the full sweep re-run matches.
        again = fast_scheme_sweep(
            "1x16", synthetic("fixed"), loads, 2_000, 0, 700.0, label="one"
        )
        for mine, theirs in zip(full.points, again.points):
            assert mine.summary.p99 == theirs.summary.p99
            assert mine.achieved_throughput == theirs.achieved_throughput
        assert (
            lone.points[0].achieved_throughput
            != full.points[1].achieved_throughput
        )


class TestDesFastEquivalence:
    """Tolerance bands from EXPERIMENTS.md ("Engine tiers"): the fast
    tier tracks the DES cluster within 15% on mean and p99 at the
    mid-load operating point the rack sweeps use."""

    @pytest.mark.parametrize("policy", ["random", "jsq2"])
    def test_mid_load_band(self, policy):
        from repro.balancing import SingleQueue
        from repro.cluster import Cluster
        from repro.rack import RackRouter

        cluster = Cluster(
            num_nodes=4,
            scheme_factory=SingleQueue,
            seed=0,
            router=RackRouter(policy, "fresh"),
        )
        des = cluster.run(per_node_mrps=24.0, requests_per_node=1_200)
        fast = simulate_rack_fast(
            4, policy=policy, per_node_mrps=24.0,
            requests_per_node=1_200, seed=0,
        )
        assert fast.aggregate.mean == pytest.approx(
            des.aggregate.mean, rel=0.15
        )
        assert fast.p99_ns == pytest.approx(des.p99_ns, rel=0.15)


class TestFluidTier:
    def test_tail_measure_shape(self):
        s = fluid_tail_measure(12.0, 16, choices=2)
        assert s[0] == 1.0
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all((s >= 0.0) & (s <= 1.0))
        # Flow balance at the fixed point: total drain equals arrivals.
        drain = np.minimum(np.arange(1, s.size), 16)
        assert float((drain * (s[1:] - np.append(s[2:], 0.0))).sum()) == (
            pytest.approx(12.0, rel=1e-3)
        )

    def test_more_choices_thinner_tail(self):
        d1 = fluid_tail_measure(13.0, 16, choices=1)
        d2 = fluid_tail_measure(13.0, 16, choices=2)
        deep = 24  # well past the server count
        assert d2[deep] <= d1[deep]

    def test_unstable_load_rejected(self):
        with pytest.raises(ValueError):
            fluid_tail_measure(16.0, 16, choices=2)
        with pytest.raises(ValueError):
            simulate_cluster_fluid(64, per_node_mrps=50.0, mean_service_ns=400.0)

    def test_random_matches_erlang_c_mean(self):
        """With exponential service the random-policy fluid node is an
        exact M/M/c; its mean sojourn must match the analytic formula."""
        from repro.queueing.analytic import erlang_c

        cores, mean_ns, mrps = 16, 500.0, 24.0
        offered = mrps * 1e-3 * mean_ns
        result = simulate_cluster_fluid(
            64, policy="random", per_node_mrps=mrps, cores=cores,
            mean_service_ns=mean_ns, seed=1,
        )
        wait = erlang_c(cores, offered) * mean_ns / (cores - offered)
        assert result.aggregate.mean == pytest.approx(mean_ns + wait, rel=0.02)

    def test_fluid_tracks_fast_at_overlap(self):
        """Cross-tier band at a size both tiers can run: p99 within 15%
        (measured agreement is ~2% at 64 nodes, see EXPERIMENTS.md)."""
        from repro.workloads import HerdWorkload

        workload = HerdWorkload()
        overhead, _shift = fastcluster.calibrated_scheme_profile("1x16", 16)
        fast = simulate_rack_fast(
            32, policy="jsq2", per_node_mrps=24.0,
            requests_per_node=1_000, seed=0,
        )
        fluid = simulate_cluster_fluid(
            32, policy="jsq2", per_node_mrps=24.0,
            mean_service_ns=workload.mean_processing_ns + overhead,
            seed=0, workload=workload, overhead_ns=overhead,
        )
        assert fluid.p99_ns == pytest.approx(fast.p99_ns, rel=0.15)
        assert fluid.aggregate.mean == pytest.approx(
            fast.aggregate.mean, rel=0.15
        )

    def test_fluid_is_deterministic(self):
        runs = [
            simulate_cluster_fluid(256, policy="jsq2", seed=9)
            for _ in range(2)
        ]
        assert runs[0].aggregate.mean == runs[1].aggregate.mean
        assert runs[0].p99_ns == runs[1].p99_ns


class TestFastChipAchieved:
    def test_stable_load_tracks_offered(self):
        """The DES-mirroring achieved metric must report ~offered load
        for a clearly stable point (this gate drives the headline run's
        sustained-tail filter)."""
        from repro.dists import synthetic

        sweep = fast_scheme_sweep(
            "1x16", synthetic("fixed"), [8.0], 20_000, 0, 600.0, label="s"
        )
        point = sweep.points[0]
        assert point.achieved_throughput == pytest.approx(8.0, rel=0.05)

    def test_saturated_load_capped(self):
        from repro.dists import synthetic

        # Capacity is 16 / 0.6us ~ 26.7 MRPS; offer 40.
        sweep = fast_scheme_sweep(
            "1x16", synthetic("fixed"), [40.0], 20_000, 0, 600.0, label="s"
        )
        point = sweep.points[0]
        assert point.achieved_throughput < 0.9 * 40.0


class TestScaleDriver:
    def test_smoke_run(self):
        from repro.experiments.scale import run_scale

        result = run_scale("smoke", seed=0)
        assert result.data["largest_nodes"] == 1024
        assert result.data["advantage_at_largest"] > 1.0
        for entry in result.data["overlap"].values():
            assert abs(entry["p99_delta"]) < 0.15
        # Every grid size reports a wall clock.
        for row in result.data["points"].values():
            assert row["wall_s"] >= 0.0

    @pytest.mark.parametrize("profile", ["smoke", "quick"])
    def test_forced_des_refuses_large_rungs_before_running(self, profile, monkeypatch):
        from repro.experiments import scale

        def no_simulation(*args, **kwargs):
            raise AssertionError("ext-scale simulated before refusing the DES request")

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setattr(scale, "map_points", no_simulation)
        with pytest.raises(ValueError, match="--engine auto") as refusal:
            scale.run_scale(profile, engine="des")
        message = str(refusal.value)
        assert f"at most {scale.DES_MAX_NODES} nodes" in message
        assert "1024/random/des" in message and "shaped/256/jsq2/des" in message
        assert "16/random/des" not in message
