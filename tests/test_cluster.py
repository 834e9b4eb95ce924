"""Multi-node cluster simulation."""

import pytest

from repro.balancing import Partitioned, SingleQueue
from repro.cluster import Cluster, PodFabric, UniformFabric
from repro.fastpath import simulate_rack_fast
from repro.popload import StationaryPoisson
from repro.sim import Environment
from repro.workloads import SyntheticWorkload


class TestFabric:
    def test_uniform(self):
        fabric = UniformFabric(4, latency_ns=123.0)
        assert fabric.latency_ns(0, 3) == 123.0
        assert fabric.latency_ns(3, 0) == 123.0

    def test_self_loop_rejected(self):
        fabric = UniformFabric(4)
        with pytest.raises(ValueError):
            fabric.latency_ns(1, 1)

    def test_out_of_range(self):
        fabric = UniformFabric(4)
        with pytest.raises(ValueError):
            fabric.latency_ns(0, 4)

    def test_pod_fabric(self):
        fabric = PodFabric(6, pod_size=3, intra_pod_ns=50.0, inter_pod_ns=700.0)
        assert fabric.latency_ns(0, 2) == 50.0  # same pod
        assert fabric.latency_ns(0, 3) == 700.0  # across pods
        assert fabric.pod_of(5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformFabric(1)
        with pytest.raises(ValueError):
            UniformFabric(4, latency_ns=-1.0)
        with pytest.raises(ValueError):
            PodFabric(4, pod_size=0)


class TestCluster:
    def test_conservation(self):
        cluster = Cluster(num_nodes=3, seed=1)
        result = cluster.run(per_node_mrps=10.0, requests_per_node=2_000)
        assert result.completed == 3 * 2_000
        generated = sum(node.generated for node in cluster.nodes)
        assert generated == 3 * 2_000

    def test_default_arrivals_are_stationary_poisson_at_the_run_rate(self):
        default = Cluster(num_nodes=3, seed=5).run(12.0, 1_500)
        explicit = Cluster(
            num_nodes=3, seed=5, arrival_process=StationaryPoisson(12.0e6)
        ).run(12.0, 1_500)
        assert default.per_node == explicit.per_node
        assert default.aggregate == explicit.aggregate
        assert default.total_throughput_mrps == explicit.total_throughput_mrps

    def test_total_throughput_scales_with_nodes(self):
        small = Cluster(num_nodes=2, seed=1).run(10.0, 2_000)
        large = Cluster(num_nodes=4, seed=1).run(10.0, 2_000)
        assert large.total_throughput_mrps == pytest.approx(
            2 * small.total_throughput_mrps, rel=0.1
        )

    def test_balanced_across_nodes(self):
        cluster = Cluster(num_nodes=4, seed=2)
        result = cluster.run(per_node_mrps=15.0, requests_per_node=3_000)
        assert result.imbalance() < 1.2
        assert all(summary.count > 0 for summary in result.per_node)

    def test_single_queue_beats_partitioned_clusterwide(self):
        single = Cluster(num_nodes=3, scheme_factory=SingleQueue, seed=3).run(
            20.0, 3_000
        )
        partitioned = Cluster(
            num_nodes=3, scheme_factory=Partitioned, seed=3
        ).run(20.0, 3_000)
        assert single.p99_ns < partitioned.p99_ns

    def test_fabric_latency_does_not_change_server_latency(self):
        # §5 measures latency from NI reception to replenish post —
        # fabric delay shifts arrival times, not the measured window.
        near = Cluster(
            num_nodes=3, fabric=UniformFabric(3, 50.0), seed=4
        ).run(10.0, 2_000)
        far = Cluster(
            num_nodes=3, fabric=UniformFabric(3, 2_000.0), seed=4
        ).run(10.0, 2_000)
        assert far.aggregate.mean == pytest.approx(near.aggregate.mean, rel=0.1)

    def test_pod_fabric_runs(self):
        cluster = Cluster(
            num_nodes=4,
            fabric=PodFabric(4, pod_size=2, intra_pod_ns=50, inter_pod_ns=800),
            seed=5,
        )
        result = cluster.run(per_node_mrps=8.0, requests_per_node=1_000)
        assert result.completed == 4_000

    def test_custom_workload(self):
        cluster = Cluster(
            num_nodes=2, workload=SyntheticWorkload("gev"), seed=6
        )
        result = cluster.run(per_node_mrps=5.0, requests_per_node=1_500)
        assert result.completed == 3_000

    def test_reproducible(self):
        first = Cluster(num_nodes=3, seed=7).run(10.0, 1_500)
        second = Cluster(num_nodes=3, seed=7).run(10.0, 1_500)
        assert first.p99_ns == second.p99_ns

    def test_validation(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=1)
        with pytest.raises(ValueError):
            Cluster(num_nodes=3, fabric=UniformFabric(4))
        cluster = Cluster(num_nodes=2)
        with pytest.raises(ValueError):
            cluster.run(per_node_mrps=0.0, requests_per_node=10)
        with pytest.raises(ValueError):
            cluster.run(per_node_mrps=1.0, requests_per_node=0)

    def test_flow_control_under_overload(self):
        # Per-pair slots bound in-flight load; overload stalls senders
        # but conserves every request.
        cluster = Cluster(num_nodes=2, seed=8)
        result = cluster.run(per_node_mrps=40.0, requests_per_node=3_000)
        assert result.completed == 6_000
        assert max(result.stall_fractions) > 0.0


class TestClusterInterference:
    def test_degraded_node_visible_in_per_node_summaries(self):
        from repro.arch import PeriodicStragglers
        from repro.balancing import Partitioned

        def degrade_node_zero(node_id):
            if node_id == 0:
                # All 16 cores of node 0 stall 4µs every 12µs.
                return PeriodicStragglers(
                    list(range(16)), period_ns=12_000.0, pause_ns=4_000.0
                )
            return None

        cluster = Cluster(
            num_nodes=3,
            scheme_factory=Partitioned,
            seed=9,
            interference_factory=degrade_node_zero,
        )
        result = cluster.run(per_node_mrps=18.0, requests_per_node=3_000)
        assert result.completed == 9_000
        # Node 0's mean latency stands out.
        assert result.per_node[0].mean > 1.5 * result.per_node[1].mean
        assert result.imbalance() > 1.5

    def test_rpcvalet_nodes_absorb_partial_degradation(self):
        from repro.arch import PeriodicStragglers

        def degrade_some_cores(node_id):
            if node_id == 0:
                return PeriodicStragglers([0, 1], 12_000.0, 4_000.0)
            return None

        cluster = Cluster(
            num_nodes=3, seed=9, interference_factory=degrade_some_cores
        )
        result = cluster.run(per_node_mrps=18.0, requests_per_node=3_000)
        # Two degraded cores out of 16: single-queue dispatch hides it.
        assert result.imbalance() < 1.25


@pytest.mark.parametrize("tier", ["des", "fast"])
@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(per_node_mrps=float("nan")), "per_node_mrps"),
        (dict(per_node_mrps=float("inf")), "per_node_mrps"),
        (dict(speed_factors=[1.0, float("nan")]), "speed_factors"),
        (dict(speed_factors=[1.0, float("inf")]), "speed_factors"),
        (dict(warmup_fraction=1.0), "warmup_fraction"),
        (dict(warmup_fraction=float("nan")), "warmup_fraction"),
    ],
)
def test_invalid_load_rejected_before_any_event(monkeypatch, tier, bad, match):
    # Any DES run — the cluster itself or a fast-tier calibration
    # probe — means the check came too late.
    def no_events(self, *args, **kwargs):
        pytest.fail("an event ran before the scenario was rejected")

    monkeypatch.setattr(Environment, "run", no_events)
    scenario = {
        "per_node_mrps": 5.0, "requests_per_node": 50, "warmup_fraction": 0.1, **bad
    }
    speeds = scenario.pop("speed_factors", None)
    with pytest.raises(ValueError, match=match):
        if tier == "des":
            Cluster(num_nodes=2, speed_factors=speeds).run(**scenario)
        else:
            simulate_rack_fast(2, speed_factors=speeds, **scenario)
