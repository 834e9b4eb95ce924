"""Rack-level two-level scheduling: policies, signals, router, driver."""

import copy
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, mesh_geometry
from repro.experiments.rack import (
    STALENESS_LADDER,
    _run_rack_task,
    _scenarios,
)
from repro.faults import FaultPlan, NodeCrash, RetryConfig
from repro.rack import (
    BroadcastSignal,
    InstantSignal,
    PiggybackSignal,
    PowerOfD,
    RackRouter,
    RoundRobinPolicy,
    ShortestExpectedDelay,
    UniformRandomPolicy,
    ZipfDestinations,
    make_policy,
    make_signal,
)
from repro.runner import map_points, task_seed


class TestZipfDestinations:
    def test_uniform_when_unskewed(self):
        dests = ZipfDestinations(4, skew=0.0)
        rng = np.random.default_rng(0)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(6_000):
            counts[dests.sample(0, rng)] += 1
        for count in counts.values():
            assert count == pytest.approx(2_000, rel=0.1)

    def test_skew_favours_node_zero(self):
        dests = ZipfDestinations(4, skew=1.2)
        rng = np.random.default_rng(1)
        samples = [dests.sample(3, rng) for _ in range(4_000)]
        share = samples.count(0) / len(samples)
        assert share > 0.45  # 1 / (1 + 2^-1.2 + 3^-1.2) ~ 0.52

    def test_never_samples_self(self):
        dests = ZipfDestinations(3, skew=2.0)
        rng = np.random.default_rng(2)
        assert all(dests.sample(0, rng) != 0 for _ in range(500))

    def test_sample_distinct(self):
        dests = ZipfDestinations(5, skew=0.5)
        rng = np.random.default_rng(3)
        chosen = dests.sample_distinct(2, 3, rng)
        assert len(set(chosen)) == 3
        assert 2 not in chosen
        # Asking for >= all peers returns the full peer list.
        assert sorted(dests.sample_distinct(2, 10, rng)) == [0, 1, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfDestinations(1)
        with pytest.raises(ValueError):
            ZipfDestinations(4, skew=-0.1)


class TestPolicies:
    def test_make_policy_specs(self):
        assert isinstance(make_policy("random"), UniformRandomPolicy)
        assert isinstance(make_policy("rr"), RoundRobinPolicy)
        assert isinstance(make_policy("sed"), ShortestExpectedDelay)
        jsq = make_policy("jsq3")
        assert isinstance(jsq, PowerOfD) and jsq.d == 3
        assert make_policy("jsq").d == 2
        with pytest.raises(ValueError):
            make_policy("lifo")
        with pytest.raises(ValueError):
            make_policy("jsqx")

    def test_round_robin_cycles_evenly(self):
        policy = RoundRobinPolicy()
        dests = ZipfDestinations(4)
        rng = np.random.default_rng(0)
        picks = [policy.choose(1, dests, [0.0] * 4, None, [1.0] * 4, rng) for _ in range(9)]
        assert 1 not in picks
        assert sorted(picks) == [0, 0, 0, 2, 2, 2, 3, 3, 3]

    def test_jsq_picks_least_loaded_candidate(self):
        policy = PowerOfD(3)  # d == peers: candidates are all of them
        dests = ZipfDestinations(4)
        rng = np.random.default_rng(0)
        believe = [0.0, 5.0, 0.0, 9.0]
        assert policy.choose(0, dests, believe, None, [1.0] * 4, rng) == 2

    def test_sed_prefers_capacity_at_equal_load(self):
        policy = ShortestExpectedDelay()
        dests = ZipfDestinations(3)
        rng = np.random.default_rng(0)
        believe = [0.0, 4.0, 4.0]
        capacities = [1.0, 1.0, 2.0]
        assert policy.choose(0, dests, believe, None, capacities, rng) == 2
        # Twice the capacity absorbs twice the queue for the same delay.
        believe = [0.0, 2.0, 7.0]
        assert policy.choose(0, dests, believe, None, capacities, rng) == 1


@st.composite
def _frozen_row_runs(draw):
    """Node count, capacities, and snapshots each with its decisions.

    Loads are small ints, so ties are common; the capacities mix 1, 2
    and 4, so ties also cross capacity classes. A decision is a client
    and a candidate mask (empty: every peer).
    """
    nodes = draw(st.integers(2, 8))
    capacities = draw(
        st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=nodes, max_size=nodes)
    )
    decision = st.tuples(
        st.integers(0, nodes - 1),
        st.lists(st.booleans(), min_size=nodes - 1, max_size=nodes - 1),
    )
    snapshots = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=nodes, max_size=nodes),
            st.lists(decision, min_size=1, max_size=12),
            st.booleans(),  # rescale the capacities in place and reset()
        ),
        min_size=1, max_size=5,
    ))
    return nodes, capacities, snapshots


class TestSedFrozenRows:
    """SED's tie memo on tuple rows decides as the per-call scan does."""

    @settings(max_examples=200, deadline=None)
    @given(_frozen_row_runs(), st.integers(0, 2**32 - 1))
    def test_memo_matches_list_scan(self, run, seed):
        nodes, capacities, snapshots = run
        dests = ZipfDestinations(nodes)
        memoized, scanned = ShortestExpectedDelay(), ShortestExpectedDelay()
        rng_memo, rng_scan = np.random.default_rng(seed), np.random.default_rng(seed)
        for loads, decisions, rescale in snapshots:
            if rescale:
                # Same list object, new values: only reset() may clear
                # ties scanned on the old capacities.
                capacities[:] = [value * 2.0 if node % 2 else value
                                 for node, value in enumerate(capacities)]
                memoized.reset()
            row = tuple(loads)  # a new tuple per snapshot
            for client, mask in decisions:
                peers = dests.peers_of(client)
                allowed = tuple(node for node, keep in zip(peers, mask) if keep)
                candidates = allowed or None
                got = memoized.choose(client, dests, row, candidates, capacities, rng_memo)
                want = scanned.choose(
                    client, dests, list(row), candidates, capacities, rng_scan
                )
                assert got == want
        assert rng_memo.bit_generator.state == rng_scan.bit_generator.state

    def test_reset_forgets_the_row(self):
        dests = ZipfDestinations(3)
        rng = np.random.default_rng(0)
        policy = ShortestExpectedDelay()
        row, capacities = (0, 5, 1), [1.0, 1.0, 1.0]
        assert policy.choose(0, dests, row, None, capacities, rng) == 2
        capacities[2] = 0.1  # violates the frozen contract; reset() repairs it
        assert policy.choose(0, dests, row, None, capacities, rng) == 2
        policy.reset()
        assert policy.choose(0, dests, row, None, capacities, rng) == 1


class TestSignals:
    def test_make_signal_specs(self):
        assert isinstance(make_signal("fresh"), InstantSignal)
        assert isinstance(make_signal("piggyback"), PiggybackSignal)
        broadcast = make_signal("broadcast:2500")
        assert isinstance(broadcast, BroadcastSignal)
        assert broadcast.period_ns == 2500.0
        with pytest.raises(ValueError):
            make_signal("broadcast")
        with pytest.raises(ValueError):
            make_signal("telepathy")
        with pytest.raises(ValueError):
            BroadcastSignal(0)

    def test_instant_signal_reads_ground_truth(self):
        router = RackRouter(policy="jsq2", signal="fresh")
        cluster = Cluster(num_nodes=3, seed=0, router=router)
        assert cluster is router.cluster
        router.outstanding[2] = 7
        assert router.signal.estimate(0, 2) == 7.0

    def test_piggyback_updates_only_on_reply(self):
        router = RackRouter(policy="jsq2", signal="piggyback")
        Cluster(num_nodes=3, seed=0, router=router)
        router.outstanding[1] = 9
        assert router.signal.estimate(0, 1) == 0.0  # stale until a reply
        router.deliver_report(client=0, server=1, load=4.0)
        assert router.signal.estimate(0, 1) == 4.0
        assert router.signal.estimate(2, 1) == 0.0  # other clients unaware

    def test_wants_reply_reports(self):
        assert RackRouter(signal="piggyback").wants_reply_reports
        assert not RackRouter(signal="fresh").wants_reply_reports
        assert not RackRouter(signal="broadcast:1000").wants_reply_reports


class TestRackRouter:
    def test_outstanding_accounting(self):
        router = RackRouter(policy="random", signal="fresh")
        Cluster(num_nodes=4, seed=0, router=router)
        rng = np.random.default_rng(0)
        for _ in range(50):
            router.choose(0, rng)
        assert sum(router.outstanding) == 50
        assert router.stats.decisions == 50
        assert router.stats.routed == router.outstanding
        dst = next(i for i, n in enumerate(router.outstanding) if n)
        before = router.outstanding[dst]
        assert router.on_complete(dst) == before - 1
        assert sum(router.outstanding) == 49

    def test_fresh_signal_has_zero_error(self):
        router = RackRouter(policy="jsq2", signal="fresh")
        Cluster(num_nodes=4, seed=0, router=router)
        rng = np.random.default_rng(1)
        for _ in range(100):
            router.choose(rng.integers(0, 4), rng)
        assert router.stats.signal_error_count == 100
        assert router.stats.mean_signal_error == 0.0

    def test_routed_fractions_sum_to_one(self):
        router = RackRouter(policy="rr", signal="fresh")
        Cluster(num_nodes=4, seed=0, router=router)
        rng = np.random.default_rng(2)
        for _ in range(60):
            router.choose(0, rng)
        fractions = router.stats.routed_fractions()
        assert sum(fractions) == pytest.approx(1.0)
        assert fractions[0] == 0.0  # never routes to itself

    @pytest.mark.parametrize("policy", ["rr", "jsq2"])
    def test_reused_router_routes_like_a_fresh_one(self, policy):
        # bind starts every per-run state over (stats, rr cursor) and
        # leaves the earlier run's stats object alone.
        def run(router):
            cluster = Cluster(num_nodes=4, seed=0, router=router)
            return cluster.run(per_node_mrps=18.0, requests_per_node=200)

        reused = RackRouter(policy, "piggyback")
        first = run(reused)
        first_stats = copy.deepcopy(first.router_stats)
        second = run(reused)
        fresh_router = RackRouter(policy, "piggyback")
        fresh = run(fresh_router)
        for result in (first, second):
            assert result.aggregate == fresh.aggregate
            assert result.per_node == fresh.per_node
            assert result.per_node_completed == fresh.per_node_completed
        assert reused.stats == fresh_router.stats
        assert reused.stats.decisions == sum(reused.stats.routed) == 4 * 200
        assert first.router_stats == first_stats
        assert first.router_stats is not second.router_stats


class TestEagerValidation:
    """Invalid rack configs raise at construction, not mid-run or never."""

    @pytest.mark.parametrize("period", [float("inf"), float("nan")])
    def test_broadcast_period_must_be_finite(self, period):
        with pytest.raises(ValueError, match="period_ns"):
            BroadcastSignal(period)
        with pytest.raises(ValueError, match="period_ns"):
            make_signal(f"broadcast:{period}")

    @pytest.mark.parametrize("d", [2.5, True, 2.0])
    def test_jsq_d_must_be_an_integer(self, d):
        with pytest.raises(ValueError, match="d must be an integer"):
            PowerOfD(d)

    @pytest.mark.parametrize("name", ["suspect_after_ns"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_detector_timing_must_be_finite(self, name, value):
        kwargs = {"suspect_after_ns": 5_000.0, name: value}
        with pytest.raises(ValueError, match=name):
            RackRouter("jsq2", "piggyback", **kwargs)

    def test_nan_skew_rejected_before_bind(self):
        with pytest.raises(ValueError, match="skew"):
            RackRouter("jsq2", skew=float("nan"))


class TestRoutingBudget:
    @pytest.mark.skipif(
        not (3, 10) <= sys.version_info[:2] <= (3, 12),
        reason="call counts measured on CPython 3.10-3.12",
    )
    @pytest.mark.parametrize(
        "policy, signal, budget", [("jsq2", "piggyback", 80), ("random", "fresh", 70)]
    )
    def test_python_calls_per_rpc(self, policy, signal, budget):
        # A routing decision is the router, one signal view and one
        # policy call over node-indexed lists: ~68 (jsq2/piggyback) and
        # ~63 (random/fresh) Python calls per RPC in all. Building a
        # per-decision estimates dict through one signal call per peer
        # read ~100 and ~85.
        router = RackRouter(policy, signal)
        cluster = Cluster(num_nodes=16, seed=0, router=router)
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            result = cluster.run(per_node_mrps=20.0, requests_per_node=300)
        finally:
            sys.setprofile(None)
        assert result.completed == 16 * 300
        assert calls[0] / result.completed <= budget

    @pytest.mark.skipif(
        not (3, 10) <= sys.version_info[:2] <= (3, 12),
        reason="call counts measured on CPython 3.10-3.12",
    )
    def test_python_calls_per_rpc_under_suspicion(self):
        # A suspected server restricts every decision. The candidate
        # tuple and the restricted draw table are built once per client
        # per suspicion epoch: ~82 Python calls per RPC. Rebuilding both
        # on every decision and draw (a list, then numpy cumsum and
        # searchsorted) read ~101.
        router = RackRouter("jsq2", "piggyback", suspect_after_ns=2_000)
        cluster = Cluster(
            num_nodes=16,
            seed=0,
            router=router,
            faults=FaultPlan(
                events=(NodeCrash(3, at_ns=2e3, outage_ns=3e4),), drop_prob=0.01
            ),
            retry=RetryConfig(timeout_ns=1e4, max_retries=2, backoff_ns=2e3),
        )
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            result = cluster.run(per_node_mrps=20.0, requests_per_node=300)
        finally:
            sys.setprofile(None)
        assert router.stats.suspicions >= 1
        assert calls[0] / result.completed <= 90


class TestHeterogeneousCluster:
    def test_mesh_geometry(self):
        assert mesh_geometry(16) == (4, 4)
        assert mesh_geometry(8) == (2, 4)
        assert mesh_geometry(12) == (3, 4)
        assert mesh_geometry(7) == (1, 7)

    def test_mesh_geometry_every_count_factors_exactly(self):
        # Primes must degrade to a 1xN row, never raise; the float-sqrt
        # regression sent e.g. 25 -> isqrt-adjacent rows that missed
        # the exact factor.
        for cores in range(1, 33):
            rows, cols = mesh_geometry(cores)
            assert rows * cols == cores
            assert 1 <= rows <= cols
        assert mesh_geometry(25) == (5, 5)
        assert mesh_geometry(31) == (1, 31)  # prime
        with pytest.raises(ValueError):
            mesh_geometry(0)

    def test_core_counts_change_capacity(self):
        cluster = Cluster(num_nodes=3, core_counts=[16, 16, 8], seed=0)
        assert cluster.capacity_weight(0) == 16.0
        assert cluster.capacity_weight(2) == 8.0
        assert cluster.node_configs[2].num_cores == 8

    def test_speed_factors_change_capacity(self):
        cluster = Cluster(num_nodes=2, speed_factors=[1.0, 2.0], seed=0)
        assert cluster.capacity_weight(1) == 2 * cluster.capacity_weight(0)
        with pytest.raises(ValueError):
            Cluster(num_nodes=2, speed_factors=[1.0, 0.0])
        with pytest.raises(ValueError):
            Cluster(num_nodes=2, core_counts=[16])

    def test_sed_protects_weak_node(self):
        def run(policy):
            router = RackRouter(policy=policy, signal="fresh")
            cluster = Cluster(
                num_nodes=3, core_counts=[16, 16, 8], seed=0, router=router
            )
            result = cluster.run(per_node_mrps=18.0, requests_per_node=1_500)
            return result, router.stats.routed_fractions()

        random_result, random_frac = run("random")
        sed_result, sed_frac = run("sed")
        # SED diverts traffic away from the half-size node...
        assert sed_frac[2] < random_frac[2]
        # ...and that translates into a better cluster-wide tail.
        assert sed_result.p99_ns < random_result.p99_ns


class TestRackTelemetry:
    def test_router_telemetry_wiring(self):
        router = RackRouter(policy="jsq2", signal="piggyback")
        cluster = Cluster(num_nodes=3, seed=0, router=router, telemetry=True)
        result = cluster.run(per_node_mrps=10.0, requests_per_node=1_000)
        snap = result.telemetry
        assert snap is not None
        routed = [
            snap.counters[f"rack.routed[node{i}]"].value for i in range(3)
        ]
        assert sum(routed) == router.stats.decisions == 3_000
        assert routed == router.stats.routed
        hist = snap.histograms["rack.signal_error"]
        assert hist.count == 3_000
        # Piggyback estimates genuinely lag the ground truth.
        assert hist.total > 0
        for name in ("rack.outstanding[node0]", "shared_cq[node1]",
                     "send_credits[node2]"):
            assert name in snap.series

    def test_cluster_probes_off_without_telemetry(self):
        cluster = Cluster(num_nodes=2, seed=0, router=RackRouter("jsq2"))
        result = cluster.run(per_node_mrps=5.0, requests_per_node=500)
        assert result.telemetry is None
        assert cluster.router.decision_counters is None


class TestRackAcceptance:
    """The ext-rack headline claims, via the driver's own task fn."""

    REQUESTS = 750

    @classmethod
    def _ladder_results(cls, workers):
        wanted = ["policy/random", "policy/jsq2"] + [
            f"ladder/{signal}" for signal in STALENESS_LADDER[1:]
        ]
        by_key = {row[0]: row for row in _scenarios()}
        tasks = [
            by_key[key] + (cls.REQUESTS, task_seed("ext-rack", key, 0, 0))
            for key in wanted
        ]
        outcome = map_points(_run_rack_task, tasks, workers=workers)
        assert not outcome.failures
        results = {row["key"]: row for row in outcome.results}
        for row in results.values():
            row.pop("telemetry")  # snapshots compare by identity
        return results

    @classmethod
    def results(cls):
        if not hasattr(cls, "_cache"):
            cls._cache = cls._ladder_results(workers=2)
        return cls._cache

    def test_fresh_jsq2_beats_random_at_mid_load(self):
        results = self.results()
        assert (
            results["policy/jsq2"]["p99_ns"]
            < results["policy/random"]["p99_ns"]
        )

    def test_staleness_monotonically_erodes_advantage(self):
        results = self.results()
        random_p99 = results["policy/random"]["p99_ns"]
        advantages = [
            random_p99 / results["policy/jsq2"]["p99_ns"]
        ] + [
            random_p99 / results[f"ladder/{signal}"]["p99_ns"]
            for signal in STALENESS_LADDER[1:]
        ]
        assert advantages[0] > 1.0
        for fresher, staler in zip(advantages, advantages[1:]):
            assert staler < fresher
        # Staleness error grows down the ladder too.
        errors = [
            results["policy/jsq2"]["signal_error"]
        ] + [
            results[f"ladder/{signal}"]["signal_error"]
            for signal in STALENESS_LADDER[1:]
        ]
        assert errors == sorted(errors)

    def test_deterministic_at_any_worker_count(self):
        assert self._ladder_results(workers=1) == self.results()


class TestClusterDeterminism:
    def test_routed_run_bit_identical_across_repeats(self):
        def run():
            router = RackRouter(policy="jsq2", signal="broadcast:2000")
            cluster = Cluster(num_nodes=3, seed=11, router=router)
            result = cluster.run(per_node_mrps=15.0, requests_per_node=1_000)
            return (
                result.p99_ns,
                result.per_node_completed,
                router.stats.routed,
                router.stats.signal_error_sum,
            )

        assert run() == run()

    def test_run_cluster_workers_bit_identical(self):
        from repro.experiments import run_cluster

        serial = run_cluster(profile="smoke", seed=0, workers=1)
        parallel = run_cluster(profile="smoke", seed=0, workers=2)
        assert serial.data == parallel.data


class TestPodFabricPaths:
    def test_multi_pod_grouping(self):
        from repro.cluster import PodFabric

        fabric = PodFabric(9, pod_size=3, intra_pod_ns=40.0, inter_pod_ns=900.0)
        assert [fabric.pod_of(node) for node in range(9)] == [
            0, 0, 0, 1, 1, 1, 2, 2, 2,
        ]
        assert fabric.latency_ns(6, 8) == 40.0
        assert fabric.latency_ns(0, 8) == 900.0
        # Ragged last pod: 4 nodes in pods of 3 leaves node 3 alone.
        ragged = PodFabric(4, pod_size=3)
        assert ragged.pod_of(3) == 1
        assert ragged.latency_ns(2, 3) == ragged.inter_pod_ns

    def test_asymmetric_fabric_supported(self):
        from repro.cluster import Fabric

        class AsymmetricFabric(Fabric):
            """Uplink 10x slower than downlink, e.g. oversubscribed ToR."""

            def latency_ns(self, src, dst):
                self._check(src, dst)
                return 1_000.0 if src < dst else 100.0

        fabric = AsymmetricFabric(3)
        assert fabric.latency_ns(0, 2) == 1_000.0
        assert fabric.latency_ns(2, 0) == 100.0
        cluster = Cluster(num_nodes=3, fabric=fabric, seed=3)
        result = cluster.run(per_node_mrps=8.0, requests_per_node=1_000)
        assert result.completed == 3_000

    def test_pod_fabric_broadcast_staleness_pays_latency(self):
        # Broadcast estimates cross the fabric: a slow fabric makes the
        # same broadcast period strictly more stale.
        from repro.cluster import UniformFabric

        def mean_error(latency_ns):
            router = RackRouter(policy="jsq2", signal="broadcast:2000")
            cluster = Cluster(
                num_nodes=4,
                fabric=UniformFabric(4, latency_ns),
                seed=4,
                router=router,
            )
            cluster.run(per_node_mrps=18.0, requests_per_node=1_000)
            return router.stats.mean_signal_error

        assert mean_error(8_000.0) > mean_error(100.0)
