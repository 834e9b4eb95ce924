"""Datacenter hierarchy: topology, schedulers, engines, driver, drift.

The contract under test, in rough order of importance:

1. both engines implement the *same* scheduler semantics — the DES
   router and the fast tier share one scheduler object per scenario,
   and their paired p50/p99 stay inside the cross-check band
   sub-critically;
2. JBSQ(k) actually bounds per-server outstanding work (the invariant
   ``max_outstanding <= k`` whenever any hold happened), and the ToR
   hold queues drain by the end of every run;
3. correlated whole-rack failures conserve work: offered = completed
   + lost, bit-identically across repeats and worker counts;
4. the repo's two registration hazards stay closed: every repro
   subpackage a sim entry point imports participates in the cache
   code fingerprint, and every experiment driver's ``engine=``
   surface matches the CLI's ENGINE_AWARE set.
"""

import re

import pytest

from repro.cluster import Cluster, HierarchicalFabric, PodFabric, UniformFabric
from repro.datacenter import (
    DEFAULT_JBSQ_K,
    DatacenterRouter,
    DatacenterTopology,
    NodeProfile,
    make_scheduler,
    node_profile,
    rack_power_loss,
    simulate_datacenter_fast,
)
from repro.balancing import SingleQueue
from repro.rack import ZipfDestinations


class TestHierarchicalFabric:
    def test_three_latency_tiers(self):
        fabric = HierarchicalFabric(
            16, rack_size=4, racks_per_pod=2,
            intra_rack_ns=100.0, inter_rack_ns=500.0, inter_pod_ns=1000.0,
        )
        assert fabric.latency_ns(0, 1) == 100.0     # same rack
        assert fabric.latency_ns(0, 4) == 500.0     # same pod, other rack
        assert fabric.latency_ns(0, 8) == 1000.0    # other pod
        assert fabric.num_racks == 4
        assert fabric.num_pods == 2

    def test_default_is_one_pod(self):
        fabric = HierarchicalFabric(8, rack_size=4)
        assert fabric.num_pods == 1
        assert fabric.latency_ns(0, 7) == fabric.inter_rack_ns

    def test_ragged_rack_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            HierarchicalFabric(10, rack_size=4)

    def test_single_rack_rejected(self):
        with pytest.raises(ValueError, match="at least 2 racks"):
            HierarchicalFabric(4, rack_size=4)

    def test_ragged_pod_rejected(self):
        with pytest.raises(ValueError, match="racks_per_pod"):
            HierarchicalFabric(16, rack_size=4, racks_per_pod=3)

    def test_latency_ordering_enforced(self):
        with pytest.raises(ValueError, match="intra_rack_ns"):
            HierarchicalFabric(8, rack_size=4, intra_rack_ns=600.0)


class TestPodFabricValidation:
    def test_degenerate_single_pod_rejected(self):
        with pytest.raises(ValueError, match="UniformFabric"):
            PodFabric(4, pod_size=4)
        with pytest.raises(ValueError, match="UniformFabric"):
            PodFabric(4, pod_size=9)

    def test_ragged_last_pod_still_supported(self):
        # Documented semantics (see the PodFabric docstring): the last
        # pod may be smaller; existing topologies rely on it.
        ragged = PodFabric(7, pod_size=3)
        assert ragged.pod_of(6) == 2
        assert ragged.latency_ns(5, 6) == ragged.inter_pod_ns


class TestTopology:
    def test_shape_and_membership(self):
        topo = DatacenterTopology(4, 4)
        assert topo.num_nodes == 16
        assert topo.rack_of(0) == 0 and topo.rack_of(15) == 3
        assert list(topo.members(1)) == [4, 5, 6, 7]

    def test_fabric_matches_topology(self):
        topo = DatacenterTopology(4, 4)
        fabric = topo.fabric()
        assert isinstance(fabric, HierarchicalFabric)
        assert fabric.num_nodes == 16
        assert fabric.rack_of(5) == topo.rack_of(5)

    def test_mixed_generations_speeds(self):
        topo = DatacenterTopology.mixed_generations(
            4, 4, old_racks=1, old_speed=0.7
        )
        assert topo.rack_speed(0) == 1.0
        assert topo.rack_speed(3) == 0.7
        assert topo.speed_factors[-1] == 0.7
        assert topo.speed_factors[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="2 racks"):
            DatacenterTopology(1, 4)
        with pytest.raises(ValueError, match="rack_size"):
            DatacenterTopology(4, 1)

    def test_node_profiles(self):
        nano = node_profile("nanopu")
        base = node_profile("baseline")
        assert nano.chip_config().dispatch_ns < base.chip_config().dispatch_ns
        assert nano.costs().poll_detect_ns < base.costs().poll_detect_ns
        with pytest.raises(ValueError, match="nanopu"):
            node_profile("warp-drive")
        with pytest.raises(ValueError, match="positive"):
            NodeProfile("broken", ni_scale=0.0)


class TestSchedulers:
    def _believe(self, topo, values):
        return list(values), [
            sum(values[node] for node in topo.members(rack))
            for rack in range(topo.num_racks)
        ]

    def test_unknown_hierarchy_and_policy(self):
        topo = DatacenterTopology(4, 4)
        with pytest.raises(ValueError, match="hierarchy"):
            make_scheduler("clos", topo)
        with pytest.raises(ValueError, match="policy"):
            make_scheduler("racksched", topo, policy="lifo")

    def test_flat_never_routes_to_self(self):
        import numpy as np

        topo = DatacenterTopology(2, 4)
        sched = make_scheduler("flat", topo, policy="jsq2")
        sched.set_capacities([16.0] * topo.num_nodes)
        rng = np.random.default_rng(0)
        believe, rack_believe = self._believe(topo, [0] * topo.num_nodes)
        for client in range(topo.num_nodes):
            for _ in range(50):
                assert sched.choose(client, believe, rack_believe, rng) != client

    def test_two_level_jsq_prefers_idle_rack(self):
        import numpy as np

        topo = DatacenterTopology(4, 4)
        sched = make_scheduler("racksched", topo, policy="sed")
        sched.set_capacities([16.0] * topo.num_nodes)
        rng = np.random.default_rng(1)
        # Rack 0 loaded, rack 3 idle: sed's full scan must land in an
        # idle rack, and the ToR must pick its least-loaded member.
        believe = [5] * 4 + [1] * 4 + [1] * 4 + [0] * 4
        believe[13] = 2
        _, rack_believe = self._believe(topo, believe)
        for _ in range(20):
            chosen = sched.choose(0, believe, rack_believe, rng)
            assert topo.rack_of(chosen) == 3
            assert chosen != 13

    def test_skew_concentrates_popularity(self):
        import numpy as np

        topo = DatacenterTopology(8, 2)
        flat = make_scheduler("flat", topo, policy="random", skew=1.2)
        flat.set_capacities([16.0] * topo.num_nodes)
        rng = np.random.default_rng(2)
        believe, rack_believe = self._believe(topo, [0] * topo.num_nodes)
        counts = [0] * topo.num_racks
        for _ in range(2000):
            counts[topo.rack_of(flat.choose(15, believe, rack_believe, rng))] += 1
        assert counts[0] > counts[-1] * 2

    def test_labels(self):
        topo = DatacenterTopology(4, 4)
        assert make_scheduler("jbsq", topo, policy="jsq2").label == "jbsq+jsq2"
        assert make_scheduler("jbsq", topo).bound_k == DEFAULT_JBSQ_K
        assert make_scheduler("racksched", topo).bound_k is None


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: ZipfDestinations(4, _NAN), "skew", id="zipf-nan"),
        pytest.param(lambda: ZipfDestinations(4, _INF), "skew", id="zipf-inf"),
        pytest.param(
            lambda: make_scheduler("flat", DatacenterTopology(2, 4), skew=_NAN), "skew",
            id="flat-nan",
        ),
        pytest.param(
            lambda: make_scheduler("racksched", DatacenterTopology(2, 4), skew=_INF), "skew",
            id="racksched-inf",
        ),
        pytest.param(
            lambda: DatacenterRouter(DatacenterTopology(2, 4), skew=_NAN), "skew",
            id="des-router-nan",
        ),
        pytest.param(
            lambda: make_scheduler("jbsq", DatacenterTopology(2, 4), jbsq_k=2.5), "JBSQ bound",
            id="jbsq-float",
        ),
        pytest.param(
            lambda: make_scheduler("jbsq", DatacenterTopology(2, 4), jbsq_k=True), "JBSQ bound",
            id="jbsq-bool",
        ),
        pytest.param(
            lambda: make_scheduler("jbsq", DatacenterTopology(2, 4), jbsq_k=0), "JBSQ bound",
            id="jbsq-zero",
        ),
    ],
)
def test_non_finite_skew_and_bad_jbsq_bound_rejected(build, match):
    """At construction, before a router could hang in rejection sampling
    or silently route every RPC to one rack."""
    with pytest.raises(ValueError, match=match):
        build()


class TestFastEngine:
    def test_jbsq_bound_invariant(self):
        # A tight bound under hot-rack load must actually hold RPCs at
        # the ToR, and per-server outstanding must never exceed k.
        topo = DatacenterTopology(4, 4)
        audit = {}
        result = simulate_datacenter_fast(
            topo, hierarchy="jbsq", policy="random", skew=0.8, jbsq_k=4,
            per_node_mrps=26.0, requests_per_node=400, seed=3, _audit=audit,
        )
        assert audit["bound_k"] == 4
        assert audit["holds"] > 0
        assert audit["max_outstanding"] <= 4
        assert result.completed == topo.num_nodes * 400

    def test_unbounded_racksched_exceeds_tight_bound(self):
        topo = DatacenterTopology(4, 4)
        audit = {}
        simulate_datacenter_fast(
            topo, hierarchy="racksched", policy="random", skew=0.8,
            per_node_mrps=26.0, requests_per_node=400, seed=3, _audit=audit,
        )
        assert audit["holds"] == 0
        assert audit["max_outstanding"] > 4

    def test_nanopu_profile_cuts_latency(self):
        topo = DatacenterTopology(4, 4)
        base = simulate_datacenter_fast(
            topo, hierarchy="racksched", per_node_mrps=20.0,
            requests_per_node=300, seed=4,
        )
        nano = simulate_datacenter_fast(
            topo, hierarchy="nanopu", per_node_mrps=20.0,
            requests_per_node=300, seed=4,
        )
        assert nano.aggregate.p50 < base.aggregate.p50

    def test_repeat_runs_bit_identical(self):
        topo = DatacenterTopology(4, 4)
        kwargs = dict(
            hierarchy="jbsq", policy="jsq2", skew=0.5,
            per_node_mrps=24.0, requests_per_node=300, seed=5,
        )
        first = simulate_datacenter_fast(topo, **kwargs)
        second = simulate_datacenter_fast(topo, **kwargs)
        assert first.aggregate.p50 == second.aggregate.p50
        assert first.p99_ns == second.p99_ns
        assert first.router_stats.routed == second.router_stats.routed


class TestCorrelatedFailures:
    def test_rack_plan_expands_to_members(self):
        topo = DatacenterTopology(4, 4)
        plan = rack_power_loss(topo, rack=1, at_ns=1e5, outage_ns=5e4)
        assert len(plan.events) == 4
        assert sorted(event.node for event in plan.events) == [4, 5, 6, 7]
        assert all(event.at_ns == 1e5 for event in plan.events)
        with pytest.raises(ValueError, match="out of range"):
            rack_power_loss(topo, rack=4, at_ns=0.0)

    def test_conservation_offered_equals_completed_plus_lost(self):
        topo = DatacenterTopology(4, 4)
        horizon_ns = 400 / 24.0 * 1e3
        plan = rack_power_loss(
            topo, rack=0, at_ns=0.3 * horizon_ns, outage_ns=0.4 * horizon_ns
        )
        result = simulate_datacenter_fast(
            topo, hierarchy="racksched", per_node_mrps=24.0,
            requests_per_node=400, seed=6, faults=plan,
        )
        assert result.offered == topo.num_nodes * 400
        assert result.offered == result.completed + result.lost
        assert result.lost > 0
        # Losses come only from the crashed rack's members.
        assert all(
            count > 0 for count in result.per_node_completed[4:]
        )

    def test_des_fault_row_counts_client_side_completions(self, monkeypatch):
        # The driver's fault row on the DES: ClusterResult.completed
        # counts server executions, including attempts whose reply the
        # rack outage suppressed; the row must count client-side.
        from repro.cluster import Cluster
        from repro.experiments.datacenter import _run_datacenter_task

        results = []
        run = Cluster.run

        def capture(self, *args, **kwargs):
            results.append(run(self, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(Cluster, "run", capture)
        row = _run_datacenter_task(
            ("fault/flat", 2, 2, 0, "flat", "jsq2", 0.0, 24.0, 300, 0,
             "des", True)
        )
        (result,) = results
        assert result.fault_stats.reply_suppressed > 0
        assert result.completed > result.fault_stats.completed
        assert row["offered"] == 4 * 300
        assert row["offered"] == row["completed"] + row["lost"]


class TestDesRouter:
    def _run_des(self, topo, hierarchy, policy, seed, requests=300):
        profile = node_profile(
            "nanopu" if hierarchy == "nanopu" else topo.profile.name
        )
        cluster = Cluster(
            num_nodes=topo.num_nodes,
            scheme_factory=SingleQueue,
            config=profile.chip_config(),
            costs=profile.costs(),
            seed=seed,
            router=DatacenterRouter(topo, hierarchy=hierarchy, policy=policy),
            fabric=topo.fabric(),
        )
        return cluster.run(per_node_mrps=20.0, requests_per_node=requests)

    def test_bind_rejects_mismatched_cluster(self):
        topo = DatacenterTopology(4, 4)
        with pytest.raises(ValueError, match="16"):
            Cluster(
                num_nodes=8,
                scheme_factory=SingleQueue,
                router=DatacenterRouter(topo),
                fabric=UniformFabric(8),
            )

    def test_des_matches_fast_sub_critically(self):
        topo = DatacenterTopology(4, 4)
        for hierarchy in ("racksched", "nanopu"):
            des = self._run_des(topo, hierarchy, "jsq2", seed=7)
            fast = simulate_datacenter_fast(
                topo, hierarchy=hierarchy, policy="jsq2",
                per_node_mrps=20.0, requests_per_node=300, seed=7,
            )
            assert fast.aggregate.p50 == pytest.approx(
                des.aggregate.p50, rel=0.10
            )
            assert fast.p99_ns == pytest.approx(des.p99_ns, rel=0.15)

    def test_router_stats_label(self):
        topo = DatacenterTopology(4, 4)
        result = self._run_des(topo, "jbsq", "sed", seed=8, requests=100)
        assert result.router_stats.policy == "jbsq+sed"
        assert result.router_stats.decisions == topo.num_nodes * 100
        assert sum(result.router_stats.routed) == result.router_stats.decisions


class TestDriver:
    def test_smoke_profile_bit_identical_across_workers(self):
        from repro.experiments.datacenter import run_datacenter

        serial = run_datacenter(profile="smoke", seed=0, workers=1)
        parallel = run_datacenter(profile="smoke", seed=0, workers=2)
        # The determinism contract: identical tables and findings at
        # any worker count (wall-clock " took " lines stripped).
        def strip(result):
            return [
                line
                for line in result.table().splitlines()
                if " took " not in line
            ]

        assert strip(serial) == strip(parallel)
        assert serial.data["faults"] == parallel.data["faults"]
        for key, row in serial.data["points"].items():
            other = parallel.data["points"][key]
            assert row["p99_ns"] == other["p99_ns"], key

    def test_fluid_engine_rejected(self):
        from repro.experiments.datacenter import run_datacenter

        with pytest.raises(ValueError, match="does not support"):
            run_datacenter(profile="smoke", engine="fluid")


class TestRegistrationDrift:
    """Satellites 2 and 3: the two silent-drift hazards stay closed."""

    #: repro subpackages deliberately outside the code fingerprint
    #: (see SIM_MODULES in repro/cache/fingerprint.py).
    FINGERPRINT_EXEMPT = {"experiments", "runner", "cache"}

    def test_every_sim_import_is_fingerprinted(self):
        # Walk every repro subpackage the experiment drivers import
        # (including the lazy in-function imports the pool workers
        # execute) and require it to participate in the cache code
        # fingerprint: a simulation-relevant module missing from
        # SIM_MODULES would serve stale cached results after edits.
        import pathlib

        import repro
        from repro.cache.fingerprint import SIM_MODULES

        root = pathlib.Path(repro.__file__).parent
        pattern = re.compile(
            r"^\s*from (?:repro|\.)\.(\w+)[ .]", re.MULTILINE
        )
        imported = set()
        for source in (root / "experiments").glob("*.py"):
            imported.update(pattern.findall(source.read_text()))
        assert "datacenter" in imported  # the walk itself works
        missing = imported - set(SIM_MODULES) - self.FINGERPRINT_EXEMPT
        assert not missing, (
            f"sim modules imported by experiment drivers but absent from "
            f"SIM_MODULES (stale-cache hazard): {sorted(missing)}"
        )

    def test_sim_modules_exist_on_disk(self):
        import pathlib

        import repro
        from repro.cache.fingerprint import SIM_MODULES

        root = pathlib.Path(repro.__file__).parent
        for name in SIM_MODULES:
            path = root / name
            assert path.exists(), f"SIM_MODULES entry {name!r} not found"

    def test_engine_aware_matches_driver_signatures(self):
        # A driver that grows an engine= knob but is not registered in
        # ENGINE_AWARE silently ignores --engine; the reverse crashes.
        import inspect

        from repro.experiments.cli import ENGINE_AWARE, EXPERIMENTS

        for name, fn in EXPERIMENTS.items():
            has_engine = "engine" in inspect.signature(fn).parameters
            assert has_engine == (name in ENGINE_AWARE), (
                f"{name}: engine kwarg {'present' if has_engine else 'absent'}"
                f" but {'not ' if name not in ENGINE_AWARE else ''}in "
                "ENGINE_AWARE"
            )

    def test_engine_aware_drivers_resolve_capabilities(self):
        # Every engine-aware driver must route its knob through the
        # capability-aware resolver (or the DES-only gate) — ad-hoc
        # engine handling is how tiers silently drop features.
        import inspect
        import sys

        from repro.experiments.cli import ENGINE_AWARE, EXPERIMENTS

        for name in ENGINE_AWARE:
            module = sys.modules[EXPERIMENTS[name].__module__]
            source = inspect.getsource(module)
            assert "resolve_engine" in source or "require_des" in source, (
                f"{name}: engine-aware driver never calls resolve_engine/"
                "require_des"
            )
