"""Fault injection: plans, injector, robust clients, determinism.

The contract under test, in rough order of importance:

1. accounting is conservative — every offered RPC ends exactly once,
   as a completion or a loss, under any mix of crashes, drops,
   duplications, delay spikes, retries, and hedges;
2. a faulted run is a pure function of (plan, retry config, seed) —
   bit-identical across repeats and worker counts;
3. the three calibrated phenomena the ``ext-faults`` driver reports
   (graceful crash-ladder degradation, retry-storm tail inflation,
   hedging's low-load win / saturation tax) actually hold;
4. the individual pieces (plan validation, timeline materialization,
   injector state, failure detector) behave.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.experiments.faults import _run_faults_task
from repro.faults import (
    FabricDegradation,
    FaultPlan,
    NodeCrash,
    NodeSlowdown,
    RetryConfig,
    SignalBlackout,
)
from repro.rack import RackRouter
from repro.runner import map_points, task_seed


def _run(
    seed=0,
    faults=None,
    retry=None,
    router=None,
    mrps=12.0,
    requests=400,
    num_nodes=3,
):
    cluster = Cluster(
        num_nodes=num_nodes,
        seed=seed,
        router=router,
        faults=faults,
        retry=retry,
    )
    return cluster.run(per_node_mrps=mrps, requests_per_node=requests)


class TestFaultPlanValidation:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(node=-1, at_ns=0.0)
        with pytest.raises(ValueError):
            NodeCrash(node=0, at_ns=10.0, outage_ns=0.0)
        with pytest.raises(ValueError):
            NodeSlowdown(node=0, at_ns=0.0, duration_ns=10.0, factor=0.0)
        with pytest.raises(ValueError):
            NodeSlowdown(node=0, at_ns=0.0, duration_ns=0.0)
        with pytest.raises(ValueError):
            FabricDegradation(at_ns=0.0, duration_ns=10.0, drop_prob=1.5)
        with pytest.raises(ValueError):
            SignalBlackout(at_ns=-1.0, duration_ns=10.0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate_hz=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.1)
        with pytest.raises(ValueError):
            FaultPlan(slowdown_factor=0.0)

    def test_triviality_and_noise_flags(self):
        assert FaultPlan().is_trivial
        assert not FaultPlan(crash_rate_hz=1.0).is_trivial
        assert not FaultPlan(events=(SignalBlackout(0.0, 1.0),)).is_trivial
        assert FaultPlan(drop_prob=0.1).has_fabric_noise
        assert not FaultPlan(crash_rate_hz=1.0).has_fabric_noise

    def test_retry_config(self):
        config = RetryConfig(
            backoff_ns=100.0, backoff_factor=2.0, max_backoff_ns=350.0
        )
        assert config.backoff_for(0) == 100.0
        assert config.backoff_for(1) == 200.0
        assert config.backoff_for(5) == 350.0  # capped
        assert RetryConfig(max_retries=None).retry_budget == float("inf")
        assert RetryConfig(max_retries=0).retry_budget == 0.0
        with pytest.raises(ValueError):
            RetryConfig(timeout_ns=0.0)
        with pytest.raises(ValueError):
            RetryConfig(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryConfig(backoff_ns=500.0, max_backoff_ns=100.0)
        with pytest.raises(ValueError):
            RetryConfig(hedge_ns=0.0)


NAN = math.nan
INF = math.inf


class TestEagerValidation:
    """Non-finite times and non-integer counts raise at construction.

    Each config below was once accepted and then failed late (the
    kernel's "delay must be a number >= 0"), ran to t = inf, or ran as
    something else (0.5 retries as 1, a NaN crash rate as no crashes).
    """

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout_ns=INF),
            dict(timeout_ns=NAN),
            dict(backoff_ns=NAN),
            dict(backoff_ns=INF, max_backoff_ns=INF),
            dict(backoff_factor=INF),
            dict(backoff_factor=NAN),
            dict(max_backoff_ns=NAN),
            dict(hedge_ns=NAN),
            dict(hedge_ns=INF),
            dict(max_retries=0.5),
            dict(max_retries=True),
            dict(max_retries=2.0),
        ],
        ids=repr,
    )
    def test_retry_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RetryConfig(**kwargs)

    def test_retry_config_still_accepts(self):
        assert RetryConfig(max_backoff_ns=INF).backoff_for(30) == 2_000.0 * 2.0**30
        assert RetryConfig(max_retries=np.int64(2)).retry_budget == 2.0
        assert RetryConfig(max_retries=None, backoff_ns=0.0).retry_budget == INF

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NodeCrash(node=0, at_ns=10.0, outage_ns=INF),
            lambda: NodeCrash(node=0, at_ns=10.0, outage_ns=NAN),
            lambda: NodeCrash(node=2.5, at_ns=10.0),
            lambda: NodeCrash(node=True, at_ns=10.0),
            lambda: NodeSlowdown(node=1.5, at_ns=0.0, duration_ns=10.0),
        ],
        ids=["crash-outage-inf", "crash-outage-nan", "crash-node-float",
             "crash-node-bool", "slowdown-node-float"],
    )
    def test_event_node_and_outage(self, build):
        with pytest.raises(ValueError):
            build()

    EVENT_TIMES = {
        "crash": lambda at, dur: NodeCrash(node=0, at_ns=at, outage_ns=dur),
        "slowdown": lambda at, dur: NodeSlowdown(node=0, at_ns=at, duration_ns=dur),
        "degradation": lambda at, dur: FabricDegradation(
            at_ns=at, duration_ns=dur, drop_prob=0.1
        ),
        "blackout": lambda at, dur: SignalBlackout(at_ns=at, duration_ns=dur),
    }

    @pytest.mark.parametrize("kind", sorted(EVENT_TIMES))
    @pytest.mark.parametrize("field", ["at_ns", "duration_ns"])
    @pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
    def test_event_times_must_be_finite(self, kind, field, value):
        times = {"at_ns": 10.0, "duration_ns": 100.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            self.EVENT_TIMES[kind](times["at_ns"], times["duration_ns"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(crash_rate_hz=NAN),
            dict(crash_rate_hz=INF),
            dict(slowdown_rate_hz=INF),
            dict(slowdown_rate_hz=NAN),
            dict(mean_outage_ns=NAN),
            dict(mean_slowdown_ns=NAN),
            dict(spike_ns=NAN),
        ],
        ids=repr,
    )
    def test_plan_rejects(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            FaultPlan(**kwargs)

    def test_degradation_spike_must_be_finite(self):
        with pytest.raises(ValueError, match="spike_ns"):
            FabricDegradation(at_ns=0.0, duration_ns=10.0, spike_prob=0.5, spike_ns=NAN)


class TestFaultPlanMaterialize:
    PLAN = FaultPlan(crash_rate_hz=8e3, slowdown_rate_hz=4e3)

    def test_same_seed_same_timeline(self):
        a = self.PLAN.materialize(4, 500_000.0, seed=7)
        b = self.PLAN.materialize(4, 500_000.0, seed=7)
        assert a == b and len(a) > 0

    def test_different_seed_different_timeline(self):
        a = self.PLAN.materialize(4, 500_000.0, seed=7)
        b = self.PLAN.materialize(4, 500_000.0, seed=8)
        assert a != b

    def test_timeline_sorted_and_within_horizon(self):
        events = self.PLAN.materialize(4, 500_000.0, seed=7)
        times = [event.at_ns for event in events]
        assert times == sorted(times)
        assert all(event.at_ns < 500_000.0 for event in events)

    def test_outages_do_not_overlap_per_node(self):
        events = self.PLAN.materialize(2, 2_000_000.0, seed=3)
        for node in range(2):
            crashes = [
                e for e in events
                if isinstance(e, NodeCrash) and e.node == node
            ]
            for earlier, later in zip(crashes, crashes[1:]):
                assert later.at_ns > earlier.at_ns + earlier.outage_ns

    def test_explicit_events_pass_through(self):
        crash = NodeCrash(node=0, at_ns=100.0, outage_ns=50.0)
        plan = FaultPlan(events=(crash,))
        assert plan.materialize(2, 1_000.0, seed=0) == [crash]

    def test_trivial_plan_materializes_empty(self):
        assert FaultPlan().materialize(4, 1e6, seed=0) == []


class TestConservation:
    """Every offered RPC ends exactly once, whatever goes wrong."""

    def test_trivial_plan_completes_everything(self):
        result = _run(faults=FaultPlan(), retry=RetryConfig())
        stats = result.fault_stats
        assert result.offered == 3 * 400
        assert stats.completed == result.offered
        assert result.lost == 0 and stats.timeouts == 0 and stats.retries == 0
        assert result.goodput_fraction == 1.0
        assert not result.e2e.is_empty

    def test_drops_are_retried_and_conserved(self):
        result = _run(faults=FaultPlan(drop_prob=0.1), retry=RetryConfig())
        stats = result.fault_stats
        assert stats.msg_drops > 0 and stats.retries > 0
        assert stats.completed + result.lost == result.offered

    def test_duplication_is_reconciled(self):
        result = _run(faults=FaultPlan(dup_prob=0.3), retry=RetryConfig())
        stats = result.fault_stats
        assert stats.msg_dups > 0
        assert stats.completed == result.offered and result.lost == 0

    def test_delay_spikes_are_absorbed(self):
        result = _run(
            faults=FaultPlan(spike_prob=0.3, spike_ns=3_000.0),
            retry=RetryConfig(),
        )
        stats = result.fault_stats
        assert stats.delay_spikes > 0
        assert stats.completed + result.lost == result.offered

    def test_total_loss_yields_empty_summary_not_a_crash(self):
        result = _run(
            faults=FaultPlan(drop_prob=1.0),
            retry=RetryConfig(timeout_ns=2_000.0, max_retries=1),
            requests=100,
            num_nodes=2,
        )
        assert result.offered == 200
        assert result.lost == 200 and result.fault_stats.completed == 0
        assert result.goodput_fraction == 0.0
        assert result.e2e.is_empty and math.isnan(result.e2e.p99)

    def test_hedging_reconciles_duplicate_completions(self):
        result = _run(
            retry=RetryConfig(hedge_ns=500.0), mrps=20.0, requests=600
        )
        stats = result.fault_stats
        assert stats.hedges > 0
        assert stats.completed == result.offered and result.lost == 0
        assert stats.duplicate_completions > 0

    def test_explicit_crash_with_recovery(self):
        plan = FaultPlan(
            events=(NodeCrash(node=1, at_ns=10_000.0, outage_ns=15_000.0),)
        )
        result = _run(faults=plan, retry=RetryConfig(timeout_ns=5_000.0))
        stats = result.fault_stats
        assert stats.crashes == 1 and stats.recoveries == 1
        assert stats.crash_drops > 0
        assert stats.completed + result.lost == result.offered
        assert result.availability[1] < 1.0
        assert result.availability[0] == 1.0 and result.availability[2] == 1.0

    def test_slowdown_window_slows_but_conserves(self):
        plan = FaultPlan(
            events=(
                NodeSlowdown(
                    node=0, at_ns=0.0, duration_ns=40_000.0, factor=0.25
                ),
            )
        )
        result = _run(faults=plan, retry=RetryConfig(timeout_ns=60_000.0))
        stats = result.fault_stats
        assert stats.slowdowns == 1
        assert stats.completed == result.offered and result.lost == 0


class TestFailureDetector:
    def test_crash_is_suspected_then_readmitted(self):
        plan = FaultPlan(
            events=(NodeCrash(node=2, at_ns=20_000.0, outage_ns=25_000.0),)
        )
        router = RackRouter("jsq2", "piggyback", suspect_after_ns=4_000.0)
        result = _run(
            faults=plan,
            retry=RetryConfig(timeout_ns=8_000.0),
            router=router,
            mrps=16.0,
            requests=1_200,
            num_nodes=4,
        )
        stats = result.fault_stats
        assert stats.suspicions >= 1
        assert stats.readmissions >= 1
        assert stats.false_suspicions == 0
        assert len(stats.detection_latency_ns) >= 1
        # Detection can't beat the suspicion threshold, and the sweep
        # period bounds how far past it the detector can lag.
        assert 4_000.0 <= stats.mean_detection_ns <= 12_000.0
        assert router.stats.suspicions == stats.suspicions

    def test_routing_follows_every_suspicion_change(self):
        # The router keeps each client's candidates for one suspicion
        # epoch; a new suspicion and a readmission each start another.
        router = RackRouter("random", "fresh", suspect_after_ns=1_000.0)
        Cluster(num_nodes=4, seed=0, router=router, faults=FaultPlan(drop_prob=0.01))
        rng = np.random.default_rng(0)

        def suspect(server):
            router.last_heard[server] = -2_000.0  # silent past the threshold
            router._detect()

        def destinations():
            return {router.choose(0, rng) for _ in range(200)}

        suspect(2)
        assert destinations() == {1, 3}
        suspect(1)
        assert router.suspected == {1, 2}
        assert destinations() == {3}
        router._heartbeat_received(2)
        assert destinations() == {2, 3}
        router._heartbeat_received(1)
        assert destinations() == {1, 2, 3}
        assert router.stats.suspicions == router.stats.readmissions == 2

    def test_signal_blackout_causes_false_suspicion(self):
        plan = FaultPlan(
            events=(SignalBlackout(at_ns=15_000.0, duration_ns=30_000.0),)
        )
        router = RackRouter("jsq2", "piggyback", suspect_after_ns=4_000.0)
        result = _run(
            faults=plan,
            retry=RetryConfig(),
            router=router,
            mrps=16.0,
            requests=800,
            num_nodes=4,
        )
        stats = result.fault_stats
        assert stats.false_suspicions >= 1
        assert stats.detection_latency_ns == []
        assert stats.completed == result.offered and result.lost == 0


def _normalize(row):
    """NaN-free copy of a task row (NaN breaks dict equality)."""
    return {
        key: None
        if isinstance(value, float) and math.isnan(value)
        else value
        for key, value in row.items()
    }


_DET_TASKS = [
    (
        "crash", 18.0,
        (("crash_rate_hz", 12e3), ("mean_outage_ns", 20_000.0)),
        (("timeout_ns", 10_000.0), ("max_retries", 2),
         ("backoff_ns", 2_000.0)),
        5_000.0, 500, task_seed("ext-faults", "crash", 0, 0),
    ),
    (
        "storm", 28.0,
        (("drop_prob", 0.04),),
        (("timeout_ns", 2_000.0), ("max_retries", None), ("backoff_ns", 0.0)),
        None, 500, task_seed("ext-faults", "storm", 0, 0),
    ),
    (
        "hedge", 12.0,
        (("drop_prob", 0.02),),
        (("timeout_ns", 15_000.0), ("max_retries", 3),
         ("backoff_ns", 2_000.0), ("hedge_ns", 1_500.0)),
        None, 500, task_seed("ext-faults", "hedge", 0, 0),
    ),
]


class TestDeterminism:
    @staticmethod
    def _rows(workers):
        outcome = map_points(_run_faults_task, _DET_TASKS, workers=workers)
        assert not outcome.failures
        rows = {}
        for row in outcome.results:
            row.pop("telemetry")
            rows[row["key"]] = _normalize(row)
        return rows

    @classmethod
    def results(cls):
        if not hasattr(cls, "_cache"):
            cls._cache = cls._rows(workers=2)
        return cls._cache

    def test_bit_identical_across_worker_counts(self):
        serial = self._rows(workers=1)
        assert serial == self.results()
        assert self._rows(workers=4) == serial

    def test_repeat_run_bit_identical(self):
        plan = FaultPlan(crash_rate_hz=12e3, drop_prob=0.02)
        retry = RetryConfig(timeout_ns=8_000.0, max_retries=2)

        def once():
            result = _run(faults=plan, retry=retry, mrps=16.0)
            return (
                result.offered,
                result.lost,
                result.e2e.p99,
                result.p99_ns,
                asdict(result.fault_stats),
            )

        assert once() == once()

    def test_seed_changes_the_run(self):
        plan = FaultPlan(crash_rate_hz=12e3, drop_prob=0.02)
        a = _run(seed=0, faults=plan, retry=RetryConfig())
        b = _run(seed=1, faults=plan, retry=RetryConfig())
        assert asdict(a.fault_stats) != asdict(b.fault_stats)


class TestPhenomena:
    """The three calibrated ``ext-faults`` findings, at test scale."""

    @staticmethod
    def _task(key, mrps, plan_kwargs, retry_kwargs, suspect=None, req=1_500):
        return (
            key, mrps, plan_kwargs, retry_kwargs, suspect, req,
            task_seed("ext-faults", key, 0, 0),
        )

    @classmethod
    def results(cls):
        if hasattr(cls, "_cache"):
            return cls._cache
        ladder_retry = (
            ("timeout_ns", 10_000.0), ("max_retries", 2),
            ("backoff_ns", 2_000.0),
        )
        tasks = [
            cls._task(
                f"crash/{rate:g}", 18.0,
                (("crash_rate_hz", rate), ("mean_outage_ns", 20_000.0)),
                ladder_retry, suspect=5_000.0,
            )
            for rate in (0.0, 12e3, 24e3)
        ] + [
            cls._task(
                "storm/bounded", 28.0, (("drop_prob", 0.04),),
                (("timeout_ns", 2_000.0), ("max_retries", 2),
                 ("backoff_ns", 6_000.0), ("backoff_factor", 2.0)),
            ),
            cls._task(
                "storm/unbounded", 28.0, (("drop_prob", 0.04),),
                (("timeout_ns", 2_000.0), ("max_retries", None),
                 ("backoff_ns", 0.0)),
            ),
        ] + [
            cls._task(
                f"hedge/{name}/{suffix}", load, (("drop_prob", 0.02),),
                (("timeout_ns", 15_000.0), ("max_retries", 3),
                 ("backoff_ns", 2_000.0), ("hedge_ns", hedge)),
            )
            for name, load in (("low", 12.0), ("high", 27.0))
            for suffix, hedge in (("plain", None), ("hedge", 1_500.0))
        ]
        outcome = map_points(_run_faults_task, tasks, workers=2)
        assert not outcome.failures
        cls._cache = {row["key"]: row for row in outcome.results}
        return cls._cache

    def test_crash_ladder_degrades_gracefully(self):
        rows = self.results()
        fractions = [
            rows[f"crash/{rate:g}"]["goodput_fraction"]
            for rate in (0.0, 12e3, 24e3)
        ]
        assert fractions[0] == 1.0
        # Graceful, not cliff-like: crashes cost goodput, but every
        # rung keeps the large majority of it (at this test scale the
        # per-rung crash draws are noisy, so we assert the floor and
        # the realized degradation, not strict monotonicity).
        assert any(fraction < 1.0 for fraction in fractions[1:])
        assert all(fraction >= 0.65 for fraction in fractions)
        crashed = [rows[f"crash/{rate:g}"] for rate in (12e3, 24e3)]
        assert sum(row["crashes"] for row in crashed) >= 2
        assert sum(row["suspicions"] for row in crashed) >= 1

    def test_unbounded_retries_storm_the_tail(self):
        rows = self.results()
        bounded, storm = rows["storm/bounded"], rows["storm/unbounded"]
        assert storm["retries"] > 5 * bounded["retries"]
        assert storm["e2e_p99_ns"] > 1.5 * bounded["e2e_p99_ns"]
        assert storm["work_amplification"] > bounded["work_amplification"] + 0.1
        assert storm["srv_p99_ns"] > bounded["srv_p99_ns"]

    def test_hedging_wins_at_low_load_and_costs_at_saturation(self):
        rows = self.results()
        low_plain, low_hedge = rows["hedge/low/plain"], rows["hedge/low/hedge"]
        high_plain = rows["hedge/high/plain"]
        high_hedge = rows["hedge/high/hedge"]
        assert low_hedge["hedges"] > 0
        assert low_hedge["e2e_p99_ns"] < 0.5 * low_plain["e2e_p99_ns"]
        assert high_hedge["e2e_p99_ns"] > high_plain["e2e_p99_ns"]
        assert high_hedge["work_amplification"] > 1.3
        assert high_plain["work_amplification"] < 1.1


class TestLegacyPathUntouched:
    def test_plain_cluster_has_no_fault_machinery(self):
        cluster = Cluster(num_nodes=2, seed=0)
        assert not cluster.robust
        assert cluster.injector is None and cluster.retry is None
        result = cluster.run(per_node_mrps=10.0, requests_per_node=200)
        assert result.fault_stats is None and result.e2e is None
        assert result.offered == 0 and result.goodput_fraction == 1.0


def _reference_fates(plan, seed, times):
    """``(dropped, delay, duplicated)`` per time: one numpy ``Generator``
    call per variate in the injector's order (drop, spike, dup), the live
    windows found anew for every traversal."""
    from repro.sim import RngRegistry

    rng = RngRegistry(seed).stream("faults.fabric")
    windows = [
        (event.at_ns, event.at_ns + event.duration_ns, event)
        for event in plan.events
        if isinstance(event, FabricDegradation)
    ]
    fates = []
    for t_ns in times:
        active = [window for start, end, window in windows if start <= t_ns < end]
        if not (active or plan.has_fabric_noise):
            fates.append((False, 0.0, False))
            continue
        drop, dup, spike, spike_ns = plan.fabric_probs(active)
        if rng.random() < drop:
            fates.append((True, 0.0, False))
            continue
        delay = spike_ns if spike > 0 and rng.random() < spike else 0.0
        fates.append((False, delay, dup > 0 and rng.random() < dup))
    return fates


class TestFastFaultTimeline:
    """The fast tier's fabric fates are the Generator-driven ones."""

    NOISE = dict(drop_prob=0.05, dup_prob=0.1, spike_prob=0.2, spike_ns=700.0)
    WINDOWS = (
        FabricDegradation(at_ns=1_000.0, duration_ns=2_000.0, drop_prob=0.1,
                          spike_prob=0.3, spike_ns=500.0),
        FabricDegradation(at_ns=2_500.0, duration_ns=2_000.0, dup_prob=0.4,
                          spike_prob=0.1, spike_ns=900.0),
    )

    @pytest.mark.parametrize("plan", [
        FaultPlan(**NOISE),
        FaultPlan(events=WINDOWS),
        FaultPlan(events=WINDOWS, **NOISE),
    ], ids=["noise", "windows", "both"])
    def test_fates_match_generator_reference(self, plan):
        from repro.fastpath.loop import FaultTimeline

        # Unsorted times before, inside one, inside both and past the
        # windows; enough draws to cross the stream's refills.
        times = np.random.default_rng(4).uniform(0.0, 6_000.0, 5_000).tolist()
        timeline = FaultTimeline(plan, num_nodes=4, horizon_ns=6_000.0, seed=11)
        fates = []
        for t_ns in times:
            dups = timeline.stats.msg_dups
            dropped, delay = timeline.fabric_fate(t_ns)
            fates.append((dropped, delay, timeline.stats.msg_dups > dups))
        assert fates == _reference_fates(plan, 11, times)
        assert timeline.stats.msg_drops == sum(fate[0] for fate in fates) > 0

    def test_node_down_is_window_containment(self):
        from repro.fastpath.loop import FaultTimeline

        plan = FaultPlan(events=(NodeCrash(1, at_ns=100.0, outage_ns=50.0),
                                 NodeCrash(1, at_ns=400.0)))
        timeline = FaultTimeline(plan, num_nodes=2, horizon_ns=1_000.0, seed=0)
        assert [timeline.node_down(1, t) for t in (99.0, 100.0, 149.0, 150.0, 400.0, 1e9)] == [
            False, True, True, False, True, True
        ]
        assert not timeline.node_down(0, 120.0)
