"""Span tracing and tail attribution: conservation, purity, determinism.

The contract under test, in rough order of importance:

1. **conservation** — every completed trace's phase components sum
   exactly to its recorded end-to-end latency, in legacy mode and in
   robust mode under retries, hedges, drops, and crashes;
2. **purity** — enabling tracing changes no simulated result (sampling
   is counter-based, never an RNG draw), and disabling it leaves every
   instrumented site a dead ``is not None`` branch;
3. **determinism** — merged trace buffers and attribution reports are
   bit-identical at any worker count, the same contract as telemetry;
4. the surrounding machinery behaves: DES-only engine gating, span
   export, the unified exporter, capture accounting in manifests.
"""

import json
import math

import pytest

from repro.cluster import Cluster
from repro.experiments.persistence import build_manifest
from repro.experiments.tails import _scenarios, run_tails
from repro.faults import FaultPlan, RetryConfig
from repro.rack import RackRouter
from repro.tracing import (
    PHASES,
    TraceConfig,
    attribute_tails,
    attribution_to_dict,
    export_span_trace,
    render_exemplar,
)


def _run(seed=0, trace=TraceConfig(), faults=None, retry=None, policy="jsq2",
         mrps=24.0, requests=300, telemetry=False):
    cluster = Cluster(
        num_nodes=4,
        seed=seed,
        router=RackRouter(policy, "fresh"),
        faults=faults,
        retry=retry,
        telemetry=telemetry,
        trace=trace,
    )
    return cluster.run(per_node_mrps=mrps, requests_per_node=requests)


def _assert_conserved(buffer):
    checked = 0
    for trace in buffer.completed():
        phases = trace.phases()
        assert phases is not None
        assert tuple(phases) == PHASES
        assert math.isclose(
            sum(phases.values()), trace.e2e_ns, rel_tol=1e-9, abs_tol=1e-6
        )
        checked += 1
    assert checked > 0
    return checked


class TestConservation:
    def test_legacy_phases_sum_to_e2e(self):
        result = _run()
        assert _assert_conserved(result.spans) == 4 * 300

    def test_robust_phases_sum_to_e2e_under_faults(self):
        result = _run(
            faults=FaultPlan(drop_prob=0.05),
            retry=RetryConfig(
                timeout_ns=2_500.0, max_retries=3, backoff_ns=500.0,
                hedge_ns=1_500.0,
            ),
        )
        buffer = result.spans
        _assert_conserved(buffer)
        kinds = [s.kind for t in buffer.traces for s in t.attempts]
        # The fault mix must actually have exercised retries and hedges,
        # or this test proves nothing about multi-attempt conservation.
        assert kinds.count("retry") > 0
        assert kinds.count("hedge") > 0
        # Every trace resolves exactly once.
        assert sum(1 for t in buffer.completed()) + sum(
            1 for t in buffer.lost()
        ) == len(buffer)
        assert len(buffer) == result.offered == buffer.offered

    def test_crash_faults_land_in_buffer_timeline(self):
        result = _run(
            faults=FaultPlan(crash_rate_hz=20e3, mean_outage_ns=10_000.0),
            retry=RetryConfig(timeout_ns=5_000.0, max_retries=2,
                              backoff_ns=1_000.0),
            requests=400,
        )
        kinds = {kind for _, kind, _ in result.spans.faults}
        assert "crash" in kinds
        _assert_conserved(result.spans)

    def test_winner_reply_time_is_recorded_e2e(self):
        result = _run(retry=RetryConfig(timeout_ns=50_000.0, max_retries=1,
                                        backoff_ns=0.0))
        for trace in result.spans.completed():
            winner = trace.attempts[trace.winner]
            assert winner.status == "won"
            assert winner.t_reply == trace.t_end


class TestPurity:
    def test_tracing_does_not_perturb_the_simulation(self):
        plain = _run(trace=None)
        traced = _run()
        assert traced.aggregate.p99 == plain.aggregate.p99
        assert traced.aggregate.mean == plain.aggregate.mean
        assert traced.per_node_completed == plain.per_node_completed
        assert plain.spans is None

    def test_tracing_does_not_perturb_faulted_runs(self):
        kwargs = dict(
            faults=FaultPlan(drop_prob=0.04, dup_prob=0.01),
            retry=RetryConfig(timeout_ns=3_000.0, max_retries=2,
                              backoff_ns=1_000.0, hedge_ns=2_000.0),
        )
        plain = _run(trace=None, **kwargs)
        traced = _run(**kwargs)
        assert traced.e2e.p99 == plain.e2e.p99
        assert traced.lost == plain.lost
        assert traced.fault_stats.retries == plain.fault_stats.retries
        assert traced.fault_stats.hedges == plain.fault_stats.hedges

    def test_sample_period_counts_not_draws(self):
        result = _run(trace=TraceConfig(sample_period=7))
        buffer = result.spans
        assert buffer.offered == 4 * 300
        # ceil(300 / 7) sampled per client, deterministically.
        assert buffer.sampled == 4 * math.ceil(300 / 7)
        assert {t.index % 7 for t in buffer.traces} == {0}

    def test_max_traces_cap_counts_drops(self):
        result = _run(trace=TraceConfig(max_traces=10))
        buffer = result.spans
        assert len(buffer) == 10
        assert buffer.dropped == 4 * 300 - 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(sample_period=0)
        with pytest.raises(ValueError):
            TraceConfig(max_traces=0)


class TestDeterminism:
    def test_run_tails_identical_across_worker_counts(self):
        serial = run_tails(profile="smoke", seed=3, workers=1)
        fanned = run_tails(profile="smoke", seed=3, workers=2)
        assert serial.findings == fanned.findings
        for key in serial.data["scenarios"]:
            one = serial.data["scenarios"][key]
            two = fanned.data["scenarios"][key]
            assert one["report"] == two["report"]
            assert [t.e2e_ns for t in one["spans"].completed()] == [
                t.e2e_ns for t in two["spans"].completed()
            ]

    def test_router_decision_capture(self):
        result = _run()
        decided = [
            span.decision
            for trace in result.spans.traces
            for span in trace.attempts
            if span.decision is not None
        ]
        assert decided
        for decision, span in zip(
            decided,
            (s for t in result.spans.traces for s in t.attempts
             if s.decision is not None),
        ):
            assert decision["dst"] == span.dst
            assert decision["policy"] == "jsq2"
            # JSQ(2) on 4 nodes: self excluded, 3 candidates remain.
            assert decision["candidates"] == 3


class TestAttribution:
    def test_report_shape_and_cohort_nesting(self):
        report = attribute_tails(_run().spans)
        assert set(report.cohorts) == {"p50", "p99", "p999"}
        p50, p99 = report.cohort("p50"), report.cohort("p99")
        assert p99.threshold_ns >= p50.threshold_ns
        assert p99.count <= p50.count
        for cohort in report.cohorts.values():
            assert cohort.count > 0
            assert math.isclose(
                sum(cohort.phase_ns.values()), cohort.mean_e2e_ns,
                rel_tol=1e-9, abs_tol=1e-6,
            )
            assert cohort.exemplar is not None
            assert cohort.exemplar.e2e_ns >= cohort.threshold_ns

    def test_conservation_violation_raises(self):
        # The decomposition telescopes, so shifting any stamp moves two
        # adjacent phases in opposite directions and sums stay exact.
        # What *can* break it is a stamp read off a recycled message —
        # model that as a garbage server-side timestamp.
        buffer = _run(requests=50).spans
        trace = buffer.traces[0]
        trace.attempts[trace.winner].t_dispatch = float("nan")
        with pytest.raises(ValueError, match="conservation"):
            attribute_tails(buffer)

    def test_to_dict_round_trips_through_json(self):
        report = attribution_to_dict(attribute_tails(_run(requests=100).spans))
        clone = json.loads(json.dumps(report))
        assert clone == report
        assert clone["cohorts"]["p99"]["exemplar"]

    def test_render_exemplar_mentions_every_attempt(self):
        buffer = _run(
            faults=FaultPlan(drop_prob=0.10),
            retry=RetryConfig(timeout_ns=2_000.0, max_retries=3,
                              backoff_ns=500.0),
        ).spans
        trace = next(
            t for t in buffer.completed() if len(t.attempts) > 1
        )
        text = render_exemplar(trace)
        for position in range(len(trace.attempts)):
            assert f"attempt[{position}]" in text


class TestExportAndGating:
    def test_span_export_writes_valid_trace_events(self, tmp_path):
        result = _run(requests=60)
        path = tmp_path / "spans.json"
        count = export_span_trace(result.spans, path)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count > 0
        assert {e["ph"] for e in payload["traceEvents"]} <= {"X", "i", "M"}

    def test_unified_export_combines_spans_and_telemetry(self, tmp_path):
        from repro.telemetry import export_unified_trace

        result = _run(requests=60, telemetry=True)
        path = tmp_path / "unified.json"
        count = export_unified_trace(
            path, spans=result.spans, telemetry=result.telemetry
        )
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert any(e["ph"] == "C" for e in payload["traceEvents"])
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_tails_rejects_non_des_engines(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        with pytest.raises(ValueError, match="des"):
            run_tails(profile="smoke", engine="fast")
        monkeypatch.setenv("REPRO_ENGINE", "fluid")
        with pytest.raises(ValueError, match="des"):
            run_tails(profile="smoke")

    def test_tails_auto_engine_resolves_to_des(self, monkeypatch):
        # auto must land on the one tier with the tracing capability
        # and reach the (DES-only) scenario batch instead of raising.
        from repro.experiments import tails

        class Reached(Exception):
            pass

        def reached(fn, tasks, **kwargs):
            assert fn is tails._run_tails_task and tasks
            raise Reached

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setattr(tails, "map_points", reached)
        with pytest.raises(Reached):
            tails.run_tails(profile="smoke", engine="auto")

    def test_scenario_keys_are_unique(self):
        keys = [row[0] for row in _scenarios()]
        assert len(keys) == len(set(keys))

    def test_manifest_records_capture_accounting(self):
        manifest = build_manifest(
            "x", capture={"max_messages": 5, "dropped_messages": 2}
        )
        assert manifest["capture"] == {
            "max_messages": 5, "dropped_messages": 2,
        }
        assert "capture" not in build_manifest("x")
