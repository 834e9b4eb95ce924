"""Telemetry layer: primitives, hub/sampler, instrumentation, merging.

The contract under test, in rough order of importance:

1. merged telemetry is bit-identical however tasks are distributed
   over workers (the whole point of mergeable primitives);
2. enabling telemetry never perturbs simulation results;
3. the disabled path stays zero-cost (no hub, no sampler, bare
   ``is not None`` guards);
4. the primitives themselves are correct (counts, quantile error
   bounds, envelope merging) and picklable.
"""

import io
import json
import math
import pickle

import numpy as np
import pytest

from repro.core import make_system, sweep_many, sweep_telemetry
from repro.queueing import QueueingSystem
from repro.dists import Fixed
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    TelemetryHub,
    TelemetrySnapshot,
    TimeSeries,
    merge_histograms,
    merge_snapshots,
    series_csv,
    snapshot_jsonl_lines,
    write_snapshot_jsonl,
)


# -- Counter / Gauge ----------------------------------------------------------

def test_counter_inc_and_merge():
    a = Counter("x")
    a.inc()
    a.inc(4)
    b = Counter("x", value=10)
    assert a.merge(b) is a
    assert a.value == 15


def test_gauge_envelope_and_merge():
    a = Gauge("depth")
    for value in (3.0, 1.0, 7.0):
        a.set(value)
    assert (a.value, a.min, a.max, a.updates) == (7.0, 1.0, 7.0, 3)
    b = Gauge("depth")
    b.set(0.5)
    a.merge(b)
    assert a.value == 0.5  # last value comes from the later task
    assert a.min == 0.5 and a.max == 7.0 and a.updates == 4


def test_gauge_merge_with_no_updates_keeps_value():
    a = Gauge("depth")
    a.set(2.0)
    a.merge(Gauge("depth"))
    assert a.value == 2.0 and a.updates == 1


# -- Histogram ----------------------------------------------------------------

def test_histogram_exact_stats():
    h = Histogram("lat")
    values = [0.0, 1.0, 2.0, 4.0, 100.0]
    for v in values:
        h.record(v)
    assert h.count == len(values)
    assert h.total == sum(values)
    assert h.min == 0.0 and h.max == 100.0
    assert h.zero_count == 1
    assert h.mean == pytest.approx(np.mean(values))


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        Histogram().record(-1.0)
    with pytest.raises(ValueError):
        Histogram().record_many(np.array([1.0, -2.0]))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_histogram_rejects_non_finite(value):
    message = f"must be finite and >= 0, got {value!r}"
    h = Histogram()
    with pytest.raises(ValueError, match=message):
        h.record(value)
    with pytest.raises(ValueError, match=message):
        h.record_many(np.array([1.0, value]))
    assert h.count == 0 and h.counts == {}


def test_histogram_quantile_relative_error_bound():
    """Quantiles are within one bucket ratio of the exact value."""
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=3.0, sigma=1.5, size=20_000)
    h = Histogram("lat")
    h.record_many(values)
    ratio = 2.0 ** (1.0 / h.buckets_per_octave)
    for q in (0.1, 0.5, 0.9, 0.99):
        exact = np.quantile(values, q)
        approx = h.quantile(q)
        assert exact / ratio <= approx <= exact * ratio


def test_histogram_bucket_edge_values_land_in_their_bucket():
    # Values on an exact bucket edge (8.0 = base**192 at 64
    # buckets/octave) used to floor one bucket low from float log
    # error, dragging quantiles a full bucket under the true value.
    h = Histogram("edge", buckets_per_octave=64)
    for value in (2.0, 4.0, 8.0, 16.0, 2.0 ** (1 / 64), 2.0 ** (193 / 64)):
        index = h._bucket_index(value)
        low, high = h.bucket_bounds(index)
        assert low <= value < high, value


def test_histogram_edge_quantile_not_a_bucket_low():
    h = Histogram("edge")
    for _ in range(100):
        h.record(8.0)
    ratio = 2.0 ** (1.0 / h.buckets_per_octave)
    for q in (0.5, 0.99):
        assert 8.0 <= h.quantile(q) <= 8.0 * ratio


def test_histogram_record_many_edge_snap_matches_scalar_path():
    values = np.array([8.0] * 8 + [5.0, 16.0, 2.0, 0.0, 2.0 ** (65 / 64)])
    scalar, vectorized = Histogram("a"), Histogram("b")
    for value in values:
        scalar.record(float(value))
    vectorized.record_many(values)
    assert scalar.counts == vectorized.counts
    assert scalar.zero_count == vectorized.zero_count


def test_histogram_quantile_edges():
    h = Histogram()
    assert math.isnan(h.quantile(0.5))
    h.record_many(np.zeros(10))
    assert h.quantile(0.99) == 0.0
    h2 = Histogram()
    h2.record(5.0)
    assert h2.quantile(0.0) == pytest.approx(5.0)
    assert h2.quantile(1.0) == pytest.approx(5.0)


def test_histogram_record_many_matches_scalar_path():
    values = np.array([0.0, 0.5, 1.0, 3.7, 3.7, 128.0])
    scalar, vector = Histogram("h"), Histogram("h")
    for v in values:
        scalar.record(float(v))
    vector.record_many(values)
    assert scalar == vector


def test_histogram_merge_order_independent():
    rng = np.random.default_rng(3)
    chunks = [rng.exponential(10.0, size=500) for _ in range(4)]
    parts = []
    for chunk in chunks:
        h = Histogram("lat")
        h.record_many(chunk)
        parts.append(h)
    forward = merge_histograms(parts)
    backward = merge_histograms(reversed(parts))
    combined = Histogram("lat")
    combined.record_many(np.concatenate(chunks))
    assert forward == backward == combined


def test_histogram_merge_rejects_mixed_resolution():
    with pytest.raises(ValueError):
        Histogram(buckets_per_octave=8).merge(Histogram(buckets_per_octave=4))


def test_primitives_pickle_roundtrip():
    h = Histogram("lat")
    h.record_many(np.array([1.0, 2.0, 0.0]))
    g = Gauge("g")
    g.set(3.0)
    s = TimeSeries("s")
    s.append(1.0, 2.0)
    for obj in (Counter("c", value=5), g, h, s):
        assert pickle.loads(pickle.dumps(obj)) == obj


# -- TelemetryHub / PeriodicSampler -------------------------------------------

def test_hub_get_or_create_identity():
    hub = TelemetryHub()
    assert hub.counter("a") is hub.counter("a")
    assert hub.gauge("b") is hub.gauge("b")
    assert hub.histogram("c") is hub.histogram("c")


def test_hub_duplicate_probe_rejected():
    hub = TelemetryHub(sample_interval=1.0)
    hub.add_probe("q", lambda: 0.0)
    with pytest.raises(ValueError):
        hub.add_probe("q", lambda: 1.0)


def test_hub_without_interval_or_probes_has_no_sampler():
    assert TelemetryHub().make_sampler() is None
    assert TelemetryHub(sample_interval=5.0).make_sampler() is None
    hub = TelemetryHub()
    hub.add_probe("q", lambda: 0.0)
    assert hub.make_sampler() is None


def test_periodic_sampler_ticks():
    hub = TelemetryHub(sample_interval=10.0)
    state = {"v": 0.0}
    series = hub.add_probe("v", lambda: state["v"])
    sampler = hub.make_sampler()
    assert sampler.next_at == 10.0
    state["v"] = 1.0
    sampler.advance(25.0)  # ticks at 10 and 20
    assert series.times == [10.0, 20.0]
    assert series.values == [1.0, 1.0]
    sampler.advance(25.0)  # no new tick due
    assert len(series) == 2
    assert sampler.next_at == 30.0


def test_sampler_driven_by_engine():
    from repro.sim import Environment

    env = Environment()

    def tick(remaining):
        if remaining:
            env.schedule_call(1.0, tick, remaining - 1)

    env.schedule_call(0.0, tick, 10)  # calls at 0, 1, ..., 10
    hub = TelemetryHub(sample_interval=2.5)
    clock = hub.add_probe("clock", lambda: env.now)
    env.attach_sampler(hub.make_sampler())
    env.run()
    # Ticks at 2.5, 5.0, 7.5, 10.0 — nothing beyond the last event.
    assert clock.times == [2.5, 5.0, 7.5, 10.0]


# -- snapshots ----------------------------------------------------------------

def _snapshot_with(name, values):
    hub = TelemetryHub()
    hub.counter("n").inc(len(values))
    hub.histogram(name).record_many(np.asarray(values, dtype=float))
    return hub.snapshot()


def test_merge_snapshots_skips_none_and_is_fresh():
    a = _snapshot_with("lat", [1.0, 2.0])
    b = _snapshot_with("lat", [3.0])
    merged = merge_snapshots([None, a, None, b])
    assert merged.counters["n"].value == 3
    assert merged.histograms["lat"].count == 3
    # The merge must not alias the inputs.
    merged.histograms["lat"].record(9.0)
    assert a.histograms["lat"].count == 2
    assert merge_snapshots([None, None]) is None


def test_snapshot_pickle_roundtrip():
    snapshot = _snapshot_with("lat", [1.0, 5.0, 0.0])
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone.counters == snapshot.counters
    assert clone.histograms == snapshot.histograms


# -- exporters ----------------------------------------------------------------

def test_snapshot_jsonl_lines_schema():
    hub = TelemetryHub()
    hub.counter("c").inc(2)
    hub.gauge("g").set(1.5)
    hub.histogram("h").record_many(np.array([0.0, 4.0]))
    hub.series["s"] = s = TimeSeries("s")
    s.append(1.0, 2.0)
    lines = [json.loads(line) for line in snapshot_jsonl_lines(hub.snapshot())]
    kinds = [line["kind"] for line in lines]
    assert kinds == ["counter", "gauge", "histogram", "series"]
    histogram = lines[2]
    assert histogram["count"] == 2 and histogram["zero_count"] == 1
    assert histogram["sum"] == 4.0
    buffer = io.StringIO()
    assert write_snapshot_jsonl(hub.snapshot(), buffer) == 4
    assert buffer.getvalue().count("\n") == 4


def test_series_csv_long_format():
    snapshot = TelemetrySnapshot()
    series = TimeSeries("q")
    series.append(1.0, 3.0)
    series.append(2.0, 4.0)
    snapshot.series["q"] = series
    text = series_csv(snapshot)
    assert text.splitlines() == ["series,time,value", "q,1,3", "q,2,4"]


# -- arch integration ---------------------------------------------------------

def _run_point(telemetry, **kwargs):
    system = make_system("1x16", "synthetic-fixed", seed=11, telemetry=telemetry)
    return system.run_point(10.0, num_requests=2_000, **kwargs)


def test_instrumented_run_populates_telemetry():
    result = _run_point(True)
    snapshot = result.telemetry
    assert snapshot is not None
    assert snapshot.counters["arch.dispatches"].value == 2_000
    assert snapshot.histograms["arch.shared_cq_depth"].count == 2_000
    assert snapshot.histograms["arch.dispatch_outstanding"].count == 2_000
    assert any(len(s) > 0 for s in snapshot.series.values())
    assert result.point.extra["telemetry"] is snapshot


def test_telemetry_does_not_perturb_results():
    plain = _run_point(False)
    instrumented = _run_point(True)
    assert plain.telemetry is None
    assert instrumented.point.summary.mean == plain.point.summary.mean
    assert instrumented.p99 == plain.p99
    assert instrumented.point.achieved_throughput == plain.point.achieved_throughput


def test_disabled_run_attaches_nothing():
    system = make_system("1x16", "synthetic-fixed", seed=11)
    result = system.run_point(10.0, num_requests=500)
    assert result.telemetry is None
    assert "telemetry" not in result.point.extra


# -- max_messages cap (satellite) ---------------------------------------------

def test_max_messages_caps_capture_and_reports_drops():
    capped = _run_point(False, keep_messages=True, max_messages=100)
    assert len(capped.messages) == 100
    assert capped.dropped_messages == 1_900
    uncapped = _run_point(False, keep_messages=True)
    assert len(uncapped.messages) == 2_000
    assert uncapped.dropped_messages == 0
    # The cap keeps the newest records.
    assert [m.msg_id for m in capped.messages] == [
        m.msg_id for m in uncapped.messages[-100:]
    ]


# -- cross-worker bit-identity ------------------------------------------------

def _telemetry_sweep(workers):
    systems = {
        scheme: make_system(scheme, "synthetic-fixed", seed=5, telemetry=True)
        for scheme in ("1x16", "16x1")
    }
    return sweep_many(
        systems,
        [8.0, 16.0],
        num_requests=800,
        workers=workers,
        experiment="test-telemetry",
    )


def test_merged_telemetry_identical_across_worker_counts():
    """The tentpole contract: workers=2 merges bit-identically to serial."""
    serial = _telemetry_sweep(1)
    parallel = _telemetry_sweep(2)
    for scheme in ("1x16", "16x1"):
        a = sweep_telemetry(serial[scheme])
        b = sweep_telemetry(parallel[scheme])
        assert a.counters == b.counters
        assert a.histograms == b.histograms
        assert a.gauges == b.gauges
        assert sorted(a.series) == sorted(b.series)
        for name in a.series:
            assert a.series[name] == b.series[name]
        for mine, theirs in zip(serial[scheme].points, parallel[scheme].points):
            assert mine.summary.mean == theirs.summary.mean
            assert mine.p99 == theirs.p99


def test_sweep_telemetry_none_without_instrumentation():
    system = make_system("1x16", "synthetic-fixed", seed=5)
    sweep = system.sweep([8.0], num_requests=400)
    assert sweep_telemetry(sweep) is None


# -- queueing-layer telemetry -------------------------------------------------

def test_queueing_telemetry_depth_histograms():
    base = QueueingSystem(4, 4, Fixed(1.0), seed=9)
    plain = base.run(0.7, num_requests=4_000)
    instrumented = QueueingSystem(4, 4, Fixed(1.0), seed=9, telemetry=True).run(
        0.7, num_requests=4_000
    )
    snapshot = instrumented.extra["telemetry"]
    assert "telemetry" not in plain.extra
    # Telemetry must not change the simulated latencies.
    assert instrumented.summary.mean == plain.summary.mean
    assert instrumented.p99 == plain.p99
    combined = snapshot.histograms["queueing.depth"]
    assert combined.count == 4_000
    per_queue = [
        snapshot.histograms[f"queueing.depth[q{q}]"] for q in range(4)
    ]
    assert sum(h.count for h in per_queue) == combined.count
    assert merge_histograms(per_queue).counts == combined.counts
    for q in range(4):
        series = snapshot.series[f"queue_len[q{q}]"]
        assert len(series) > 0
        assert all(b >= a for a, b in zip(series.times, series.times[1:]))
