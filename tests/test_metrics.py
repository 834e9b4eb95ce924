"""Metrics: recorder, summaries, sweeps, SLO extraction, tables."""

import math

import numpy as np
import pytest

from repro.metrics import (
    LatencyRecorder,
    LatencySummary,
    LoadSweep,
    SweepPoint,
    SweepResult,
    format_table,
    sweep_table,
    sweeps_csv,
    throughput_under_slo,
)


def make_point(load, tput, p99, count=100):
    summary = LatencySummary(
        count=count, mean=p99 / 2, p50=p99 / 3, p90=p99 / 1.5,
        p95=p99 / 1.2, p99=p99, p999=p99 * 1.5, max=p99 * 2,
    )
    return SweepPoint(offered_load=load, achieved_throughput=tput, summary=summary)


class TestLatencyRecorder:
    def test_record_and_summary(self):
        recorder = LatencyRecorder()
        for index in range(100):
            recorder.record(float(index), float(index + 1))
        summary = recorder.summary()
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.max == 100.0
        assert summary.p50 == pytest.approx(np.percentile(np.arange(1, 101), 50))

    def test_labels_filter(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 10.0, "get")
        recorder.record(1.0, 99999.0, "scan")
        recorder.record(2.0, 20.0, "get")
        assert recorder.labels == ["get", "scan"]
        gets = recorder.latencies(label="get")
        np.testing.assert_array_equal(gets, [10.0, 20.0])
        assert recorder.summary(label="get").max == 20.0

    def test_warmup_time_trim(self):
        recorder = LatencyRecorder()
        for index in range(10):
            recorder.record(float(index), 1.0)
        assert recorder.latencies(warmup_time=5.0).size == 5

    def test_warmup_fraction_trim(self):
        recorder = LatencyRecorder()
        for index in range(100):
            recorder.record(float(index), 1.0)
        assert recorder.latencies(warmup_fraction=0.2).size == pytest.approx(
            80, abs=2
        )

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(0.0, -1.0)

    def test_empty_summary_is_nan(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert math.isnan(summary.p99)

    def test_throughput(self):
        recorder = LatencyRecorder()
        # 11 completions from t=0 to t=10: 10 per 10 time units after
        # the first.
        for index in range(11):
            recorder.record(float(index), 1.0)
        assert recorder.throughput() == pytest.approx(1.1)

    def test_throughput_degenerate(self):
        recorder = LatencyRecorder()
        assert recorder.throughput() == 0.0
        recorder.record(1.0, 1.0)
        assert recorder.throughput() == 0.0

    def test_invalid_warmup_fraction(self):
        with pytest.raises(ValueError):
            LatencyRecorder().latencies(warmup_fraction=1.0)


class TestLatencySummary:
    def test_empty_sample_is_nan_not_a_crash(self):
        # A run completing zero RPCs (e.g. all lost to injected
        # crashes) must summarize, not raise on np.percentile([]).
        for values in (np.array([]), [], np.array([], dtype=int)):
            summary = LatencySummary.from_values(values)
            assert summary.is_empty and summary.count == 0
            assert math.isnan(summary.p99) and math.isnan(summary.mean)
        assert LatencySummary.empty().is_empty
        assert not LatencySummary.from_values([1.0]).is_empty

    def test_from_values_coerces_integer_dtype(self):
        summary = LatencySummary.from_values(np.array([1, 2, 3]))
        assert summary.mean == pytest.approx(2.0)
        assert isinstance(summary.mean, float)

    def test_scaled(self):
        summary = LatencySummary.from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        scaled = summary.scaled(10.0)
        assert scaled.mean == pytest.approx(summary.mean * 10)
        assert scaled.p99 == pytest.approx(summary.p99 * 10)
        assert scaled.count == summary.count


class TestSweeps:
    def test_throughput_under_slo(self):
        points = [
            make_point(1.0, 1.0, 5.0),
            make_point(2.0, 2.0, 8.0),
            make_point(3.0, 2.9, 50.0),
        ]
        assert throughput_under_slo(points, slo=10.0) == 2.0
        assert throughput_under_slo(points, slo=100.0) == 2.9
        assert throughput_under_slo(points, slo=1.0) == 0.0
        with pytest.raises(ValueError):
            throughput_under_slo(points, slo=0.0)

    def test_sweep_result_helpers(self):
        sweep = SweepResult(
            "x", [make_point(1.0, 1.0, 5.0), make_point(2.0, 2.0, 9.0)]
        )
        assert sweep.p99s == [5.0, 9.0]
        assert sweep.throughputs == [1.0, 2.0]
        assert sweep.throughput_under_slo(6.0) == 1.0
        assert sweep.max_p99_before(1.5) == 5.0
        assert math.isnan(sweep.max_p99_before(0.5))
        assert len(sweep) == 2

    def test_load_sweep_runs_sorted(self):
        seen = []

        def run_point(load):
            seen.append(load)
            return make_point(load, load, load * 10)

        sweep = LoadSweep(run_point, [3.0, 1.0, 2.0], label="s").run()
        assert seen == [1.0, 2.0, 3.0]
        assert sweep.label == "s"

    def test_load_sweep_stops_at_saturation(self):
        def run_point(load):
            return make_point(load, load, 1000.0 if load > 1.5 else 1.0)

        sweep = LoadSweep(
            run_point,
            [1.0, 2.0, 3.0],
            stop_when_saturated=True,
            saturation_p99=100.0,
        ).run()
        assert len(sweep) == 2  # stopped after the first saturated point

    def test_load_sweep_validation(self):
        run = lambda load: make_point(load, load, 1.0)  # noqa: E731
        with pytest.raises(ValueError):
            LoadSweep(run, [])
        with pytest.raises(ValueError):
            LoadSweep(run, [0.0])
        with pytest.raises(ValueError):
            LoadSweep(run, [1.0], stop_when_saturated=True)


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.34567], [10, 3.0]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "2.3457" in table

    def test_format_table_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_table_nan(self):
        table = format_table(["x"], [[float("nan")]])
        assert "nan" in table

    def test_sweep_table_aligns_by_position(self):
        long_sweep = SweepResult(
            "long", [make_point(1, 1, 5), make_point(2, 2, 9)]
        )
        short_sweep = SweepResult("short", [make_point(1, 1, 6)])
        table = sweep_table([long_sweep, short_sweep])
        assert "long:tput" in table
        assert "short:p99" in table
        assert len(table.splitlines()) == 4

    def test_sweep_table_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_table([])

    def test_sweeps_csv(self):
        sweep = SweepResult("s", [make_point(1.0, 1.5, 5.0)])
        csv = sweeps_csv([sweep])
        lines = csv.strip().splitlines()
        assert lines[0].startswith("label,")
        assert lines[1].startswith("s,1.0,1.5,5.0")


class TestStageBreakdown:
    def test_breakdown_from_system_run(self):
        from repro import make_system
        from repro.metrics import breakdown_from_messages

        result = make_system("1x16", "herd", seed=1).run_point(
            10.0, 2_000, keep_messages=True
        )
        breakdown = breakdown_from_messages(result.messages)
        assert breakdown.count == 2_000
        # Stages must reconstruct the mean end-to-end latency.
        assert breakdown.total == pytest.approx(
            result.point.summary.mean, rel=0.15
        )
        # HERD's processing dominates; NI stages are tens of ns.
        fractions = breakdown.fractions()
        assert fractions["service"] > 0.4
        assert fractions["reassembly"] < 0.1
        assert "Latency breakdown" in breakdown.table()

    def test_breakdown_requires_completed_messages(self):
        from repro.arch import SendMessage
        from repro.metrics import breakdown_from_messages

        with pytest.raises(ValueError):
            breakdown_from_messages([])
        with pytest.raises(ValueError):
            breakdown_from_messages([SendMessage(0, 0, 0, 128, 2, 1.0)])

    def test_messages_not_kept_by_default(self):
        from repro import make_system

        result = make_system("1x16", "herd", seed=1).run_point(5.0, 500)
        assert result.messages is None


class TestAsciiChart:
    def _sweeps(self):
        return [
            SweepResult("a", [make_point(1.0, 1.0, 5.0), make_point(2.0, 2.0, 50.0)]),
            SweepResult("b", [make_point(1.0, 1.0, 3.0), make_point(2.0, 2.0, 9.0)]),
        ]

    def test_sweeps_chart_renders_series(self):
        from repro.metrics import sweeps_chart

        chart = sweeps_chart(self._sweeps(), title="demo")
        assert "demo" in chart
        assert "o = a" in chart
        assert "x = b" in chart
        assert "achieved throughput" in chart

    def test_linear_and_log_scales(self):
        from repro.metrics import sweeps_chart

        log_chart = sweeps_chart(self._sweeps(), log_y=True)
        linear_chart = sweeps_chart(self._sweeps(), log_y=False)
        assert "log scale" in log_chart
        assert "log scale" not in linear_chart

    def test_chart_validation(self):
        from repro.metrics import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart([])
        with pytest.raises(ValueError):
            ascii_chart([("a", [1.0], [1.0, 2.0])])
        with pytest.raises(ValueError):
            ascii_chart([("a", [1.0], [1.0])], width=4)
        with pytest.raises(ValueError):
            ascii_chart([("a", [float("nan")], [float("nan")])])

    def test_nan_points_skipped(self):
        from repro.metrics import ascii_chart

        chart = ascii_chart(
            [("a", [1.0, 2.0], [5.0, float("nan")])],
        )
        assert "o = a" in chart

    def test_csv_plain_floats(self):
        import numpy as np

        from repro.metrics import sweeps_csv

        point = make_point(np.float64(1.0), np.float64(1.5), np.float64(5.0))
        csv = sweeps_csv([SweepResult("s", [point])])
        assert "np.float64" not in csv


class TestChromeTrace:
    def _messages(self):
        from repro import make_system

        result = make_system("1x16", "herd", seed=1).run_point(
            10.0, 300, keep_messages=True
        )
        return result.messages

    def test_three_events_per_message(self):
        from repro.metrics import chrome_trace_events

        messages = self._messages()
        events = chrome_trace_events(messages)
        assert len(events) == 3 * len(messages)
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0

    def test_tracks_cover_stages(self):
        from repro.metrics import chrome_trace_events

        tids = {event["tid"] for event in chrome_trace_events(self._messages())}
        assert any(tid.startswith("NI backend") for tid in tids)
        assert any(tid.startswith("dispatcher") for tid in tids)
        assert any(tid.startswith("core") for tid in tids)

    def test_export_writes_valid_json(self, tmp_path):
        import json

        from repro.metrics import export_chrome_trace

        messages = self._messages()
        path = tmp_path / "trace.json"
        count = export_chrome_trace(messages, str(path))
        assert count == 3 * len(messages)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ns"
        assert len(payload["traceEvents"]) == count

    def test_export_to_file_object(self):
        import io
        import json

        from repro.metrics import export_chrome_trace

        buffer = io.StringIO()
        export_chrome_trace(self._messages(), buffer)
        assert json.loads(buffer.getvalue())["traceEvents"]

    def test_incomplete_message_rejected(self):
        from repro.arch import SendMessage
        from repro.metrics import chrome_trace_events

        with pytest.raises(ValueError):
            chrome_trace_events([SendMessage(0, 0, 0, 128, 2, 1.0)])
