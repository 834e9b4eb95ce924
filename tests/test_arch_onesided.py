"""One-sided remote reads/writes: the soNUMA baseline primitives."""

import pytest

from repro.arch import Chip, ChipConfig, OneSidedEngine
from repro.balancing import SingleQueue
from repro.sim import Environment, RngRegistry
from repro.workloads import MicrobenchCosts, MicrobenchProgram


def build():
    env = Environment()
    chip = Chip(
        env, ChipConfig(), MicrobenchProgram(MicrobenchCosts.lean()),
        RngRegistry(0),
    )
    SingleQueue().install(chip, RngRegistry(0).stream("d"))
    return chip, OneSidedEngine(chip)


def issue_and_run(chip, engine, op, size, core_id=0):
    results = []
    engine.issue(op, size, core_id=core_id, on_complete=results.append)
    chip.env.run()
    return results[0]


class TestLatencyModel:
    def test_small_read_is_sub_microsecond(self):
        # soNUMA's headline: remote reads ≈ 300ns at rack scale.
        chip, engine = build()
        completion = issue_and_run(chip, engine, "read", 64)
        assert 150.0 < completion.latency_ns < 500.0

    def test_round_trip_matches_model(self):
        chip, engine = build()
        expected = engine.round_trip_ns("read", 64, core_id=0)
        completion = issue_and_run(chip, engine, "read", 64)
        assert completion.latency_ns == pytest.approx(expected)

    def test_latency_grows_with_payload(self):
        chip, engine = build()
        small = engine.round_trip_ns("read", 64, 0)
        large = engine.round_trip_ns("read", 4096, 0)
        assert large > small
        # Payload contributes per-packet time on both NI pipelines.
        per_packet = chip.config.backend_per_packet_ns
        assert large - small == pytest.approx((64 - 1) * 2 * per_packet)

    def test_read_write_symmetric_for_same_payload(self):
        _chip, engine = build()
        assert engine.round_trip_ns("read", 512, 0) == pytest.approx(
            engine.round_trip_ns("write", 512, 0)
        )

    def test_wire_latency_dominates_scaling(self):
        chip_far, engine_far = build()
        chip_far.config = chip_far.config  # default wire 100ns
        far = engine_far.round_trip_ns("read", 64, 0)

        env = Environment()
        near_config = ChipConfig(wire_latency_ns=10.0)
        chip_near = Chip(
            env, near_config, MicrobenchProgram(MicrobenchCosts.lean()),
            RngRegistry(0),
        )
        SingleQueue().install(chip_near, RngRegistry(0).stream("d"))
        near = OneSidedEngine(chip_near).round_trip_ns("read", 64, 0)
        assert far - near == pytest.approx(2 * 90.0)

    def test_invalid_op(self):
        _chip, engine = build()
        with pytest.raises(ValueError):
            engine.round_trip_ns("swap", 64, 0)
        with pytest.raises(ValueError):
            engine.issue("swap", 64)


class TestAccounting:
    def test_counters(self):
        chip, engine = build()
        issue_and_run(chip, engine, "read", 64)
        assert engine.reads_issued == 1
        assert engine.writes_issued == 0

    def test_backend_occupied_by_payload(self):
        chip, engine = build()
        issue_and_run(chip, engine, "read", 4096, core_id=0)
        backend = chip.backends[chip._nearest_backend(0)]
        assert backend.busy_ns > 0

    def test_no_dispatcher_involvement(self):
        # One-sided ops never create RPC work (§3.3).
        chip, engine = build()
        issue_and_run(chip, engine, "write", 512)
        assert all(d.dispatched == 0 for d in chip.dispatchers)
        assert chip.stats.completed == 0

    def test_concurrent_ops_complete(self):
        chip, engine = build()
        completions = []
        for core_id in range(8):
            engine.issue("read", 512, core_id=core_id, on_complete=completions.append)
        chip.env.run()
        assert len(completions) == 8
        assert all(c.latency_ns > 0 for c in completions)
