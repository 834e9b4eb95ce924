"""NI components in isolation: QPs, frontends, backends."""

import pytest

from repro.arch import Chip, ChipConfig, QueuePair, make_send
from repro.balancing import SingleQueue
from repro.sim import Environment, RngRegistry
from repro.telemetry import Histogram, TelemetryHub, instrument_chip
from repro.workloads import MicrobenchCosts, MicrobenchProgram


def build_chip(config=None):
    env = Environment()
    chip = Chip(
        env,
        config or ChipConfig(),
        MicrobenchProgram(MicrobenchCosts.lean()),
        RngRegistry(0),
    )
    SingleQueue().install(chip, RngRegistry(0).stream("dispatch"))
    return chip


class TestQueuePair:
    def test_cq_depth_high_water(self):
        qp = QueuePair(core_id=0)
        for index in range(3):
            qp.post_cqe(index)
        assert qp.max_cq_depth == 3
        assert len(qp.cq) == 3


class TestNIFrontend:
    def test_deliver_counts_cqes(self):
        chip = build_chip()
        msg = make_send(chip.config, 0, 0, 0, 128, 100.0)
        chip.submit_message(msg)
        chip.env.run()
        total_cqes = sum(fe.cqes_written for fe in chip.frontends)
        assert total_cqes == 1
        assert chip.frontends[msg.core_id].cqes_written == 1


class TestNIBackend:
    def test_pipeline_occupancy_serializes(self):
        # Two back-to-back 8-packet messages on the same backend must
        # be reassembled strictly one after the other.
        config = ChipConfig(num_backends=1)
        chip = build_chip(config)
        first = make_send(chip.config, 0, 0, 0, 512, 100.0)
        second = make_send(chip.config, 1, 0, 1, 512, 100.0)
        chip.submit_message(first)
        chip.submit_message(second)
        chip.env.run()
        occupancy = config.backend_fixed_ns + 8 * config.backend_per_packet_ns
        assert first.t_reassembled == pytest.approx(occupancy)
        assert second.t_reassembled == pytest.approx(2 * occupancy)

    def test_busy_time_accounted(self):
        # Reassembling the 2-packet request plus egressing the 512B
        # reply (the microbenchmark's default reply size).
        config = ChipConfig(num_backends=1)
        chip = build_chip(config)
        msg = make_send(chip.config, 0, 0, 0, 128, 100.0)
        chip.submit_message(msg)
        chip.env.run()
        backend = chip.backends[0]
        assert backend.messages_reassembled == 1
        assert backend.replies_sent == 1
        reply_packets = config.packets_for(512)
        assert backend.busy_ns == pytest.approx(
            2 * config.backend_fixed_ns
            + (2 + reply_packets) * config.backend_per_packet_ns
        )

    def test_reply_egress_hits_backend(self):
        chip = build_chip()
        msg = make_send(chip.config, 0, 0, 0, 128, 100.0)
        chip.submit_message(msg)
        chip.env.run()
        assert sum(b.replies_sent for b in chip.backends) == 1

    def test_messages_spread_across_backends(self):
        chip = build_chip()
        for msg_id in range(64):
            msg = make_send(
                chip.config, msg_id, msg_id % 199, 0, 128, 50.0
            )
            chip.submit_message(msg)
        chip.env.run()
        handled = [b.messages_reassembled for b in chip.backends]
        assert sum(handled) == 64
        assert all(count > 0 for count in handled)


class TestBookedBackend:
    """The backend books each item as a FIFO server: it starts when the
    item before it leaves and takes fixed + P·per-packet (6 + 3P ns)."""

    def _backlog(self):
        # One backend, loaded at t = 0, 5, 10, 12, 20 (ns):
        #   item              P  start  done
        #   message a (512B)  8      0    30
        #   data              4     30    48
        #   message b (128B)  2     48    60
        #   one-sided (64B)   1     60    69
        #   message c (64B)   1     69    78
        chip = build_chip(ChipConfig(num_backends=1))
        backend = chip.backends[0]
        backend.depth_hist = Histogram("depth")
        env = chip.env
        messages = [
            make_send(chip.config, index, 0, index, size, 100.0)
            for index, size in enumerate((512, 128, 64))
        ]
        env.schedule_call(0.0, chip.submit_message, messages[0])
        env.schedule_call(5.0, backend.occupy_pipeline, 4)
        env.schedule_call(10.0, chip.submit_message, messages[1])
        env.schedule_call(12.0, chip.submit_onesided, 64)
        env.schedule_call(20.0, chip.submit_message, messages[2])
        return chip, backend, messages

    def test_reassembly_busy_time_and_depth_match_a_fifo(self):
        chip, backend, messages = self._backlog()
        chip.env.run(until=25.0)
        assert [m.t_reassembled for m in messages] == [30.0, 60.0, 78.0]
        assert backend.free_at == 78.0
        assert backend.busy_ns == 30.0 + 18.0 + 12.0 + 9.0 + 9.0
        # Items waiting behind the one in service at each message's
        # arrival: none at t=0; data and b at t=10; data, b, the
        # one-sided write and c at t=20.
        hist = backend.depth_hist
        assert (hist.count, hist.zero_count, hist.total, hist.max) == (3, 1, 6.0, 4)
        # As of just before a time, an item starting then still waits.
        assert [backend.queue_depth(at) for at in (25.0, 48.0, 60.0, 61.0, 70.0)] == [
            4, 3, 2, 1, 0,
        ]
        chip.env.run()
        assert backend.messages_reassembled == 3
        assert backend.onesided_handled == 1
        assert backend.replies_sent == 3

    def test_periodic_probe_reads_the_tick_not_the_last_call(self):
        # Four 30 ns items booked at t = 0 start at 0, 30, 60 and 90;
        # the next call is at t = 100, so every tick up to it is
        # sampled while the clock still reads 0.
        chip = build_chip(ChipConfig(num_backends=1))
        hub = TelemetryHub(sample_interval=10.0)
        instrument_chip(chip, hub)
        chip.env.attach_sampler(hub.make_sampler())
        backend = chip.backends[0]
        for _ in range(4):
            backend.occupy_pipeline(8)
        chip.env.schedule_call(100.0, lambda: None)
        chip.env.run()
        series = hub.series["backend[0].pipeline"]
        # Booked work ends at 120: the drained clock and the last
        # ticks follow it.
        assert chip.env.now == 120.0
        assert list(series.times) == [10.0 * k for k in range(1, 13)]
        assert list(series.values) == [3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0]

    def test_end_clock_when_reply_egress_outlasts_the_slot_return(self):
        # The slot returns 1 ns after the replenish; the 512B reply
        # occupies its backend for 30 ns, so the run ends with it.
        config = ChipConfig(num_backends=1, wire_latency_ns=1.0)
        chip = build_chip(config)
        returned = []
        chip.on_slot_replenished = lambda msg: returned.append(chip.env.now)
        msg = make_send(chip.config, 0, 0, 0, 128, 100.0)
        chip.submit_message(msg)
        chip.env.run()
        assert returned == [msg.t_replenish + 1.0]
        egress = config.backend_fixed_ns + 8 * config.backend_per_packet_ns
        assert chip.env.now == msg.t_replenish + egress == chip.backends[0].free_at


class TestProtocolValidation:
    def test_make_send_validates_ranges(self):
        config = ChipConfig()
        with pytest.raises(ValueError):
            make_send(config, 0, 199, 0, 128, 1.0)  # src out of range
        with pytest.raises(ValueError):
            make_send(config, 0, 0, 32, 128, 1.0)  # slot out of range

    def test_send_message_validates(self):
        from repro.arch import SendMessage

        with pytest.raises(ValueError):
            SendMessage(0, 0, 0, 128, 2, service_ns=-1.0)
        with pytest.raises(ValueError):
            SendMessage(0, 0, 0, 128, 0, service_ns=1.0)

    def test_latency_before_completion_raises(self):
        from repro.arch import SendMessage

        msg = SendMessage(0, 0, 0, 128, 2, 100.0)
        with pytest.raises(RuntimeError):
            _ = msg.latency_ns
        with pytest.raises(RuntimeError):
            _ = msg.queueing_ns
