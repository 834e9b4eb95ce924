"""NI components in isolation: QPs, frontends, backends."""

import pytest

from repro.arch import Chip, ChipConfig, QueuePair, make_send
from repro.balancing import SingleQueue
from repro.sim import Environment, RngRegistry
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
