"""Messaging-domain buffers: footprint formula and slot state machines."""

import pytest

from repro.arch import (
    COUNTER_BLOCK_BYTES,
    MessagingDomain,
    ReceiveBuffer,
    ReceiveSlot,
    SEND_SLOT_BYTES,
)


class TestFootprintFormula:
    """§4.2: 32·N·S + (max_msg_size + 64)·N·S bytes."""

    def test_formula(self):
        domain = MessagingDomain(num_nodes=200, slots_per_node=32, max_msg_bytes=2048)
        n_s = 200 * 32
        assert domain.send_buffer_bytes == 32 * n_s
        assert domain.receive_buffer_bytes == (2048 + 64) * n_s
        assert domain.footprint_bytes == 32 * n_s + (2048 + 64) * n_s

    def test_paper_scale_is_tens_of_mb(self):
        # §4.2: "for current deployments, that number should not exceed
        # a few tens of MBs".
        domain = MessagingDomain(num_nodes=200, slots_per_node=32, max_msg_bytes=2048)
        assert domain.footprint_bytes < 64 * 2**20

    def test_constants(self):
        assert SEND_SLOT_BYTES == 32
        assert COUNTER_BLOCK_BYTES == 64

    def test_slot_index_layout(self):
        domain = MessagingDomain(num_nodes=10, slots_per_node=4, max_msg_bytes=64)
        assert domain.receive_slot_index(0, 0) == 0
        assert domain.receive_slot_index(0, 3) == 3
        assert domain.receive_slot_index(1, 0) == 4
        assert domain.receive_slot_index(9, 3) == 39
        with pytest.raises(ValueError):
            domain.receive_slot_index(10, 0)
        with pytest.raises(ValueError):
            domain.receive_slot_index(0, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MessagingDomain(0, 1, 64)
        with pytest.raises(ValueError):
            MessagingDomain(1, 0, 64)
        with pytest.raises(ValueError):
            MessagingDomain(1, 1, 0)


class TestReceiveSlot:
    def test_counter_reaches_length(self):
        slot = ReceiveSlot()
        slot.begin_message(expected_packets=3)
        assert not slot.packet_arrived()
        assert not slot.packet_arrived()
        assert slot.packet_arrived()  # third packet completes

    def test_too_many_packets_rejected(self):
        slot = ReceiveSlot()
        slot.begin_message(1)
        slot.packet_arrived()
        with pytest.raises(RuntimeError, match="more packets"):
            slot.packet_arrived()

    def test_busy_slot_rejects_new_message(self):
        slot = ReceiveSlot()
        slot.begin_message(1)
        with pytest.raises(RuntimeError, match="in-flight"):
            slot.begin_message(1)

    def test_release_then_reuse(self):
        slot = ReceiveSlot()
        slot.begin_message(1)
        slot.packet_arrived()
        slot.release()
        slot.begin_message(2)  # reusable
        assert slot.expected_packets == 2

    def test_packet_for_idle_slot_rejected(self):
        with pytest.raises(RuntimeError):
            ReceiveSlot().packet_arrived()

    def test_release_idle_rejected(self):
        with pytest.raises(RuntimeError):
            ReceiveSlot().release()


class TestBuffers:
    def make_domain(self):
        return MessagingDomain(num_nodes=4, slots_per_node=2, max_msg_bytes=128)

    def test_receive_buffer_lifecycle(self):
        buffer = ReceiveBuffer(self.make_domain())
        index = buffer.begin_message(2, 1, expected_packets=2)
        assert index == 2 * 2 + 1
        assert not buffer.packet_arrived(index)
        assert buffer.packet_arrived(index)
        buffer.release(index)
        assert buffer.occupied == 0
        assert buffer.max_occupied == 1  # high-water mark persists
