"""End-to-end message walk-through on the simulated chip."""

import sys

import pytest

from repro.arch import Chip, ChipConfig, make_send
from repro.balancing import Grouped, Partitioned, SingleQueue
from repro.core import make_system
from repro.sim import Environment, RngRegistry
from repro.workloads import MicrobenchCosts, MicrobenchProgram, TrafficGenerator


def build_chip(scheme=None, config=None, costs=None):
    env = Environment()
    config = config or ChipConfig()
    costs = costs or MicrobenchCosts.lean()
    chip = Chip(env, config, MicrobenchProgram(costs), RngRegistry(0))
    scheme = scheme or SingleQueue()
    scheme.install(chip, RngRegistry(0).stream("dispatch"))
    return chip


def submit(chip, msg_id=0, src_node=0, slot=0, size=128, service=600.0, label="rpc"):
    msg = make_send(
        chip.config, msg_id, src_node, slot, size, service, label=label
    )
    chip.submit_message(msg)
    return msg


class TestSingleMessage:
    def test_timestamps_are_ordered(self):
        chip = build_chip()
        msg = submit(chip)
        chip.env.run()
        assert msg.t_arrival == 0.0
        assert msg.t_arrival < msg.t_reassembled
        assert msg.t_reassembled <= msg.t_dispatch
        assert msg.t_dispatch < msg.t_start
        assert msg.t_start < msg.t_replenish

    def test_latency_decomposition(self):
        costs = MicrobenchCosts.lean()
        chip = build_chip(costs=costs)
        msg = submit(chip, service=600.0)
        chip.env.run()
        # Core occupancy: pre + service + post, no queueing (idle chip).
        occupancy = msg.t_replenish - msg.t_start + costs.pre_ns
        assert occupancy == pytest.approx(costs.total_ns + 600.0)
        # End-to-end latency also includes NI work but no queueing;
        # the NI portion must be tens of ns, not µs.
        ni_portion = msg.latency_ns - occupancy
        assert 0 < ni_portion < 100.0

    def test_packetization(self):
        chip = build_chip()
        msg = submit(chip, size=128)
        assert msg.num_packets == 2
        chip.env.run()

    def test_core_recorded_and_stats(self):
        chip = build_chip()
        msg = submit(chip)
        chip.env.run()
        assert 0 <= msg.core_id < 16
        assert chip.stats.submitted == 1
        assert chip.stats.completed == 1
        assert chip.cores[msg.core_id].processed == 1

    def test_latency_recorder_collects(self):
        chip = build_chip()
        submit(chip, label="get")
        chip.env.run()
        assert len(chip.recorder) == 1
        assert chip.recorder.labels == ["get"]

    def test_receive_slot_released(self):
        chip = build_chip()
        submit(chip)
        chip.env.run()
        assert chip.receive_buffer.occupied == 0
        assert chip.receive_buffer.max_occupied == 1

    def test_replenish_frees_sender_slot(self):
        chip = build_chip()
        released = []
        chip.on_slot_replenished = lambda message: released.append(
            (chip.env.now, message.src_node, message.slot)
        )
        msg = submit(chip, src_node=7, slot=3)
        chip.env.run()
        assert len(released) == 1
        when, src, slot = released[0]
        assert (src, slot) == (7, 3)
        # Slot credit arrives one wire latency after the replenish.
        assert when == pytest.approx(
            msg.t_replenish + chip.config.wire_latency_ns
        )


class TestRendezvous:
    def test_oversized_message_uses_rendezvous(self):
        chip = build_chip()
        msg = submit(chip, size=8192)  # > max_msg_bytes (2048)
        chip.env.run()
        assert msg.rendezvous
        assert msg.num_packets == 1  # descriptor only
        assert chip.stats.rendezvous_messages == 1
        # The fetch adds at least one wire round trip to the latency.
        assert msg.extra_pre_ns >= 2 * chip.config.wire_latency_ns

    def test_regular_message_is_not_rendezvous(self):
        chip = build_chip()
        msg = submit(chip, size=2048)
        chip.env.run()
        assert not msg.rendezvous
        assert chip.stats.rendezvous_messages == 0

    def test_rendezvous_latency_exceeds_regular(self):
        regular_chip = build_chip()
        regular = submit(regular_chip, size=2048)
        regular_chip.env.run()
        rendezvous_chip = build_chip()
        rendezvous = submit(rendezvous_chip, size=8192)
        rendezvous_chip.env.run()
        assert rendezvous.latency_ns > regular.latency_ns


class TestOneSided:
    def test_onesided_never_reaches_dispatcher(self):
        # §3.3: one-sided ops produce no CPU notification.
        chip = build_chip()
        chip.submit_onesided(size_bytes=512)
        chip.env.run()
        assert chip.stats.onesided_ops == 1
        assert chip.stats.completed == 0
        assert all(d.dispatched == 0 for d in chip.dispatchers)
        assert sum(b.onesided_handled for b in chip.backends) == 1


class TestSchemes:
    def test_no_scheme_rejected(self):
        env = Environment()
        chip = Chip(
            env, ChipConfig(), MicrobenchProgram(MicrobenchCosts.lean()),
            RngRegistry(0),
        )
        with pytest.raises(RuntimeError, match="no balancing scheme"):
            submit(chip)

    def test_single_queue_one_dispatcher(self):
        chip = build_chip(SingleQueue())
        assert len(chip.dispatchers) == 1
        assert chip.dispatchers[0].core_ids == list(range(16))

    def test_grouped_four_dispatchers(self):
        chip = build_chip(Grouped(4))
        assert len(chip.dispatchers) == 4
        assert chip.dispatchers[1].core_ids == [4, 5, 6, 7]

    def test_partitioned_sixteen(self):
        chip = build_chip(Partitioned())
        assert len(chip.dispatchers) == 16
        assert all(len(d.core_ids) == 1 for d in chip.dispatchers)
        assert all(d.outstanding_limit is None for d in chip.dispatchers)

    def test_grouped_indivisible_rejected(self):
        env = Environment()
        chip = Chip(
            env, ChipConfig(), MicrobenchProgram(MicrobenchCosts.lean()),
            RngRegistry(0),
        )
        with pytest.raises(ValueError, match="divisible"):
            Grouped(3).install(chip, RngRegistry(0).stream("d"))

    def test_partitioned_source_spray_is_static(self):
        chip = build_chip(Partitioned(spray="source"))
        groups = set()
        for msg_id in range(5):
            msg = submit(chip, msg_id=msg_id, src_node=9, slot=msg_id % 2)
            groups.add(msg.group_id)
            chip.env.run()
        assert len(groups) == 1  # same source → same core, always


class TestEventBudget:
    @pytest.mark.parametrize("scheme", ["1x16", "4x4", "16x1"])
    def test_kernel_events_per_rpc(self, scheme):
        # The per-RPC chain is six kernel events: the arrival, the
        # completion packet at the dispatcher (booked with the
        # backend's reassembly), CQE delivery, the core's completion,
        # the replenish at the dispatcher and the slot return. Backend
        # occupancy (reassembly, reply egress) is booked, not
        # scheduled: a finish event per backend item would push it
        # back to 7.75, per-RPC processes or store hand-offs higher.
        system = make_system(scheme, "herd", seed=0)
        rngs = RngRegistry(0)
        chip = system._build(rngs)
        TrafficGenerator(chip, system.workload, 23e6, 4_000, rngs)  # ≈0.8·C
        chip.env.run()
        assert chip.stats.completed == 4_000
        events = chip.env._next_eid()  # ids handed out so far
        assert events / chip.stats.completed <= 6.0

    @pytest.mark.parametrize("scheme", ["1x16", "4x4", "16x1"])
    def test_python_calls_per_rpc(self, scheme):
        # Each NI stage is one kernel call plus about one Python call of
        # model code: route tables instead of checked mesh lookups, the
        # program's fixed costs read once, one call per receive-slot
        # transition, backend occupancy booked in one call. About 36
        # per RPC today (77 before the chip path was flattened); a
        # wrapper layer per stage would add ~6.
        system = make_system(scheme, "herd", seed=0)
        rngs = RngRegistry(0)
        chip = system._build(rngs)
        TrafficGenerator(chip, system.workload, 23e6, 4_000, rngs)  # ≈0.8·C
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            chip.env.run()
        finally:
            sys.setprofile(None)
        assert chip.stats.completed == 4_000
        assert calls[0] / chip.stats.completed <= 38
