"""Dispatcher mechanics and balancing-scheme behaviour."""

import numpy as np
import pytest

from repro.arch import Chip, ChipConfig, make_send
from repro.balancing import (
    Grouped,
    LeastOutstanding,
    Partitioned,
    RandomAvailable,
    RoundRobinAvailable,
    SingleQueue,
    SoftwareSingleQueue,
    make_policy,
)
from repro.sim import Environment, RngRegistry
from repro.workloads import MicrobenchCosts, MicrobenchProgram


def build_chip(scheme, costs=None, config=None):
    env = Environment()
    chip = Chip(
        env,
        config or ChipConfig(),
        MicrobenchProgram(costs or MicrobenchCosts.lean()),
        RngRegistry(0),
    )
    scheme.install(chip, RngRegistry(0).stream("dispatch"))
    return chip


def burst(chip, count, service=600.0):
    """Submit ``count`` messages at the current time."""
    for msg_id in range(count):
        src = msg_id % chip.config.num_remote_nodes
        slot = (msg_id // chip.config.num_remote_nodes) % (
            chip.config.send_slots_per_node
        )
        msg = make_send(chip.config, msg_id, src, slot, 128, service)
        chip.submit_message(msg)
    return chip


class TestSelectionPolicies:
    def test_least_outstanding_prefers_idle(self):
        policy = LeastOutstanding()
        outstanding = {0: 1, 1: 0, 2: 1}
        rng = np.random.default_rng(0)
        assert policy.select([0, 1, 2], outstanding, 2, rng) == 1

    def test_least_outstanding_tie_breaks_by_dispatch_age(self):
        policy = LeastOutstanding()
        outstanding = {0: 1, 1: 1}
        last_dispatch = {0: 50.0, 1: 10.0}
        rng = np.random.default_rng(0)
        # Core 1 was dispatched to earlier → expected to free first.
        assert policy.select([0, 1], outstanding, 2, rng, last_dispatch) == 1

    def test_none_when_all_at_limit(self):
        policy = LeastOutstanding()
        outstanding = {0: 2, 1: 2}
        rng = np.random.default_rng(0)
        assert policy.select([0, 1], outstanding, 2, rng) is None

    def test_unbounded_limit_always_selects(self):
        policy = RoundRobinAvailable()
        outstanding = {0: 99}
        rng = np.random.default_rng(0)
        assert policy.select([0], outstanding, None, rng) == 0

    def test_random_available_only_picks_available(self):
        policy = RandomAvailable()
        outstanding = {0: 2, 1: 1, 2: 2}
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert policy.select([0, 1, 2], outstanding, 2, rng) == 1

    def test_make_policy(self):
        assert make_policy("least_outstanding").name == "least_outstanding"
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_make_policy_fresh_state(self):
        assert make_policy("round_robin") is not make_policy("round_robin")


class TestDispatcherInvariants:
    def test_outstanding_never_exceeds_limit(self):
        chip = build_chip(SingleQueue(outstanding_limit=2))
        limit_violations = []
        dispatcher = chip.dispatchers[0]
        original = dispatcher._deliver

        def checked_deliver(msg, core_id):
            if dispatcher.outstanding[core_id] > 2:
                limit_violations.append(core_id)
            original(msg, core_id)

        dispatcher._deliver = checked_deliver
        burst(chip, 200)
        chip.env.run()
        assert not limit_violations
        assert chip.stats.completed == 200

    def test_private_cq_depth_bounded_by_limit(self):
        # The single-queue invariant: with threshold 2 (one processing +
        # one prefetched), a core's private CQ never holds more than 1.
        chip = build_chip(SingleQueue(outstanding_limit=2))
        burst(chip, 500)
        chip.env.run()
        assert chip.total_cqe_depth_high_water <= 1

    def test_partitioned_cq_grows_under_burst(self):
        chip = build_chip(Partitioned())
        burst(chip, 500)
        chip.env.run()
        assert chip.total_cqe_depth_high_water > 2

    def test_shared_cq_fifo_dispatch_order(self):
        chip = build_chip(SingleQueue())
        order = []
        dispatcher = chip.dispatchers[0]
        original = dispatcher._deliver

        def tracking_deliver(msg, core_id):
            order.append(msg.msg_id)
            original(msg, core_id)

        dispatcher._deliver = tracking_deliver
        burst(chip, 100)
        chip.env.run()
        assert order == sorted(order)

    def test_replenish_without_outstanding_rejected(self):
        chip = build_chip(SingleQueue())
        with pytest.raises(RuntimeError, match="no outstanding"):
            chip.dispatchers[0].on_replenish(0, None)

    def test_all_cores_used_under_load(self):
        chip = build_chip(SingleQueue())
        burst(chip, 400)
        chip.env.run()
        assert all(core.processed > 0 for core in chip.cores)

    def test_outstanding_drains_to_zero(self):
        chip = build_chip(SingleQueue())
        burst(chip, 64)
        chip.env.run()
        assert all(
            count == 0 for count in chip.dispatchers[0].outstanding.values()
        )
        assert len(chip.dispatchers[0].shared_cq) == 0

    def test_dispatch_serialization_advances_busy_until(self):
        chip = build_chip(SingleQueue())
        dispatcher = chip.dispatchers[0]
        burst(chip, 32)
        chip.env.run()
        # 32 dispatch decisions at dispatch_ns each were serialized.
        assert dispatcher.dispatched == 32
        assert dispatcher._busy_until > 0


class TestSoftwareScheme:
    def test_serialized_cost_is_handoff_plus_critical(self):
        scheme = SoftwareSingleQueue(handoff_ns=150.0, critical_ns=50.0)
        assert scheme.serialized_cost_ns == 200.0

    def test_core_overhead_installed(self):
        chip = build_chip(SoftwareSingleQueue(handoff_ns=150.0, critical_ns=50.0))
        assert chip.per_request_core_overhead_ns == 50.0

    def test_pull_semantics_limit_one(self):
        chip = build_chip(SoftwareSingleQueue())
        assert chip.dispatchers[0].outstanding_limit == 1

    def test_dequeue_ceiling_caps_throughput(self):
        # A burst of n requests cannot complete faster than n * 200ns.
        scheme = SoftwareSingleQueue(handoff_ns=150.0, critical_ns=50.0)
        chip = build_chip(scheme)
        n = 400
        burst(chip, n, service=10.0)  # tiny service: lock-bound
        chip.env.run()
        assert chip.env.now >= n * scheme.serialized_cost_ns

    def test_hardware_not_lock_bound(self):
        chip = build_chip(SingleQueue())
        n = 400
        burst(chip, n, service=10.0)
        chip.env.run()
        # 16 cores at ~230ns occupancy: far faster than 400 * 200ns.
        assert chip.env.now < n * 200.0

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            SoftwareSingleQueue(handoff_ns=-1.0)


class TestGroupedScheme:
    def test_labels(self):
        assert SingleQueue().label == "1xN"
        assert Grouped(4).label == "grouped-4"
        assert Partitioned().label == "Nx1"

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            Grouped(0)

    def test_invalid_outstanding(self):
        with pytest.raises(ValueError):
            SingleQueue(outstanding_limit=0)

    def test_invalid_spray(self):
        with pytest.raises(ValueError):
            Partitioned(spray="flow")

    def test_group_spray_covers_all_groups(self):
        chip = build_chip(Grouped(4))
        burst(chip, 400)
        chip.env.run()
        dispatched = [d.dispatched for d in chip.dispatchers]
        assert all(count > 0 for count in dispatched)
        assert sum(dispatched) == 400


class TestReplenishTriggeredDispatch:
    """§4.3: prefetch slots fill at replenish time, not arrival time."""

    def test_arrival_does_not_prefetch_to_busy_cores(self):
        # Saturate all 16 cores with one long RPC each, then submit one
        # more message: it must wait in the shared CQ, not be committed
        # to a busy core's prefetch slot.
        chip = build_chip(SingleQueue(outstanding_limit=2))
        burst(chip, 16, service=10_000.0)
        chip.env.run(until=5_000.0)
        dispatcher = chip.dispatchers[0]
        assert all(count == 1 for count in dispatcher.outstanding.values())
        extra = make_send(chip.config, 16, 20, 0, 128, 10_000.0)
        chip.submit_message(extra)
        chip.env.run(until=6_000.0)
        assert len(dispatcher.shared_cq) == 1  # held, not committed
        assert max(dispatcher.outstanding.values()) == 1
        chip.env.run()
        assert chip.stats.completed == 17

    def test_replenish_refills_the_replenishing_core(self):
        # 17 equal messages on 16 cores: when the first core finishes,
        # the waiting message goes to *that* core as its prefetch.
        chip = build_chip(SingleQueue(outstanding_limit=2))
        burst(chip, 17, service=1_000.0)
        chip.env.run()
        counts = [core.processed for core in chip.cores]
        assert sum(counts) == 17
        assert max(counts) == 2  # exactly one core ran two

    def test_arrival_dispatches_immediately_to_idle_core(self):
        chip = build_chip(SingleQueue(outstanding_limit=2))
        msg = make_send(chip.config, 0, 0, 0, 128, 500.0)
        chip.submit_message(msg)
        chip.env.run()
        # No replenish ever preceded this dispatch: idle-core path.
        assert msg.t_dispatch is not None
        assert msg.t_dispatch - msg.t_reassembled < 20.0

    def test_heavy_tail_victim_protection(self):
        # One core runs a 50µs RPC; a stream of 500ns RPCs keeps the
        # others busy. No short RPC may be stuck waiting behind the
        # long one for its full duration.
        chip = build_chip(SingleQueue(outstanding_limit=2))

        def feed(msg_id):
            msg = make_send(chip.config, msg_id, msg_id % 199, 1, 128, 500.0)
            chip.submit_message(msg)
            if msg_id + 1 < 120:
                chip.env.schedule_call(400.0, feed, msg_id + 1)

        long_msg = make_send(chip.config, 0, 0, 0, 128, 50_000.0)
        chip.submit_message(long_msg)
        chip.env.schedule_call(400.0, feed, 1)
        chip.env.run()
        latencies = sorted(chip.recorder.latencies())
        assert latencies[-1] > 50_000.0  # the long RPC itself
        assert latencies[-2] < 5_000.0  # no short RPC stuck behind it
