"""Environment run-loop semantics."""

import math

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_initial_time(self):
        assert Environment(initial_time=7.5).now == 7.5

    def test_time_advances_monotonically(self, env):
        seen = []
        for delay in (5, 1, 3):
            env.schedule_call(delay, lambda: seen.append(env.now))
        env.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_simultaneous_events_fifo(self, env):
        order = []
        for tag in range(5):
            env.schedule_call(2, order.append, tag)
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestRun:
    def test_run_until_time_stops_clock_there(self, env):
        env.schedule_call(10, lambda: None)
        env.run(until=4.0)
        assert env.now == 4.0
        assert env.peek() == 10.0

    def test_run_until_time_in_past_raises(self, env):
        env.schedule_call(10, lambda: None)
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=3)

    def test_run_until_includes_calls_due_at_that_time(self, env):
        fired = []
        env.schedule_call(4, fired.append, "due")
        env.schedule_call(4.5, fired.append, "late")
        env.run(until=4)
        assert fired == ["due"]
        assert env.now == 4.0

    def test_run_until_past_the_last_call_leaves_clock_at_it(self, env):
        env.schedule_call(3, lambda: None)
        env.run(until=10)
        assert env.now == 3.0
        assert env.peek() == math.inf

    def test_run_with_empty_schedule_returns(self, env):
        assert env.run() is None

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.schedule_call(4, lambda: None)
        assert env.peek() == 4.0

    def test_exception_propagates_and_keeps_the_rest(self, env):
        fired = []

        def boom():
            raise RuntimeError("boom")

        env.schedule_call(1, boom)
        env.schedule_call(2, fired.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 1.0
        env.run()
        assert fired == ["after"]


class TestDelayedCall:
    def test_invokes_with_args_at_delay(self, env):
        calls = []
        env.schedule_call(6.0, lambda a, b: calls.append((env.now, a, b)), 1, 2)
        env.run()
        assert calls == [(6.0, 1, 2)]

    def test_many_delayed_calls_ordered(self, env):
        calls = []
        for delay in (3, 1, 2):
            env.schedule_call(delay, calls.append, delay)
        env.run()
        assert calls == [1, 2, 3]

    def test_zero_delay_fires_after_calls_already_due(self, env):
        order = []

        def first():
            order.append("first")
            env.schedule_call(0, order.append, "hop")

        env.schedule_call(1, first)
        env.schedule_call(1, order.append, "second")
        env.run()
        assert order == ["first", "second", "hop"]
        assert env.now == 1.0

    def test_call_chain_counts_one_id_per_call(self, env):
        def step(remaining):
            if remaining:
                env.schedule_call(1.0, step, remaining - 1)

        env.schedule_call(0.0, step, 9)
        env.run()
        assert env.now == 9.0
        assert env._next_eid() == 10


class TestScheduleAt:
    def test_fires_at_the_exact_time(self, env):
        # A delay would be recomputed as now + (when - now), which need
        # not round back to ``when``.
        fired = []
        env.schedule_call(0.7, env.schedule_at, 2.9, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.9]
        assert 0.7 + (2.9 - 0.7) != 2.9

    def test_same_time_calls_fire_in_scheduling_order(self, env):
        order = []
        env.schedule_at(2.0, order.append, "first")
        env.schedule_call(2.0, order.append, "second")
        env.run()
        assert order == ["first", "second"]


class _Booked:
    """A booked server: busy until ``free_at``, with no call scheduled."""

    def __init__(self, free_at):
        self.free_at = free_at


class TestBookedServers:
    def test_drained_clock_moves_on_to_the_latest_free_at(self, env):
        env.add_booked_server(_Booked(7.0))
        env.add_booked_server(_Booked(12.0))
        env.schedule_call(3.0, lambda: None)
        env.run()
        assert env.now == 12.0

    def test_free_at_in_the_past_leaves_the_clock(self, env):
        env.add_booked_server(_Booked(1.0))
        env.schedule_call(3.0, lambda: None)
        env.run()
        assert env.now == 3.0

    def test_until_caps_the_settled_clock(self, env):
        env.add_booked_server(_Booked(50.0))
        env.schedule_call(3.0, lambda: None)
        env.run(until=20.0)
        assert env.now == 20.0
        env.run()
        assert env.now == 50.0


class TestRejectsBadTimes:
    @pytest.mark.parametrize("delay", [-1, -1e-9, math.nan, -math.inf])
    def test_bad_delay_rejected(self, env, delay):
        with pytest.raises(ValueError):
            env.schedule_call(delay, lambda: None)
        assert env.peek() == math.inf

    @pytest.mark.parametrize("when", [math.nan, 4.999, -math.inf])
    def test_bad_absolute_time_rejected(self, env, when):
        env.schedule_call(5.0, lambda: None)
        env.run()
        with pytest.raises(ValueError):
            env.schedule_at(when, lambda: None)
        assert env.peek() == math.inf

    def test_nan_delay_cannot_jump_the_queue(self, env):
        fired = []
        for delay in (math.nan, 5.0, 1.0):
            try:
                env.schedule_call(delay, lambda: fired.append(env.now))
            except ValueError:
                pass
        env.run()
        assert fired == [1.0, 5.0]

    def test_nan_until_rejected(self, env):
        fired = []
        env.schedule_call(1.0, fired.append, "never")
        with pytest.raises(ValueError):
            env.run(until=math.nan)
        assert fired == []
        assert env.now == 0.0
