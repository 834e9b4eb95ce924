"""Scheduled-call semantics: the contract everything else relies on.

The kernel's only event is a scheduled call, and a process is a chain
of calls that each schedule their successor.
"""

import pytest

from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_untriggered(self, env):
        seen = []
        env.schedule_call(0, seen.append, "x")
        assert seen == []
        assert env.peek() == 0.0

    def test_callbacks_run_on_processing(self, env):
        seen = []
        env.schedule_call(0, seen.append, "x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == ["x"]
        assert env.peek() == float("inf")

    def test_callback_after_processed_runs_immediately(self, env):
        env.schedule_call(3, lambda: None)
        env.run()
        seen = []
        env.schedule_call(0, lambda: seen.append(env.now))
        env.run()
        assert seen == [3.0]

    def test_unhandled_failure_surfaces(self, env):
        def boom():
            raise ValueError("boom")

        env.schedule_call(0, boom)
        with pytest.raises(ValueError, match="boom"):
            env.run()


class TestTimeout:
    def test_fires_at_delay(self, env):
        times = []
        env.schedule_call(5, lambda: times.append(env.now))
        env.run()
        assert times == [5.0]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule_call(-1, lambda: None)

    def test_carries_value(self, env):
        seen = []
        env.schedule_call(3, lambda value: seen.append((env.now, value)), "done")
        env.run()
        assert seen == [(3.0, "done")]

    def test_zero_delay_is_valid(self, env):
        seen = []
        env.schedule_call(0, seen.append, "now")
        env.run()
        assert seen == ["now"]
        assert env.now == 0.0

    def test_cannot_be_manually_triggered(self, env):
        # schedule_call hands back no handle: only the clock fires it.
        seen = []
        assert env.schedule_call(1, lambda: seen.append(env.now)) is None
        env.run(until=0.5)
        assert seen == []
        env.run()
        assert seen == [1.0]


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        # A chain hands its result to a continuation, the way
        # OneSidedEngine.issue reports through on_complete.
        def proc(on_done):
            env.schedule_call(1, on_done, "result")

        results = []
        proc(lambda value: results.append((env.now, value)))
        env.run()
        assert results == [(1.0, "result")]

    def test_yielding_processed_event_continues_immediately(self, env):
        results = []

        def second_step():
            results.append(env.now)

        def first_step():
            env.schedule_call(0, second_step)  # no time passes

        env.schedule_call(2, first_step)
        env.run()
        assert results == [2.0]
        assert env.now == 2.0

    def test_exception_propagates_to_waiter(self, env):
        log = []

        def failing():
            raise RuntimeError("inner")

        env.schedule_call(1, failing)
        env.schedule_call(2, log.append, "other chain")
        # The caller of run() is the waiter: it handles the failure and
        # resumes the schedule.
        with pytest.raises(RuntimeError, match="inner"):
            env.run()
        assert env.now == 1.0
        env.run()
        assert log == ["other chain"]

    def test_unhandled_process_exception_surfaces(self, env):
        def step(remaining):
            if not remaining:
                raise RuntimeError("inner")
            env.schedule_call(1, step, remaining - 1)

        env.schedule_call(0, step, 2)
        with pytest.raises(RuntimeError, match="inner"):
            env.run()
        assert env.now == 2.0

    def test_is_alive(self, env):
        def proc():
            pass

        env.schedule_call(5, proc)
        # A chain is alive while its next call is pending.
        assert env.peek() == 5.0
        env.run()
        assert env.peek() == float("inf")

    def test_yield_non_event_raises(self, env):
        env.schedule_call(1, 42)
        with pytest.raises(TypeError):
            env.run()
        assert env.now == 1.0

    def test_two_processes_interleave(self, env):
        log = []

        def ticker(name, period, remaining):
            if remaining:
                env.schedule_call(period, tick, name, period, remaining)

        def tick(name, period, remaining):
            log.append((env.now, name))
            ticker(name, period, remaining - 1)

        ticker("a", 2, 3)
        ticker("b", 3, 3)
        env.run()
        # At t=6 both fire; b's call was scheduled earlier (at t=3, vs
        # t=4 for a's), so it is processed first.
        assert log == [
            (2.0, "a"),
            (3.0, "b"),
            (4.0, "a"),
            (6.0, "b"),
            (6.0, "a"),
            (9.0, "b"),
        ]
