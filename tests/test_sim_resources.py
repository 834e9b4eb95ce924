"""The FIFO queues and server pools the models build from plain calls.

A queue pair's CQ feeds a core that serves one entry at a time, the
kernelsim oracle keeps per-queue deques with a pool of serving units,
and the kernel's own heap orders pending calls smallest time first.
"""

import numpy as np
import pytest

from repro.arch.qp import QueuePair
from repro.queueing import kernel_sojourn_times
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class ServingCore:
    """The core side of a QP's protocol: serve one CQE for ``hold``,
    then pull the next from the CQ or go idle."""

    def __init__(self, env, qp, hold):
        self.env = env
        self.qp = qp
        self.hold = hold
        self.busy = False
        self.served = []
        qp.core = self

    def start(self, item):
        self.busy = True
        self.served.append((self.env.now, item))
        self.env.schedule_call(self.hold, self._finish)

    def _finish(self):
        if self.qp.cq:
            self.start(self.qp.cq.popleft())
        else:
            self.busy = False


def sojourns(arrivals, services, servers=1):
    return kernel_sojourn_times(
        np.asarray(arrivals, dtype=float),
        np.asarray(services, dtype=float),
        np.zeros(len(arrivals), dtype=int),
        1,
        servers,
    ).tolist()


class TestStore:
    def test_put_then_get_fifo(self, env):
        qp = QueuePair(0)
        core = ServingCore(env, qp, hold=1)
        for item in ("a", "b", "c"):
            qp.post_cqe(item)
        env.run()
        assert core.served == [(0.0, "a"), (1.0, "b"), (2.0, "c")]

    def test_get_blocks_until_put(self, env):
        qp = QueuePair(0)
        core = ServingCore(env, qp, hold=1)
        env.schedule_call(5, qp.post_cqe, "late")
        env.run()
        assert core.served == [(5.0, "late")]
        assert not core.busy

    def test_len_and_items(self, env):
        qp = QueuePair(0)
        # With no core polling it, the CQ holds every posted entry.
        qp.post_cqe("x")
        qp.post_cqe("y")
        assert list(qp.cq) == ["x", "y"]
        assert qp.max_cq_depth == 2

    def test_waiting_counts(self, env):
        qp = QueuePair(0)
        core = ServingCore(env, qp, hold=1)
        qp.post_cqe("a")  # idle core: taken at once
        qp.post_cqe("b")  # waits behind "a"
        assert core.served == [(0.0, "a")]
        assert list(qp.cq) == ["b"]
        assert qp.max_cq_depth == 1
        env.run()
        assert list(qp.cq) == []
        assert core.served == [(0.0, "a"), (1.0, "b")]


class TestPriorityStore:
    def test_smallest_first(self, env):
        results = []

        def producer():
            for item in (5, 1, 3):
                env.schedule_call(item, results.append, item)

        env.schedule_call(0, producer)
        env.run()
        assert results == [1, 3, 5]

    def test_items_sorted(self, env):
        for item in (2, 9, 4):
            env.schedule_call(item, lambda: None)
        seen = []
        while env.peek() != float("inf"):
            seen.append(env.peek())
            env.run(until=env.peek())
        assert seen == [2.0, 4.0, 9.0]


class TestResource:
    def test_mutual_exclusion_and_fifo(self):
        # One serving unit: the requests start at 0, 4 and 6.
        assert sojourns([0, 0, 0], [4, 2, 1]) == [4.0, 6.0, 7.0]

    def test_capacity_two_allows_two_holders(self):
        assert sojourns([0, 0, 0], [3, 3, 3], servers=2) == [3.0, 3.0, 6.0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            sojourns([0], [1], servers=0)
