"""Property-based tests (hypothesis) on the DES kernel.

Most examples are a forest of ``schedule_call`` trees: a node is a delay
and a list of children, and firing a node schedules its children from
inside the callback. Delays come from a small grid, so zero delays and
same-time ties are common. The rest check the kernelsim oracle's
FIFO queues and serving-unit pools, which are built from plain calls.
"""

from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing import kernel_sojourn_times
from repro.sim import Environment

delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.5])
trees = st.recursive(
    st.builds(lambda delay: (delay, []), delays),
    lambda children: st.builds(
        lambda delay, kids: (delay, kids), delays, st.lists(children, max_size=4)
    ),
    max_leaves=40,
)
forests = st.lists(trees, max_size=6)
cut_lists = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 9.0]), max_size=5)


def size(tree):
    return 1 + sum(size(kid) for kid in tree[1])


def run_forest(forest, cuts=()):
    """Schedule ``forest`` at time 0, run it in ``until`` chunks, then
    to the end; returns the environment, the ``(time, seq)`` trace and
    the number of calls scheduled. ``seq`` numbers calls in the order
    they were scheduled."""
    env = Environment()
    trace = []
    scheduled = count()

    def schedule(node):
        delay, kids = node
        env.schedule_call(delay, fire, next(scheduled), kids)

    def fire(seq, kids):
        trace.append((env.now, seq))
        for kid in kids:
            schedule(kid)

    for root in forest:
        schedule(root)
    for cut in sorted(cuts):
        env.run(until=cut)
    env.run()
    return env, trace, next(scheduled)


@given(forests)
@settings(max_examples=200, deadline=None)
def test_calls_fire_in_time_then_scheduling_order(forest):
    _env, trace, total = run_forest(forest)
    assert len(trace) == total == sum(size(tree) for tree in forest)
    # Strictly increasing (time, seq): time never goes back, and calls
    # due at the same time fire in the order they were scheduled.
    assert all(a < b for a, b in zip(trace, trace[1:]))


@given(forests, cut_lists)
@settings(max_examples=200, deadline=None)
def test_chunked_run_until_matches_one_run(forest, cuts):
    env_whole, whole, _ = run_forest(forest)
    env_chunked, chunked, _ = run_forest(forest, cuts)
    assert chunked == whole
    if whole:
        assert env_chunked.now == env_whole.now == whole[-1][0]


@given(forests, cut_lists)
@settings(max_examples=200, deadline=None)
def test_event_count_equals_calls_scheduled(forest, cuts):
    env, _trace, total = run_forest(forest, cuts)
    assert env.peek() == float("inf")
    assert int(repr(env._eid)[len("count(") : -1]) == total
    assert env._next_eid() == total


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
@settings(max_examples=200, deadline=None)
def test_timeouts_fire_in_sorted_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        env.schedule_call(delay, fired.append, delay)
    env.run()
    assert fired == sorted(delays)


@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60))
@settings(max_examples=200, deadline=None)
def test_priority_store_yields_sorted(items):
    # The heap pops the smallest pending time first; equal times keep
    # scheduling order, so the trace is a stable sort.
    env = Environment()
    received = []
    for index, item in enumerate(items):
        env.schedule_call(item + 1000, received.append, (item, index))
    env.run()
    assert received == sorted((item, index) for index, item in enumerate(items))


def single_queue_sojourns(arrivals, services, servers):
    return kernel_sojourn_times(
        np.asarray(arrivals, dtype=float),
        np.asarray(services, dtype=float),
        np.zeros(len(arrivals), dtype=int),
        1,
        servers,
    )


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=60))
@settings(max_examples=200, deadline=None)
def test_store_preserves_fifo_order(services):
    # One arrival per time unit at one serving unit: each request
    # starts when it arrives or when its predecessor leaves, whichever
    # is later (Lindley's recursion), i.e. strictly in arrival order.
    arrivals = np.arange(len(services), dtype=float)
    departures = arrivals + single_queue_sojourns(arrivals, services, 1)
    previous = 0.0
    for arrival, service, departure in zip(arrivals, services, departures):
        previous = max(arrival, previous) + service
        assert departure == pytest.approx(previous, abs=1e-9)


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=30
    ),
)
@settings(max_examples=150, deadline=None)
def test_resource_never_exceeds_capacity(capacity, hold_times):
    holds = np.asarray(hold_times)
    ends = single_queue_sojourns(np.zeros(holds.size), holds, capacity)
    starts = ends - holds
    # Everyone arrives at 0, so the pool is full until the queue drains.
    concurrency = [
        int(np.sum((starts <= start + 1e-9) & (ends > start + 1e-9)))
        for start in starts
    ]
    assert max(concurrency) <= capacity
    assert int(np.sum(starts <= 1e-9)) == min(capacity, holds.size)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0),
                  st.floats(min_value=0.0, max_value=10.0)),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_capacity_one_store_conserves_items(schedule):
    """One serving unit: every arrival departs exactly once."""
    gaps = [delay for delay, _hold in schedule]
    holds = np.asarray([hold for _delay, hold in schedule], dtype=float)
    arrivals = np.cumsum(gaps)
    stays = single_queue_sojourns(arrivals, holds, 1)
    assert stays.size == len(schedule)
    assert np.all(np.isfinite(stays))
    assert np.all(stays >= holds - 1e-9)
    departures = arrivals + stays
    assert np.all(np.diff(departures) >= -1e-9)
