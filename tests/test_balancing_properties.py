"""Property-based tests on the dispatcher state machine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Chip, ChipConfig, make_send
from repro.balancing import Grouped, Partitioned, SingleQueue
from repro.sim import Environment, RngRegistry
from repro.workloads import MicrobenchCosts, MicrobenchProgram


def run_traffic(scheme, arrivals):
    """Drive a chip with (gap_ns, service_ns) arrival pairs."""
    env = Environment()
    chip = Chip(
        env, ChipConfig(), MicrobenchProgram(MicrobenchCosts.lean()),
        RngRegistry(0),
    )
    scheme.install(chip, RngRegistry(0).stream("dispatch"))

    max_outstanding = {"value": 0}
    for dispatcher in chip.dispatchers:
        original = dispatcher._dispatch_to

        def tracking(msg, core_id, _dispatcher=dispatcher, _original=original):
            _original(msg, core_id)
            peak = max(_dispatcher.outstanding.values())
            if peak > max_outstanding["value"]:
                max_outstanding["value"] = peak

        dispatcher._dispatch_to = tracking

    def feed(index):
        service = arrivals[index][1]
        src = index % chip.config.num_remote_nodes
        slot = (index // chip.config.num_remote_nodes) % (
            chip.config.send_slots_per_node
        )
        chip.submit_message(make_send(chip.config, index, src, slot, 128, service))
        if index + 1 < len(arrivals):
            env.schedule_call(arrivals[index + 1][0], feed, index + 1)

    env.schedule_call(arrivals[0][0], feed, 0)
    env.run()
    return chip, max_outstanding["value"]


arrival_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2_000.0),
        st.floats(min_value=0.0, max_value=20_000.0),
    ),
    min_size=1,
    max_size=60,
)


@given(arrival_lists)
@settings(max_examples=60, deadline=None)
def test_single_queue_conservation_and_threshold(arrivals):
    chip, peak_outstanding = run_traffic(SingleQueue(outstanding_limit=2), arrivals)
    # Conservation: every message completes exactly once.
    assert chip.stats.completed == len(arrivals)
    assert len(chip.recorder) == len(arrivals)
    # The §4.3 threshold is never exceeded.
    assert peak_outstanding <= 2
    # Everything drains.
    dispatcher = chip.dispatchers[0]
    assert len(dispatcher.shared_cq) == 0
    assert all(count == 0 for count in dispatcher.outstanding.values())
    # The receive buffer is fully released.
    assert chip.receive_buffer.occupied == 0


@given(arrival_lists)
@settings(max_examples=40, deadline=None)
def test_grouped_conservation(arrivals):
    chip, peak_outstanding = run_traffic(Grouped(4), arrivals)
    assert chip.stats.completed == len(arrivals)
    assert peak_outstanding <= 2
    assert sum(d.dispatched for d in chip.dispatchers) == len(arrivals)


@given(arrival_lists)
@settings(max_examples=40, deadline=None)
def test_partitioned_conservation(arrivals):
    chip, _peak = run_traffic(Partitioned(), arrivals)
    assert chip.stats.completed == len(arrivals)
    assert chip.receive_buffer.occupied == 0


@given(arrival_lists, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_latency_at_least_service(arrivals, limit):
    # End-to-end latency can never be below the RPC's own service time
    # plus the microbenchmark's fixed costs.
    chip, _peak = run_traffic(SingleQueue(outstanding_limit=limit), arrivals)
    costs = MicrobenchCosts.lean()
    latencies = chip.recorder.latencies()
    services = [service for _gap, service in arrivals]
    # Compare sorted sums: each latency >= its own service + overhead,
    # so min latency >= min service + fixed costs.
    assert latencies.min() >= min(services) + costs.total_ns
