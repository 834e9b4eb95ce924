"""Micro-benchmarks of the simulation substrates themselves.

These track the cost of the building blocks (calls/second in the DES
kernel, requests/second in the queueing fast path, RPCs/second in the
architectural simulator) so performance regressions in the simulator
are visible independently of the figure-level benchmarks.
"""

import numpy as np
import pytest

from repro import make_system
from repro.queueing import poisson_arrivals, simulate_fifo_queue
from repro.sim import Environment

#: Calls kept pending on the heap by the fan-out benchmark, and the
#: total it processes.
FANOUT_PENDING = 1_000
FANOUT_CALLS = 20_000


def test_kernel_call_chain_throughput(benchmark):
    """A chain of 10k ``schedule_call``s, each scheduling the next:
    the heap holds one call, so this is the per-call floor."""

    def run():
        env = Environment()

        def step(remaining):
            if remaining:
                env.schedule_call(1.0, step, remaining - 1)

        env.schedule_call(1.0, step, 9_999)
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0


def test_kernel_fanout_throughput(benchmark):
    """~1k calls pending on the heap, as in a loaded chip: each call
    schedules one successor until 20k calls have run."""
    delays = [(index * 7_919 % 1_000) / 100.0 for index in range(FANOUT_CALLS)]

    def run():
        env = Environment()
        fired = [0]

        def fire(index):
            fired[0] += 1
            successor = index + FANOUT_PENDING
            if successor < FANOUT_CALLS:
                env.schedule_call(delays[successor], fire, successor)

        for index in range(FANOUT_PENDING):
            env.schedule_call(delays[index], fire, index)
        env.run()
        return fired[0]

    assert benchmark(run) == FANOUT_CALLS


def test_fastsim_throughput(benchmark):
    """The Fig. 2/9 inner loop: G/G/16 FIFO on 200k requests."""
    rng = np.random.default_rng(0)
    n = 200_000
    arrivals = poisson_arrivals(rng, rate=12.8, count=n)
    services = rng.exponential(1.0, n)

    def run():
        return simulate_fifo_queue(arrivals, services, 16)

    departures = benchmark(run)
    assert departures.shape == (n,)


#: RPCs per round of the arch-path benchmark, and its offered load:
#: ≈0.8·C for HERD, where C = 16 / S̄ ≈ 28.9 MRPS (S̄ ≈ 554 ns).
ARCH_RPCS = 4_000
ARCH_MRPS = 23.0


@pytest.mark.parametrize("scheme", ["1x16", "4x4", "16x1"])
def test_arch_sim_throughput(benchmark, scheme):
    """End-to-end RPCs/second through the architectural simulator.

    One scheme per case, so the arch path's host µs per RPC is tracked
    per scheme (``extra_info["us_per_rpc"]``, from the median round).
    """
    system = make_system(scheme, "herd", seed=0)

    def run():
        return system.run_point(offered_mrps=ARCH_MRPS, num_requests=ARCH_RPCS)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed == ARCH_RPCS
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_rpc"] = (
            benchmark.stats.stats.median / ARCH_RPCS * 1e6
        )


#: Routing decisions per round of the rack-router benchmark.
ROUTE_DECISIONS = 20_000


@pytest.mark.parametrize(
    "policy, signal, suspected",
    [
        ("random", "fresh", ()),
        ("jsq2", "piggyback", ()),
        ("sed", "broadcast:2000", ()),
        ("jsq2", "piggyback", (3,)),
    ],
    ids=["random-fresh", "jsq2-piggyback", "sed-broadcast:2000", "jsq2-piggyback-suspect3"],
)
def test_rack_route_decision(benchmark, policy, signal, suspected):
    """Host cost of one ``RackRouter.choose`` on a bound 16-node rack.

    Each round restores the same outstanding counts and client views
    (small integers, so JSQ/SED ties occur) and routes
    ``ROUTE_DECISIONS`` RPCs round-robin over the clients; the median
    round's µs per decision is ``extra_info["us_per_decision"]``. With
    ``suspected``, those nodes stay suspected for the whole round: every
    decision takes the restricted-candidate path of one suspicion epoch.
    """
    from repro.cluster import Cluster
    from repro.rack import RackRouter

    router = RackRouter(policy, signal)
    Cluster(num_nodes=16, seed=0, router=router)
    router.suspected.update(suspected)
    start = np.random.default_rng(1)
    outstanding = start.integers(0, 4, 16).tolist()
    views = start.integers(0, 4, (16, 16)).astype(float).tolist()

    def run():
        router.outstanding = list(outstanding)
        router.signal.estimates = [list(row) for row in views]
        rng = np.random.default_rng(0)
        choose = router.choose
        for decision in range(ROUTE_DECISIONS):
            choose(decision % 16, rng)
        return sum(router.outstanding)

    total = benchmark.pedantic(run, rounds=5, iterations=1)
    assert total == sum(outstanding) + ROUTE_DECISIONS
    assert all(router.stats.routed[node] == 0 for node in suspected)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_decision"] = (
            benchmark.stats.stats.median / ROUTE_DECISIONS * 1e6
        )
