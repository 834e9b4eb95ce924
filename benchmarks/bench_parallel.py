"""Parallel sweep engine: determinism, speedup, caching, and scheduling.

The determinism check always runs: a fig7-style multi-scheme sweep must
produce byte-for-byte identical curves at ``workers=1`` and
``workers=4`` (see :mod:`repro.runner`'s seeding contract). The speedup
check needs real cores and is skipped on boxes without them. The cache
and scheduling benchmarks always run (a warm cache hit and a sleeping
pool worker need no spare cores) and persist their wall-clocks into
``benchmarks/output/bench_timings.json`` alongside the figure timings.
"""

import os
import time

import pytest

from conftest import PROFILE, _TIMINGS

from repro.cache import set_cache
from repro.core import make_system, sweep_many
from repro.experiments.common import get_profile
from repro.experiments.fig7 import HARDWARE_SCHEMES
from repro.runner import map_points

#: A small fixed load grid (MRPS) spanning the HERD capacity range.
LOADS = [6.0, 12.0, 18.0, 24.0, 28.0]


def _systems(seed: int = 0):
    return {
        scheme: make_system(scheme, "herd", seed=seed)
        for scheme in HARDWARE_SCHEMES
    }


def _curves(sweeps):
    """Every float of every point, for exact (not approximate) equality."""
    return {
        name: [
            (point.offered_load, point.achieved_throughput,
             point.summary.mean, point.p99)
            for point in sweep.points
        ]
        for name, sweep in sweeps.items()
    }


def _run(workers: int, num_requests: int) -> dict:
    return sweep_many(
        _systems(),
        LOADS,
        num_requests=num_requests,
        workers=workers,
        experiment="bench-parallel",
    )


def test_parallel_bit_identical(benchmark):
    """Serial and 4-worker execution produce exactly equal curves."""
    num_requests = get_profile(PROFILE).arch_requests
    serial = _curves(
        benchmark.pedantic(_run, args=(1, num_requests), rounds=1, iterations=1)
    )
    parallel = _curves(_run(4, num_requests))
    assert serial == parallel
    for scheme in HARDWARE_SCHEMES:
        assert len(serial[scheme]) == len(LOADS)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="speedup needs at least 2 cores; determinism is covered above",
)
def test_parallel_speedup(benchmark):
    """Fanning the fig7 sweep across 4 workers beats serial wall-clock.

    Needs >= 2x on a 4-core box. On 2-3 cores the bound is relaxed to
    'meaningfully faster' since the pool can't reach 4-wide.

    Serial and 4-worker runs alternate, three of each, the side that
    goes first swapping every pair, and the best of each side is
    compared: another process briefly sharing the cores slows one run,
    not every run of one side.
    """
    num_requests = get_profile(PROFILE).arch_requests
    _run(1, 500)  # warm caches/imports out of the measured runs

    def best_of_interleaved(pairs: int = 3):
        best = {1: float("inf"), 4: float("inf")}
        for pair in range(pairs):
            for workers in ((1, 4) if pair % 2 == 0 else (4, 1)):
                started = time.perf_counter()
                _run(workers, num_requests)
                best[workers] = min(best[workers], time.perf_counter() - started)
        return best[1], best[4]

    serial_s, parallel_s = benchmark.pedantic(best_of_interleaved, rounds=1, iterations=1)

    speedup = serial_s / parallel_s
    print(
        f"best of 3: serial {serial_s:.2f}s, 4 workers {parallel_s:.2f}s -> {speedup:.2f}x"
    )
    required = 2.0 if (os.cpu_count() or 1) >= 4 else 1.2
    assert speedup >= required, (
        f"expected >= {required}x speedup on {os.cpu_count()} cores, "
        f"got {speedup:.2f}x"
    )


def test_cache_cold_vs_warm(tmp_path):
    """A warm result cache replays a sweep orders of magnitude faster.

    Runs the same single-scheme sweep twice against a fresh cache
    directory: the first (cold) run computes and stores every point,
    the second (warm) run must hit on all of them, return identical
    curves, and finish well under the cold wall-clock.
    """

    def run():
        return sweep_many(
            {"1x16": make_system("1x16", "herd", seed=0)},
            LOADS[:3],
            num_requests=get_profile(PROFILE).arch_requests,
            workers=1,
            experiment="bench-cache",
        )

    set_cache(True, tmp_path / "cache")
    try:
        started = time.perf_counter()
        cold = run()
        cold_s = time.perf_counter() - started

        started = time.perf_counter()
        warm = run()
        warm_s = time.perf_counter() - started
    finally:
        set_cache(None, None)

    _TIMINGS["cache_cold"] = round(cold_s, 3)
    _TIMINGS["cache_warm"] = round(warm_s, 3)
    speedup = cold_s / max(warm_s, 1e-9)
    print(f"cold {cold_s:.3f}s, warm {warm_s:.3f}s -> {speedup:.1f}x")
    assert _curves(cold) == _curves(warm)
    assert warm_s < cold_s / 3, (
        f"warm cache run should be >=3x faster, got cold {cold_s:.3f}s "
        f"vs warm {warm_s:.3f}s"
    )


def _sleep_task(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


#: One long straggler plus a tail of short tasks (seconds of sleep).
_SCHED_TASKS = [0.6] + [0.1] * 8


def _makespan(cost_hints) -> float:
    started = time.perf_counter()
    outcome = map_points(
        _sleep_task,
        _SCHED_TASKS,
        workers=2,
        progress=False,
        cost_hints=cost_hints,
    )
    assert outcome.results == _SCHED_TASKS
    return time.perf_counter() - started


def test_makespan_scheduling():
    """Longest-expected-first submission beats a worst-case order.

    Sleep-based tasks parallelize even on a single-core box, so this
    measures pure scheduling: with 2 workers, submitting the 0.6s
    straggler first overlaps it with the 0.1s tail (~0.7s makespan)
    while submitting it last serializes it after the tail (~1.0s).
    """
    # cost_hints drive the submission order; inverted hints emulate the
    # naive shortest-first schedule the longest-first policy replaces.
    longest_first_s = _makespan(cost_hints=_SCHED_TASKS)
    shortest_first_s = _makespan(cost_hints=[-s for s in _SCHED_TASKS])

    _TIMINGS["sched_longest_first"] = round(longest_first_s, 3)
    _TIMINGS["sched_shortest_first"] = round(shortest_first_s, 3)
    print(
        f"longest-first {longest_first_s:.3f}s, "
        f"shortest-first {shortest_first_s:.3f}s"
    )
    assert longest_first_s < shortest_first_s, (
        f"longest-first {longest_first_s:.3f}s should beat "
        f"shortest-first {shortest_first_s:.3f}s"
    )
