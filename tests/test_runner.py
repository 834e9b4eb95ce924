"""The parallel sweep engine: seeding, worker mapping, degradation.

The load-bearing guarantee is that worker count is invisible in the
results — ``workers=4`` must reproduce ``workers=1`` bit for bit — so
parallelism can never be a source of run-to-run noise.
"""

import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_system, sweep_many
from repro.runner import (
    ENV_PROGRESS,
    ENV_WORKERS,
    MapOutcome,
    ProgressReporter,
    TaskFailure,
    map_points,
    progress_enabled,
    resolve_workers,
    set_progress,
    spawn_point_seeds,
    task_seed,
)

# -- seeding ------------------------------------------------------------------

_keys = st.tuples(
    st.text(max_size=12),  # experiment
    st.text(max_size=12),  # scheme
    st.integers(min_value=0, max_value=63),  # load index
    st.integers(min_value=0, max_value=2**31 - 1),  # experiment seed
)


def test_spawn_point_seeds_deterministic():
    first = spawn_point_seeds("fig7a", "d-RPCValet", 42, 8)
    second = spawn_point_seeds("fig7a", "d-RPCValet", 42, 8)
    assert first == second
    assert len(first) == 8
    assert len(set(first)) == 8


def test_spawn_point_seeds_prefix_stable():
    """Adding load points must not reseed the existing ones."""
    short = spawn_point_seeds("fig8", "1x16", 0, 3)
    long = spawn_point_seeds("fig8", "1x16", 0, 11)
    assert long[:3] == short


def test_task_seed_matches_spawn():
    seeds = spawn_point_seeds("fig7c", "16x1", 7, 5)
    assert [task_seed("fig7c", "16x1", i, 7) for i in range(5)] == seeds


def test_spawn_point_seeds_rejects_negative():
    with pytest.raises(ValueError):
        spawn_point_seeds("x", "y", 0, -1)
    with pytest.raises(ValueError):
        task_seed("x", "y", -1, 0)


@given(st.lists(_keys, min_size=2, max_size=24, unique=True))
@settings(max_examples=200, deadline=None)
def test_distinct_keys_never_share_a_seed(keys):
    seeds = [
        task_seed(experiment, scheme, index, seed)
        for experiment, scheme, index, seed in keys
    ]
    assert len(set(seeds)) == len(seeds)


@given(_keys)
@settings(max_examples=100, deadline=None)
def test_any_key_component_changes_the_seed(key):
    experiment, scheme, index, seed = key
    base = task_seed(experiment, scheme, index, seed)
    assert base != task_seed(experiment + "!", scheme, index, seed)
    assert base != task_seed(experiment, scheme + "!", index, seed)
    assert base != task_seed(experiment, scheme, index + 1, seed)
    assert base != task_seed(experiment, scheme, index, seed + 1)


# -- resolve_workers ----------------------------------------------------------

def test_resolve_workers_explicit():
    assert resolve_workers(4) == 4
    assert resolve_workers(1) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(-3) == 1


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "6")
    assert resolve_workers(None) == 6
    monkeypatch.setenv(ENV_WORKERS, "not-a-number")
    assert resolve_workers(None) == 1
    monkeypatch.delenv(ENV_WORKERS)
    assert resolve_workers(None) == 1


def test_explicit_workers_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_WORKERS, "8")
    assert resolve_workers(2) == 2


# -- map_points ---------------------------------------------------------------

#: Recorded at import; under fork, workers inherit this value while
#: their own os.getpid() differs — letting a task fail only in workers.
_PARENT_PID = os.getpid()


def _double(task):
    return task * 2


def _fail_on_negative(task):
    if task < 0:
        raise ValueError(f"bad task {task}")
    return task * 2


def _fail_in_worker(task):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("worker-only failure")
    return task * 2


def test_map_points_serial_order_and_results():
    outcome = map_points(_double, [3, 1, 2], workers=1)
    assert outcome.results == [6, 2, 4]
    assert outcome.failures == []
    assert outcome.ok
    assert outcome.findings() == []


def test_map_points_parallel_matches_serial():
    tasks = list(range(8))
    serial = map_points(_double, tasks, workers=1)
    parallel = map_points(_double, tasks, workers=4)
    assert parallel.results == serial.results == [t * 2 for t in tasks]
    assert parallel.ok


def test_map_points_serial_failure_is_fatal_without_retry():
    outcome = map_points(
        _fail_on_negative, [1, -1, 3], workers=1, labels=["a", "b", "c"]
    )
    assert outcome.results == [2, None, 6]
    assert not outcome.ok
    (failure,) = outcome.failures
    assert failure.label == "b"
    assert not failure.retried and failure.fatal
    assert "bad task -1" in failure.error
    assert "point dropped" in failure.describe()


def test_map_points_worker_failure_retried_serially():
    """A task that only fails inside a worker degrades gracefully."""
    outcome = map_points(_fail_in_worker, [5, 6], workers=2, labels=["x", "y"])
    if not outcome.failures:  # executor itself degraded to serial
        assert outcome.results == [10, 12]
        return
    assert outcome.results == [10, 12]
    assert outcome.ok  # retries succeeded, nothing fatal
    for failure in outcome.failures:
        assert failure.retried and not failure.fatal
        assert "serial retry succeeded" in failure.describe()


def test_map_points_worker_failure_fatal_after_retry():
    outcome = map_points(_fail_on_negative, [1, -1, 3], workers=2)
    assert outcome.results == [2, None, 6]
    assert not outcome.ok
    (failure,) = outcome.failures
    assert failure.fatal
    assert failure.label == "task[1]"


def test_map_outcome_findings_describe_failures():
    outcome = MapOutcome(
        results=[None],
        failures=[
            TaskFailure(label="p@1", error="Boom: x", retried=True, fatal=True)
        ],
    )
    assert not outcome.ok
    assert outcome.findings() == [
        "task p@1 failed after serial retry: Boom: x; point dropped"
    ]


def test_map_outcome_require_names_every_failed_task():
    outcome = map_points(
        _fail_on_negative, [1, -1, 3, -2], workers=1, labels=["a", "b", "c", "d"]
    )
    with pytest.raises(RuntimeError, match=r"^sweep x failed: ") as error:
        outcome.require("sweep x")
    message = str(error.value)
    assert "(b)" in message and "(d)" in message
    assert "(a)" not in message and "(c)" not in message
    assert map_points(_fail_on_negative, [1, 3]).require("sweep x") == [2, 6]


def test_map_outcome_require_tolerates_recovered_failures():
    outcome = MapOutcome(
        results=[7],
        failures=[
            TaskFailure(label="p", error="Boom", retried=True, fatal=False)
        ],
    )
    assert outcome.require("sweep") == [7]


# -- failure identity (which task failed, exactly) ----------------------------

def test_sweep_failure_names_scheme_load_index_and_seed(monkeypatch):
    """A dropped point's finding pinpoints the exact simulation to rerun."""
    import repro.core.system as core_system

    real_task = core_system.run_point_task

    def explode_at_second_load(task):
        system, load, *_rest = task
        if load == 20.0:
            raise RuntimeError("injected failure")
        return real_task(task)

    monkeypatch.setattr(core_system, "run_point_task", explode_at_second_load)
    failures = []
    sweeps = sweep_many(
        {"1x16": make_system("1x16", "synthetic-fixed", seed=3)},
        [8.0, 20.0],
        num_requests=200,
        workers=1,
        experiment="test-failure-id",
        failures=failures,
    )
    assert len(sweeps["1x16"].points) == 1  # the failed point is dropped
    (finding,) = failures
    assert "1x16[1]@20" in finding  # scheme + load index + load
    assert "(seed " in finding  # the exact per-task seed
    assert "RuntimeError: injected failure" in finding


# -- progress reporting -------------------------------------------------------

def test_progress_enabled_resolution(monkeypatch):
    monkeypatch.delenv(ENV_PROGRESS, raising=False)
    set_progress(None)
    assert not progress_enabled()
    assert progress_enabled(True)
    monkeypatch.setenv(ENV_PROGRESS, "1")
    assert progress_enabled()
    monkeypatch.setenv(ENV_PROGRESS, "0")
    assert not progress_enabled()
    set_progress(True)
    try:
        assert progress_enabled()
        assert not progress_enabled(False)  # explicit arg beats override
    finally:
        set_progress(None)


def test_progress_reporter_counts_and_eta():
    stream = io.StringIO()
    reporter = ProgressReporter(
        3, label="fig7a", stream=stream, min_interval_s=0.0
    )
    for name in ("a", "b", "c"):
        reporter.task_done(name)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("[fig7a] 1/3 (33%)")
    assert "ETA" in lines[0] and "a" in lines[0]
    assert lines[-1].startswith("[fig7a] 3/3 (100%)")
    assert "ETA 0.0s" in lines[-1]


def test_progress_reporter_eta_all_cache_hits_reports_unknown():
    # An all-hits prefix used to divide by a zero compute rate; the ETA
    # must come back as "unknown", never a crash or infinity.
    stream = io.StringIO()
    reporter = ProgressReporter(4, label="c", stream=stream, min_interval_s=0.0)
    reporter.task_done("a", wall_s=0.0, cached=True)
    assert reporter.eta_s(10.0) is None
    assert "ETA --" in stream.getvalue().splitlines()[0]
    # First computed task restores a finite extrapolation: 1 computed
    # in 4s -> rate 0.25/s -> 2 remaining -> 8s.
    reporter.task_done("b", wall_s=2.0)
    assert reporter.eta_s(4.0) == pytest.approx(8.0)


def test_progress_reporter_eta_zero_elapsed_stays_finite():
    reporter = ProgressReporter(
        3, stream=io.StringIO(), min_interval_s=0.0
    )
    reporter.task_done("a", wall_s=0.0)
    eta = reporter.eta_s(0.0)
    assert eta is not None and eta == pytest.approx(0.0, abs=1e-6)


def test_progress_reporter_eta_zero_remaining_is_zero():
    reporter = ProgressReporter(1, stream=io.StringIO(), min_interval_s=0.0)
    reporter.task_done("a", wall_s=1.0)
    assert reporter.eta_s(1.0) == 0.0


def test_progress_reporter_straggler_stats_quiet_on_zero_mean():
    reporter = ProgressReporter(3, stream=io.StringIO(), min_interval_s=0.0)
    reporter.task_done("a", wall_s=0.0)
    reporter.task_done("b", wall_s=0.0)
    assert reporter.straggler_stats() is None  # no inf/NaN ratio noise
    reporter.task_done("c", wall_s=3.0)
    assert "slowest 3.0s" in reporter.straggler_stats()


def test_progress_reporter_rate_limits_but_always_prints_final():
    stream = io.StringIO()
    reporter = ProgressReporter(
        5, label="x", stream=stream, min_interval_s=3600.0
    )
    for index in range(5):
        reporter.task_done(str(index))
    lines = stream.getvalue().splitlines()
    # First task prints, intermediates are throttled, final always prints.
    assert len(lines) == 2
    assert lines[0].startswith("[x] 1/5")
    assert lines[1].startswith("[x] 5/5")


def test_map_points_emits_progress_to_stderr(capsys):
    outcome = map_points(
        _double, [1, 2], workers=1, progress=True, progress_label="demo"
    )
    assert outcome.results == [2, 4]
    err = capsys.readouterr().err
    assert "[demo]" in err and "2/2 (100%)" in err


def test_map_points_silent_by_default(capsys):
    map_points(_double, [1, 2], workers=1)
    assert capsys.readouterr().err == ""


# -- end-to-end determinism ---------------------------------------------------

def _tiny_sweep(workers):
    systems = {
        scheme: make_system(scheme, "synthetic-fixed", seed=3)
        for scheme in ("1x16", "16x1")
    }
    return sweep_many(
        systems,
        [8.0, 20.0],
        num_requests=400,
        workers=workers,
        experiment="test-determinism",
    )


def test_sweep_results_identical_across_worker_counts():
    """workers=4 reproduces workers=1 exactly — the engine's contract."""
    serial = _tiny_sweep(1)
    parallel = _tiny_sweep(4)
    assert set(serial) == set(parallel) == {"1x16", "16x1"}
    for scheme, sweep in serial.items():
        other = parallel[scheme].points
        assert len(sweep.points) == len(other) == 2
        for mine, theirs in zip(sweep.points, other):
            assert mine.offered_load == theirs.offered_load
            assert mine.achieved_throughput == theirs.achieved_throughput
            assert mine.summary.mean == theirs.summary.mean
            assert mine.p99 == theirs.p99
