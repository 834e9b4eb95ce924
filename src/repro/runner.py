"""Parallel sweep execution engine with deterministic per-task seeding.

Every figure in the reproduction is a load sweep: dozens of independent
(scheme, load-point) simulations. This module fans those tasks out
across a process pool while guaranteeing that **results are bit-identical
regardless of worker count** — including the serial fallback — so
parallelism is purely a wall-clock optimization, never a source of
noise between runs.

Determinism contract
--------------------
Each task owns a private RNG seed derived with
:class:`numpy.random.SeedSequence` spawning, keyed on
``(experiment, scheme, load index, experiment seed)``:

* the root sequence's entropy is ``(seed, hash(experiment), hash(scheme))``;
* the per-load-point child is ``root.spawn(n)[load_index]``.

SeedSequence spawning guarantees the children are statistically
independent and collision-free across keys (tested in
``tests/test_runner.py``), and the derivation depends only on the key —
not on scheduling order, worker count, or which process runs the task.

Worker-count control
--------------------
``map_points(..., workers=N)`` runs serially when ``N <= 1`` (the
default — keeps pdb/profilers usable in tests) and on a
``ProcessPoolExecutor`` otherwise. When ``workers`` is ``None`` the
``REPRO_WORKERS`` environment variable decides; the experiments CLI
exposes ``--workers``.

Result caching
--------------
Because each task is a pure function of its config and seed, results
are content-addressable. With caching enabled (``--cache`` on the CLI,
``REPRO_CACHE``, or ``map_points(..., cache=True)``), every task is
looked up in the on-disk store of :mod:`repro.cache` first; hits are
returned instantly and only misses are dispatched. The merged outcome
is bit-identical to an uncached run at any worker count — a cached
value is the pickled result of the exact same deterministic
computation. See :mod:`repro.cache` for the key derivation and
invalidation story.

Makespan-aware scheduling
-------------------------
Pool submission order is the only scheduling freedom a deterministic
sweep has, and it matters: a long task landing last serializes the tail
of the sweep behind one worker (the classic straggler effect). Misses
are therefore submitted longest-expected-first, using per-label
wall-clock EWMAs recorded into the cache on every run; on a cold start
the order falls back to the caller's ``cost_hints`` (figure drivers
pass the offered load — higher load simulates longer) and finally to
descending task index, which approximates descending load index for
sweeps built low-to-high. Results are keyed by task index, so ordering
never changes the outcome, only the makespan.

Live progress
-------------
With progress enabled (``--progress`` on the CLI, the
``REPRO_PROGRESS=1`` environment variable, or
``map_points(..., progress=True)``), each completed task emits a
stderr status line with the done/total count, the task's label, an ETA
extrapolated from the completed tasks' mean wall-clock, cache
hit counts, and straggler stats (slowest task vs mean).

Graceful degradation
--------------------
A task that raises inside a worker is retried once serially; if the
retry also fails, the task's slot is ``None`` and the failure is
reported through :meth:`MapOutcome.findings` (figure drivers surface
these in ``ExperimentResult.findings``) instead of killing the sweep;
drivers that need every point call :meth:`MapOutcome.require`, which
raises one error naming each failed task. Failure records identify the exact task (index plus the caller's label
— figure sweeps label tasks ``scheme[load_index]@load (seed N)``) and
the exception from each attempt.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, TextIO, Union

import numpy as np

__all__ = [
    "ENV_WORKERS",
    "ENV_PROGRESS",
    "MapOutcome",
    "ProgressReporter",
    "TaskFailure",
    "map_points",
    "progress_enabled",
    "resolve_workers",
    "schedule_order",
    "set_progress",
    "spawn_point_seeds",
    "task_seed",
]

#: Environment variable consulted when ``workers`` is not given.
ENV_WORKERS = "REPRO_WORKERS"

#: Environment variable enabling live progress lines ("1"/"true"/"yes").
ENV_PROGRESS = "REPRO_PROGRESS"

#: Process-wide progress override (set by the CLI's ``--progress``);
#: ``None`` defers to :data:`ENV_PROGRESS`.
_PROGRESS_OVERRIDE: Optional[bool] = None


def set_progress(enabled: Optional[bool]) -> None:
    """Force progress reporting on/off process-wide (None = env decides)."""
    global _PROGRESS_OVERRIDE
    _PROGRESS_OVERRIDE = enabled


def progress_enabled(progress: Optional[bool] = None) -> bool:
    """Effective progress switch: explicit arg, else override, else env."""
    if progress is not None:
        return progress
    if _PROGRESS_OVERRIDE is not None:
        return _PROGRESS_OVERRIDE
    return os.environ.get(ENV_PROGRESS, "").strip().lower() in ("1", "true", "yes")


def _key_hash(key: object) -> int:
    """Stable 64-bit integer from an arbitrary key (seed entropy word)."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_point_seeds(
    experiment: object, scheme: object, seed: int, num_points: int
) -> List[int]:
    """Per-load-point seeds for one (experiment, scheme, seed) sweep.

    The root :class:`numpy.random.SeedSequence` is keyed on the
    experiment id, the scheme label, and the experiment seed; one child
    is spawned per load point. The result depends only on the key, so
    serial and parallel execution (any worker count) see identical
    streams, while distinct (experiment, scheme, load index) tuples
    never share one.
    """
    if num_points < 0:
        raise ValueError(f"num_points must be non-negative, got {num_points!r}")
    root = np.random.SeedSequence(
        entropy=(int(seed), _key_hash(experiment), _key_hash(scheme))
    )
    return [
        int(child.generate_state(1, np.uint64)[0])
        for child in root.spawn(num_points)
    ]


def task_seed(experiment: object, scheme: object, load_index: int, seed: int) -> int:
    """The seed of one (experiment, scheme, load index, seed) task."""
    if load_index < 0:
        raise ValueError(f"load_index must be non-negative, got {load_index!r}")
    return spawn_point_seeds(experiment, scheme, seed, load_index + 1)[load_index]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``REPRO_WORKERS``, else 1.

    Anything ``<= 1`` (or unparsable) means serial execution.
    """
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "")
        try:
            workers = int(raw)
        except ValueError:
            workers = 1
    return max(1, int(workers))


@dataclass(frozen=True)
class TaskFailure:
    """One task that raised (possibly twice: in a worker and on retry)."""

    label: str
    error: str
    #: True when a serial retry was attempted after a worker failure.
    retried: bool
    #: True when the retry (or serial first attempt) also failed, so the
    #: task produced no result.
    fatal: bool
    #: Position of the task in the ``map_points`` call (result slot).
    index: int = -1

    def describe(self) -> str:
        where = f"task {self.label}" if self.index < 0 else (
            f"task #{self.index} ({self.label})"
        )
        if not self.fatal:
            return (
                f"{where} failed in a worker ({self.error}); "
                "serial retry succeeded"
            )
        attempt = "after serial retry" if self.retried else "serially"
        return f"{where} failed {attempt}: {self.error}; point dropped"


@dataclass
class MapOutcome:
    """Results of one :func:`map_points` call, in task order.

    ``results[i]`` is ``None`` when task *i* failed both attempts.
    """

    results: List[Any]
    failures: List[TaskFailure] = field(default_factory=list)
    #: Tasks answered from the result cache / dispatched for compute.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Per-task wall-clock seconds (0.0 for cache hits, None for
    #: failures); absent when the call predates timing.
    task_wall_s: Optional[List[Optional[float]]] = None

    @property
    def ok(self) -> bool:
        return not any(failure.fatal for failure in self.failures)

    def findings(self) -> List[str]:
        """Human-readable failure lines for ``ExperimentResult.findings``."""
        return [failure.describe() for failure in self.failures]

    def require(self, what: str) -> List[Any]:
        """The results, or one ``RuntimeError`` naming every failed task.

        For callers that cannot use a partial sweep: ``what`` names the
        run in the error, and each task that produced no result is
        listed by its label.
        """
        if not self.ok:
            raise RuntimeError(
                f"{what} failed: "
                + "; ".join(
                    failure.describe() for failure in self.failures if failure.fatal
                )
            )
        return self.results


class ProgressReporter:
    """Per-task completion lines with ETA, cache, and straggler stats.

    ``elapsed / done * remaining`` is a fine ETA model here because
    sweep tasks are close to equal-cost; the point is a liveness signal
    during multi-minute parallel sweeps, not a scheduler. Once measured
    per-task wall-clocks exist, each line also reports the slowest
    task's cost relative to the mean — the straggler ratio that the
    longest-expected-first submission order exists to hide.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.25,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.done = 0
        self.cached = 0
        self._walls: List[float] = []
        self._started = time.monotonic()
        self._last_print = float("-inf")

    def straggler_stats(self) -> Optional[str]:
        """``slowest Xs = Y.Yx mean`` over the measured tasks, if any."""
        if len(self._walls) < 2:
            return None
        slowest = max(self._walls)
        mean = sum(self._walls) / len(self._walls)
        if mean <= 0:
            # Every measured task took ~0s (e.g. trivial smoke tasks);
            # a ratio would be inf/NaN noise, so say nothing.
            return None
        return f"slowest {slowest:.1f}s = {slowest / mean:.1f}x mean"

    def eta_s(self, elapsed: float) -> Optional[float]:
        """Seconds remaining, or ``None`` when there is no evidence yet.

        Extrapolates from the mean wall-clock of *computed* tasks only:
        cache hits complete in ~0s and must not drag the rate estimate
        to infinity (the all-hits sweep would otherwise print a
        division-by-zero ETA, and a first task finishing in ~0s would
        predict 0s for an hour of remaining work). The rate denominator
        is clamped so a pathological ~0 elapsed stays finite.
        """
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        computed = self.done - self.cached
        if computed <= 0:
            # Only cache hits so far: no compute-rate evidence. If the
            # remaining tasks also hit they finish in ~0s; if not, any
            # extrapolation would be fiction. Report "unknown".
            return None
        rate = computed / max(elapsed, 1e-9)
        return remaining / rate

    def task_done(
        self,
        task_label: str,
        wall_s: Optional[float] = None,
        cached: bool = False,
    ) -> None:
        """Record one completed task and (rate-limited) print a line."""
        self.done += 1
        if cached:
            self.cached += 1
        elif wall_s is not None:
            self._walls.append(wall_s)
        now = time.monotonic()
        final = self.done >= self.total
        if not final and now - self._last_print < self.min_interval_s:
            return
        self._last_print = now
        elapsed = now - self._started
        eta = self.eta_s(elapsed)
        eta_text = "--" if eta is None else f"{eta:.1f}s"
        percent = 100.0 * self.done / self.total
        extras = []
        if self.cached:
            extras.append(f"cache {self.cached}/{self.done}")
        stragglers = self.straggler_stats()
        if stragglers:
            extras.append(stragglers)
        suffix = f" [{'; '.join(extras)}]" if extras else ""
        print(
            f"[{self.label}] {self.done}/{self.total} ({percent:.0f}%) "
            f"elapsed {elapsed:.1f}s ETA {eta_text}{suffix} — {task_label}",
            file=self.stream,
            flush=True,
        )


def _task_label(labels: Optional[Sequence[str]], index: int) -> str:
    if labels is not None and index < len(labels):
        return str(labels[index])
    return f"task[{index}]"


def schedule_order(
    indices: Sequence[int],
    fn: Optional[Callable[[Any], Any]] = None,
    labels: Optional[Sequence[str]] = None,
    store=None,
    cost_hints: Optional[Sequence[float]] = None,
) -> List[int]:
    """Submission order for pool tasks: longest-expected-first.

    Expected cost per task, best evidence first:

    1. the cache's per-label wall-clock EWMA from previous runs;
    2. the caller's ``cost_hints`` (figure drivers pass the offered
       load — simulation cost grows with load);
    3. descending task index (sweeps are built in ascending-load order,
       so the highest load indices run longest).

    The tiers sort as (evidence, value) tuples, so measured tasks lead,
    hinted tasks follow, and unknown tasks trail — within each tier,
    most-expensive first. Results are slotted by task index, so this
    reorders *execution* only; outcomes are unchanged.
    """
    def rank(index: int):
        if store is not None and labels is not None and index < len(labels):
            estimate = store.expected_duration(
                store.duration_key(fn, labels[index])
            )
            if estimate is not None:
                return (2, estimate)
        if cost_hints is not None and index < len(cost_hints):
            return (1, float(cost_hints[index]))
        return (0, float(index))

    return sorted(indices, key=rank, reverse=True)


def _call_timed(fn: Callable[[Any], Any], task: Any):
    """Run one task under a wall-clock timer (module-level: pool-picklable)."""
    started = time.perf_counter()
    result = fn(task)
    return result, time.perf_counter() - started


def _record(store, fn, keys, labels, index, result, wall_s) -> None:
    """Persist one computed result + its wall-clock into the cache."""
    if store is None:
        return
    key = keys[index]
    if key is not None:
        store.store(key, result, wall_s)
    store.record_duration(
        store.duration_key(fn, _task_label(labels, index)), wall_s
    )


def _map_serial(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    indices: Sequence[int],
    labels: Optional[Sequence[str]],
    outcome: MapOutcome,
    reporter: Optional[ProgressReporter] = None,
    store=None,
    keys: Optional[List[Optional[str]]] = None,
) -> MapOutcome:
    for index in indices:
        started = time.perf_counter()
        try:
            result = fn(tasks[index])
        except Exception as exc:  # noqa: BLE001 - reported, not silenced
            outcome.failures.append(
                TaskFailure(
                    label=_task_label(labels, index),
                    error=f"{type(exc).__name__}: {exc}",
                    retried=False,
                    fatal=True,
                    index=index,
                )
            )
            if reporter is not None:
                reporter.task_done(_task_label(labels, index))
            continue
        wall_s = time.perf_counter() - started
        outcome.results[index] = result
        if outcome.task_wall_s is not None:
            outcome.task_wall_s[index] = wall_s
        _record(store, fn, keys or [], labels, index, result, wall_s)
        if reporter is not None:
            reporter.task_done(_task_label(labels, index), wall_s=wall_s)
    return outcome


def map_points(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    progress: Optional[bool] = None,
    progress_label: str = "sweep",
    cache: Union[None, bool, Any] = None,
    cost_hints: Optional[Sequence[float]] = None,
) -> MapOutcome:
    """Run ``fn`` over ``tasks``, serially or on a process pool.

    Parameters
    ----------
    fn:
        A module-level (picklable) callable of one task.
    tasks:
        Picklable task descriptions. Each task must be self-contained —
        in particular it must carry its own RNG seed (see
        :func:`spawn_point_seeds`) so the result does not depend on
        which process runs it.
    workers:
        Worker count; ``None`` consults ``REPRO_WORKERS``. ``<= 1``
        runs serially in-process.
    labels:
        Optional per-task labels used in failure reports, progress
        lines, and the cache's per-label duration estimates.
    progress:
        Live per-task progress/ETA on stderr; ``None`` consults
        :func:`set_progress` / ``REPRO_PROGRESS``.
    progress_label:
        Prefix of progress lines (the CLI passes the experiment id).
    cache:
        Result caching: ``None`` consults ``repro.cache`` process
        state / ``REPRO_CACHE``; ``True``/``False`` force; a
        :class:`repro.cache.ResultCache` is used directly. Cached
        points return instantly; only misses are computed, and the
        merged outcome is bit-identical to an uncached run.
    cost_hints:
        Optional per-task relative cost estimates (any unit — figure
        drivers pass the offered load) used to submit misses
        longest-expected-first on a cold cache; see
        :func:`schedule_order`.

    Returns
    -------
    MapOutcome
        Results in task order (``None`` for tasks that failed twice)
        plus structured failure records and cache hit/miss counts.
    """
    from .cache import resolve_cache

    tasks = list(tasks)
    total = len(tasks)
    count = resolve_workers(workers)
    store = resolve_cache(cache)
    outcome = MapOutcome(
        results=[None] * total, task_wall_s=[None] * total
    )
    reporter = (
        ProgressReporter(total, label=progress_label)
        if progress_enabled(progress) and tasks
        else None
    )

    keys: List[Optional[str]] = [None] * total
    pending: List[int] = list(range(total))
    if store is not None:
        pending = []
        for index, task in enumerate(tasks):
            key = store.key_for(fn, task)
            keys[index] = key
            if key is not None:
                hit, value, _wall_s = store.lookup(key)
                if hit:
                    outcome.results[index] = value
                    outcome.task_wall_s[index] = 0.0
                    outcome.cache_hits += 1
                    if reporter is not None:
                        reporter.task_done(
                            _task_label(labels, index), wall_s=0.0, cached=True
                        )
                    continue
            pending.append(index)
        outcome.cache_misses = len(pending)
        if not pending:
            return outcome

    if count <= 1 or len(pending) <= 1:
        return _map_serial(
            fn, tasks, pending, labels, outcome, reporter, store, keys
        )

    order = schedule_order(pending, fn, labels, store, cost_hints)
    try:
        executor = ProcessPoolExecutor(max_workers=min(count, len(pending)))
    except (OSError, ValueError):  # no usable multiprocessing: degrade
        return _map_serial(
            fn, tasks, pending, labels, outcome, reporter, store, keys
        )

    with executor:
        index_of = {
            executor.submit(_call_timed, fn, tasks[index]): index
            for index in order
        }
        # Collect in completion order (for live progress), report in
        # task order below — the outcome never depends on scheduling.
        worker_errors: dict = {}
        waiting = set(index_of)
        while waiting:
            finished, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            for future in finished:
                index = index_of[future]
                try:
                    result, wall_s = future.result()
                except Exception as exc:  # noqa: BLE001 - worker died or task raised
                    worker_errors[index] = f"{type(exc).__name__}: {exc}"
                    if reporter is not None:
                        reporter.task_done(_task_label(labels, index))
                    continue
                outcome.results[index] = result
                outcome.task_wall_s[index] = wall_s
                _record(store, fn, keys, labels, index, result, wall_s)
                if reporter is not None:
                    reporter.task_done(
                        _task_label(labels, index), wall_s=wall_s
                    )
    # Graceful degradation: retry failed tasks once, serially, in task
    # order (deterministic findings regardless of completion order).
    for index in sorted(worker_errors):
        label = _task_label(labels, index)
        started = time.perf_counter()
        try:
            result = fn(tasks[index])
        except Exception as exc:  # noqa: BLE001
            outcome.failures.append(
                TaskFailure(
                    label=label,
                    error=(
                        f"worker: {worker_errors[index]}; "
                        f"retry: {type(exc).__name__}: {exc}"
                    ),
                    retried=True,
                    fatal=True,
                    index=index,
                )
            )
        else:
            wall_s = time.perf_counter() - started
            outcome.results[index] = result
            outcome.task_wall_s[index] = wall_s
            _record(store, fn, keys, labels, index, result, wall_s)
            outcome.failures.append(
                TaskFailure(
                    label=label,
                    error=worker_errors[index],
                    retried=True,
                    fatal=False,
                    index=index,
                )
            )
    return outcome
