"""RpcValetSystem: the library's top-level entry point.

Assembles the full simulated server — chip, balancing scheme, workload,
traffic generator — and runs load points / sweeps, producing the same
(throughput, p99) series the paper's figures plot.

Example
-------
>>> from repro import RpcValetSystem, SingleQueue, SyntheticWorkload
>>> system = RpcValetSystem(
...     scheme=SingleQueue(),
...     workload=SyntheticWorkload("exponential"),
...     seed=1,
... )
>>> point = system.run_point(offered_mrps=8.0, num_requests=20_000)
>>> point.p99 > 0
True
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch import Chip, ChipConfig, DEFAULT_CONFIG
from ..balancing import BalancingScheme
from ..metrics import SweepPoint, SweepResult
from ..runner import map_points, spawn_point_seeds
from ..sim import Environment, RngRegistry
from ..popload.arrivals import ArrivalProcess
from ..telemetry import (
    TelemetryHub,
    TelemetrySnapshot,
    instrument_chip,
    instrument_traffic,
    merge_snapshots,
)
from ..workloads import (
    MicrobenchCosts,
    MicrobenchProgram,
    RpcWorkload,
    TrafficGenerator,
)

__all__ = [
    "RpcValetSystem",
    "PointResult",
    "MessageLog",
    "run_point_task",
    "sweep_many",
    "sweep_telemetry",
]


class MessageLog:
    """A bounded completed-message log (oldest dropped, drops counted).

    Drop-in for the plain list ``Chip.completed_messages`` expects: the
    chip only ever ``append``s. With ``max_messages=None`` it behaves
    like an unbounded list; with a cap, the oldest records are evicted
    so long ``keep_messages=True`` captures cannot exhaust memory.
    """

    __slots__ = ("_messages", "max_messages", "dropped")

    def __init__(self, max_messages: Optional[int] = None) -> None:
        if max_messages is not None and max_messages < 1:
            raise ValueError(
                f"max_messages must be >= 1 or None, got {max_messages!r}"
            )
        self.max_messages = max_messages
        self._messages: deque = deque(maxlen=max_messages)
        self.dropped = 0

    def append(self, msg) -> None:
        if self.max_messages is not None and len(self._messages) == self.max_messages:
            self.dropped += 1
        self._messages.append(msg)

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self):
        return iter(self._messages)

    def to_list(self) -> list:
        return list(self._messages)


@dataclass
class PointResult:
    """Full result of one load point (more detail than a SweepPoint)."""

    point: SweepPoint
    mean_service_ns: float
    stall_fraction: float
    max_private_cq_depth: int
    max_shared_cq_depth: int
    completed: int
    #: Per-request records, populated when run with keep_messages=True.
    messages: Optional[list] = None
    #: Oldest records evicted from ``messages`` by a ``max_messages`` cap.
    dropped_messages: int = 0
    #: Telemetry snapshot, populated when run with telemetry enabled.
    telemetry: Optional[TelemetrySnapshot] = None

    @property
    def p99(self) -> float:
        return self.point.p99


class RpcValetSystem:
    """One modeled server under one balancing scheme and workload."""

    def __init__(
        self,
        scheme: BalancingScheme,
        workload: RpcWorkload,
        config: ChipConfig = DEFAULT_CONFIG,
        costs: Optional[MicrobenchCosts] = None,
        seed: int = 0,
        slot_policy: str = "static",
        pool_size: Optional[int] = None,
        source_skew: float = 0.0,
        arrival_process: Optional[ArrivalProcess] = None,
        interference=None,
        telemetry: bool = False,
    ) -> None:
        self.scheme = scheme
        self.workload = workload
        self.config = config
        self.costs = costs if costs is not None else MicrobenchCosts.lean()
        self.seed = seed
        #: Send-slot provisioning: "static" (paper §4.2) or "dynamic"
        #: (the shared-pool future-work extension).
        self.slot_policy = slot_policy
        self.pool_size = pool_size
        #: Zipf-like exponent over sender ranks (0 = paper's uniform).
        self.source_skew = source_skew
        #: Optional :mod:`repro.popload` arrival process. None keeps the
        #: paper's stationary Poisson at each run_point's offered rate
        #: (byte-identical to the historical stream); a process makes
        #: ``offered_mrps`` the point's nominal label while the process
        #: dictates the actual arrival timing.
        self.arrival_process = arrival_process
        #: Optional §3.2 interference injection (see repro.arch.interference).
        self.interference = interference
        #: When True, every run_point instruments the chip with a
        #: :class:`repro.telemetry.TelemetryHub` and attaches the
        #: snapshot to the result (and to ``point.extra["telemetry"]``,
        #: so sweeps carry it through the parallel engine for merging).
        self.telemetry = telemetry

    @property
    def label(self) -> str:
        return self.scheme.label

    @property
    def expected_service_ns(self) -> float:
        """A-priori S̄: workload mean + microbenchmark overhead.

        The measured S̄ (PointResult.mean_service_ns) additionally
        includes scheme-imposed core overheads (software dequeue cost)
        and rendezvous fetches.
        """
        return self.workload.mean_processing_ns + self.costs.total_ns

    def _build(self, rngs: RngRegistry) -> Chip:
        env = Environment()
        program = MicrobenchProgram(
            self.costs, reply_size_bytes=self.workload.reply_size_bytes
        )
        chip = Chip(env, self.config, program, rngs)
        chip.interference = self.interference
        self.scheme.install(chip, rngs.stream("dispatch"))
        return chip

    def run_point(
        self,
        offered_mrps: float,
        num_requests: int = 50_000,
        warmup_fraction: float = 0.1,
        keep_messages: bool = False,
        max_messages: Optional[int] = None,
        telemetry: Optional[bool] = None,
    ) -> PointResult:
        """Simulate one offered-load point (in millions of requests/s).

        Returns achieved throughput (MRPS) and the latency summary of
        the workload's SLO-relevant class, measured per §5: from the
        message's reception at the NI until the replenish is posted.
        ``keep_messages`` retains the per-request records on the result
        for stage-level analysis (:func:`repro.metrics.breakdown_from_messages`);
        ``max_messages`` bounds that capture (oldest records dropped,
        drop count reported on the result) so long traces cannot OOM.
        ``telemetry`` instruments the run (None defers to the system's
        ``telemetry`` flag); the snapshot lands on the result and in
        ``point.extra["telemetry"]``.
        """
        if offered_mrps <= 0:
            raise ValueError(f"offered_mrps must be positive, got {offered_mrps!r}")
        if num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {num_requests!r}")
        rngs = RngRegistry(self.seed)
        chip = self._build(rngs)
        message_log: Optional[MessageLog] = None
        if keep_messages:
            message_log = MessageLog(max_messages)
            chip.completed_messages = message_log
        hub: Optional[TelemetryHub] = None
        if self.telemetry if telemetry is None else telemetry:
            # ~200 sampler ticks across the expected injection window.
            duration_ns = num_requests / (offered_mrps * 1e6) * 1e9
            interval = max(duration_ns / 200.0, 1.0)
            hub = TelemetryHub(sample_interval=interval)
            instrument_chip(chip, hub)
            chip.env.attach_sampler(hub.make_sampler())
        traffic = TrafficGenerator(
            chip,
            self.workload,
            arrival_rate_rps=offered_mrps * 1e6,
            num_requests=num_requests,
            rngs=rngs,
            slot_policy=self.slot_policy,
            pool_size=self.pool_size,
            source_skew=self.source_skew,
            arrival_process=self.arrival_process,
        )
        if hub is not None:
            # Offered-rate time-series track; the hub's sampler reads
            # its probe list by reference, so late registration samples.
            instrument_traffic(traffic, hub)
        chip.env.run()

        recorder = chip.recorder
        label = self.workload.slo_label
        if label not in recorder.labels:
            # Single-class workloads record everything under "rpc".
            label = None
        summary = recorder.summary(label=label, warmup_fraction=warmup_fraction)
        # Achieved throughput counts *all* completions (gets + scans).
        # Recorder times are in ns, so per-ns rate * 1e3 = MRPS.
        throughput_mrps = (
            recorder.throughput(
                warmup_time=_warmup_cutoff(recorder, warmup_fraction)
            )
            * 1e3
        )
        extra = {
            "mean_service_ns": chip.stats.mean_service_ns,
            "stall_fraction": traffic.stall_fraction,
        }
        snapshot: Optional[TelemetrySnapshot] = None
        if hub is not None:
            snapshot = hub.snapshot()
            extra["telemetry"] = snapshot
        point = SweepPoint(
            offered_load=offered_mrps,
            achieved_throughput=throughput_mrps,
            summary=summary,
            extra=extra,
        )
        max_shared = max(
            dispatcher.max_shared_cq_depth for dispatcher in chip.dispatchers
        )
        return PointResult(
            point=point,
            mean_service_ns=chip.stats.mean_service_ns,
            stall_fraction=traffic.stall_fraction,
            max_private_cq_depth=chip.total_cqe_depth_high_water,
            max_shared_cq_depth=max_shared,
            completed=chip.stats.completed,
            messages=message_log.to_list() if message_log is not None else None,
            dropped_messages=message_log.dropped if message_log is not None else 0,
            telemetry=snapshot,
        )

    def sweep(
        self,
        offered_mrps: Sequence[float],
        num_requests: int = 50_000,
        warmup_fraction: float = 0.1,
        label: Optional[str] = None,
        workers: Optional[int] = None,
        experiment: Optional[str] = None,
        failures: Optional[List[str]] = None,
    ) -> SweepResult:
        """Run several load points and return the throughput/p99 curve.

        Load points are independent tasks executed through
        :func:`repro.runner.map_points`: serially when ``workers <= 1``
        (the default; ``REPRO_WORKERS`` overrides), on a process pool
        otherwise. Each point runs under its own deterministic seed
        spawned from ``(experiment, scheme label, load index, seed)``,
        so the curve is bit-identical for every worker count. Failed
        points are dropped from the curve and described in ``failures``
        (when a list is passed).
        """
        name = label or self.label
        sweeps = sweep_many(
            {name: self},
            offered_mrps,
            num_requests=num_requests,
            warmup_fraction=warmup_fraction,
            workers=workers,
            experiment=experiment,
            failures=failures,
        )
        return sweeps[name]


def run_point_task(
    task: Tuple["RpcValetSystem", float, int, float, int],
) -> PointResult:
    """Execute one (system, load) task under an explicit seed.

    Module-level so it pickles into pool workers. The system is shallow-
    copied before reseeding, leaving the caller's instance untouched.
    """
    system, load, num_requests, warmup_fraction, seed = task
    system = copy.copy(system)
    system.seed = seed
    return system.run_point(
        load, num_requests=num_requests, warmup_fraction=warmup_fraction
    )


def sweep_many(
    systems: Mapping[str, "RpcValetSystem"],
    offered_mrps: Sequence[float],
    num_requests: int = 50_000,
    warmup_fraction: float = 0.1,
    workers: Optional[int] = None,
    experiment: Optional[str] = None,
    failures: Optional[List[str]] = None,
) -> Dict[str, SweepResult]:
    """Sweep several labelled systems over one load grid, in one fan-out.

    This is the figure drivers' entry point: all (scheme, load-point)
    tasks go through a single :func:`repro.runner.map_points` call, so a
    pool of N workers stays busy across scheme boundaries instead of
    draining per scheme. Per-task seeds come from
    :func:`repro.runner.spawn_point_seeds` keyed on
    ``(experiment, scheme label, load index, system seed)``.
    """
    loads = sorted(offered_mrps)
    tasks: List[Tuple[RpcValetSystem, float, int, float, int]] = []
    labels: List[str] = []
    owners: List[str] = []
    hints: List[float] = []
    for name, system in systems.items():
        seeds = spawn_point_seeds(experiment or name, name, system.seed, len(loads))
        for index, (load, seed) in enumerate(zip(loads, seeds)):
            tasks.append((system, load, num_requests, warmup_fraction, seed))
            # Full task identity (scheme, load index, load, seed) so a
            # failure report pinpoints the exact simulation to rerun.
            labels.append(f"{name}[{index}]@{load:g} (seed {seed})")
            owners.append(name)
            # Cold-cache scheduling hint: higher load simulates longer.
            hints.append(load)
    outcome = map_points(
        run_point_task,
        tasks,
        workers=workers,
        labels=labels,
        progress_label=experiment or "sweep",
        cost_hints=hints,
    )
    points: Dict[str, List[SweepPoint]] = {name: [] for name in systems}
    for owner, result in zip(owners, outcome.results):
        if result is not None:
            points[owner].append(result.point)
    if failures is not None:
        failures.extend(outcome.findings())
    return {
        name: SweepResult(label=name, points=series)
        for name, series in points.items()
    }


def sweep_telemetry(sweep: SweepResult) -> Optional[TelemetrySnapshot]:
    """Merge the telemetry snapshots carried by a sweep's points.

    Each telemetry-enabled point stores its snapshot in
    ``point.extra["telemetry"]``; merging in point order yields one
    consistent view per curve that is bit-identical at any worker count
    (see :func:`repro.telemetry.merge_snapshots`). Returns ``None`` when
    the sweep ran without telemetry.
    """
    return merge_snapshots(
        point.extra.get("telemetry") for point in sweep.points
    )


def _warmup_cutoff(recorder, warmup_fraction: float) -> float:
    """Absolute completion-time cutoff matching a warmup fraction."""
    import numpy as np

    if warmup_fraction <= 0 or len(recorder) == 0:
        return 0.0
    times = np.asarray(recorder._times)
    return float(np.quantile(times, warmup_fraction))
