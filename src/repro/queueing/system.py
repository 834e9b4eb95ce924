"""The paper's Q×U queueing systems (§2.2, Fig. 1/2; Fig. 9 model side).

``Model Q×U`` denotes Q FIFOs with U serving units each; arrivals are
Poisson and each arriving request is assigned to one of the Q FIFOs
uniformly at random (``uni[0, Q-1]`` in Fig. 1). The invariant across
the paper's configurations is Q·U = 16.

Fig. 9 additionally needs a *composite* service time: a fixed component
(the microbenchmark's non-emulated work, S̄−D) plus a distributed
component D. :func:`composite_service` builds that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..dists import Distribution, Shifted
from ..metrics import LatencySummary, SweepPoint, SweepResult
from ..runner import map_points, spawn_point_seeds
from ..sim import RngRegistry
from .fastsim import (
    check_unit_count,
    poisson_arrivals,
    sojourn_times,
)

__all__ = ["QueueingSystem", "composite_service", "PAPER_CONFIGS", "run_queueing_task"]

#: The five configurations of Fig. 2a, as (num_queues, servers_per_queue).
PAPER_CONFIGS = ((1, 16), (2, 8), (4, 4), (8, 2), (16, 1))


def composite_service(
    distributed: Distribution, fixed_part: float, name: Optional[str] = None
) -> Distribution:
    """Service time = ``fixed_part`` + D, with D ~ ``distributed``.

    This is §6.3's model construction: "D of the service time follows a
    certain distribution ... and S̄−D of the service time is fixed".
    """
    if fixed_part < 0:
        raise ValueError(f"fixed_part must be non-negative, got {fixed_part!r}")
    if fixed_part == 0:
        return distributed
    return Shifted(
        distributed, fixed_part, name=name or f"{distributed.name}+fixed"
    )


@dataclass(frozen=True)
class QueueingSystem:
    """A Q×U system: ``num_queues`` FIFOs × ``servers_per_queue`` units.

    Parameters
    ----------
    num_queues, servers_per_queue:
        The Q and U of the paper's Model Q×U notation.
    service:
        Service-time distribution (any time unit).
    seed:
        Experiment seed; identical seeds reproduce identical runs and
        share random draws across configurations (common random
        numbers), which sharpens A/B comparisons like Fig. 2a.
    """

    num_queues: int
    servers_per_queue: int
    service: Distribution
    seed: int = 0

    def __post_init__(self) -> None:
        check_unit_count("num_queues", self.num_queues)
        check_unit_count("servers_per_queue", self.servers_per_queue)

    @property
    def total_servers(self) -> int:
        """Q·U — the total number of serving units (16 in the paper)."""
        return self.num_queues * self.servers_per_queue

    @property
    def label(self) -> str:
        return f"{self.num_queues}x{self.servers_per_queue}"

    def run(
        self,
        load: float,
        num_requests: int = 200_000,
        warmup_fraction: float = 0.1,
    ) -> SweepPoint:
        """Simulate at utilization ``load`` ∈ (0, 1).

        The system-wide arrival rate is ``load * total_servers /
        E[service]``; each request is sprayed to a uniformly random
        FIFO. Latencies are sojourn times in multiples of the mean
        service time S̄ (matching Fig. 2's y-axis).
        """
        if not 0 < load < math.inf:
            raise ValueError(f"load must be positive and finite, got {load!r}")
        if num_requests <= 0:
            raise ValueError(f"num_requests must be positive, got {num_requests!r}")
        mean_service = self.service.mean
        if not np.isfinite(mean_service) or mean_service <= 0:
            raise ValueError(f"service distribution has invalid mean {mean_service!r}")

        rngs = RngRegistry(self.seed)
        arrival_rng = rngs.stream("arrivals")
        spray_rng = rngs.stream("spray")
        service_rng = rngs.stream("service")

        rate = load * self.total_servers / mean_service
        arrivals = poisson_arrivals(arrival_rng, rate, num_requests)
        services = self.service.sample_array(service_rng, num_requests)
        queue_ids = spray_rng.integers(0, self.num_queues, size=num_requests)

        all_sojourns = []
        for queue_id in range(self.num_queues):
            mask = queue_ids == queue_id
            if not mask.any():
                continue
            all_sojourns.append(
                sojourn_times(
                    arrivals[mask],
                    services[mask],
                    self.servers_per_queue,
                    warmup_fraction=warmup_fraction,
                    # Arrivals are a cumsum of non-negative gaps and
                    # services come straight from the distributions:
                    # skip fastsim's O(n) input validation on this hot path.
                    validate=False,
                )
            )
        sojourns = (
            np.concatenate(all_sojourns) if all_sojourns else np.empty(0)
        )
        normalized = sojourns / mean_service
        summary = LatencySummary.from_values(normalized)
        return SweepPoint(
            offered_load=load,
            achieved_throughput=load,
            summary=summary,
            extra={"mean_service": mean_service, "arrival_rate": rate},
        )

    def sweep(
        self,
        loads: Sequence[float],
        num_requests: int = 200_000,
        warmup_fraction: float = 0.1,
        label: Optional[str] = None,
        workers: Optional[int] = None,
        experiment: Optional[str] = None,
        failures: Optional[List[str]] = None,
    ) -> SweepResult:
        """Run :meth:`run` across ``loads`` and collect a curve.

        Load points fan out through :func:`repro.runner.map_points`
        (serial when ``workers <= 1``), each under a deterministic seed
        spawned from ``(experiment, label, load index, seed)`` — the
        curve is bit-identical for every worker count. Failed points
        are dropped and described in ``failures`` when a list is given.
        """
        name = label or self.label
        sorted_loads = sorted(loads)
        seeds = spawn_point_seeds(
            experiment or name, name, self.seed, len(sorted_loads)
        )
        tasks = [
            (self, load, num_requests, warmup_fraction, seed)
            for load, seed in zip(sorted_loads, seeds)
        ]
        outcome = map_points(
            run_queueing_task,
            tasks,
            workers=workers,
            labels=[
                f"{name}[{index}]@{load:g} (seed {seed})"
                for index, (load, seed) in enumerate(zip(sorted_loads, seeds))
            ],
            progress_label=experiment or name,
            # Cold-cache scheduling hint: higher load simulates longer.
            cost_hints=sorted_loads,
        )
        if failures is not None:
            failures.extend(outcome.findings())
        return SweepResult(
            label=name,
            points=[point for point in outcome.results if point is not None],
        )


def run_queueing_task(
    task: Tuple["QueueingSystem", float, int, float, int],
) -> SweepPoint:
    """Execute one (system, load) queueing task under an explicit seed.

    Module-level so it pickles into pool workers; the frozen system is
    rebuilt with the task's seed via :func:`dataclasses.replace`.
    """
    system, load, num_requests, warmup_fraction, seed = task
    return replace(system, seed=seed).run(
        load, num_requests=num_requests, warmup_fraction=warmup_fraction
    )
