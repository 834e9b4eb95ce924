"""Vectorized single-chip surrogates for the headline sweeps.

The headline run re-measures four paper claims; three of them are
throughput/tail comparisons between balancing schemes, each a full
architectural DES sweep. This module replaces those sweeps with the
queueing-theoretic surrogate the repo already trusts for Fig. 9's
"Model" series: a FIFO service process with the workload's processing
distribution plus a *calibrated* fixed part (measured S̄ minus
processing mean, the exact recipe of
:func:`repro.experiments.fig9.model_vs_simulation`), simulated by
``fastsim``'s O(n log c) loop instead of the per-event kernel.

Scheme surrogates:

* ``1x16`` — one 16-server FIFO (the paper's single-queue optimum);
* ``4x4`` — uniform spray over four 4-server FIFOs;
* ``16x1`` — uniform spray over sixteen single-server FIFOs;
* ``sw-1x16`` — a tandem queue: the MCS lock's serialized hand-off is
  a single-server deterministic stage (~200ns => the ~5 MRPS software
  ceiling), feeding 16 servers that each pay the post-dequeue critical
  section on top of the RPC's service time.

Fig. 9's model-vs-simulation claim is *about* the DES and always runs
on it; these surrogates only stand in for scheme-vs-scheme ratios,
within the tolerance bands in EXPERIMENTS.md.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..balancing.software import DEFAULT_CRITICAL_NS
from ..balancing import SoftwareSingleQueue
from ..dists import Distribution
from ..metrics import LatencySummary, SweepPoint, SweepResult
from ..queueing.fastsim import poisson_arrivals, simulate_fifo_queue, spray_departures
from ..runner import task_seed
from .calibration import bisect_occupancy

__all__ = [
    "calibrated_chip_profile",
    "fast_scheme_sweep",
    "fast_chip_point",
]

_TOTAL_CORES = 16

#: Mid-load probe for the single-chip occupancy split (~0.8x the HERD
#: capacity of one 16-core chip — the regime the shaped sweeps peak in).
_CHIP_PROBE_MRPS = 23.0
_CHIP_PROBE_REQUESTS = 1500


def _achieved_mrps(departures: np.ndarray, cutoff: float) -> float:
    """Completions per µs from ``cutoff`` to the last one, like the DES.

    The window includes the drain tail, so the headline run's
    >=97%-sustained filter behaves the same on both engines.
    """
    kept = departures[departures >= cutoff]
    if kept.size < 2:
        return 0.0
    duration = float(kept.max()) - max(cutoff, float(kept.min()))
    return kept.size / duration * 1e3 if duration > 0 else 0.0


def _scheme_departures(
    scheme: str,
    arrivals: np.ndarray,
    services: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    if scheme == "1x16":
        return simulate_fifo_queue(arrivals, services, _TOTAL_CORES, validate=False)
    if scheme == "4x4":
        return spray_departures(arrivals, services, 4, 4, rng)
    if scheme == "16x1":
        return spray_departures(arrivals, services, 16, 1, rng)
    if scheme == "sw-1x16":
        # Tandem: serialized MCS hand-off, then the 16 cores (each RPC
        # additionally pays the post-dequeue critical section). A
        # single-server FIFO's departures are non-decreasing, so they
        # are valid arrivals for the second stage.
        software = SoftwareSingleQueue()
        handoff = np.full(arrivals.size, software.serialized_cost_ns)
        dequeued = simulate_fifo_queue(arrivals, handoff, 1, validate=False)
        return simulate_fifo_queue(
            dequeued, services + DEFAULT_CRITICAL_NS, _TOTAL_CORES, validate=False
        )
    raise ValueError(f"no fast surrogate for scheme {scheme!r}")


@lru_cache(maxsize=None)
def calibrated_chip_profile(
    scheme: str, probe_seed: int = 0
) -> Tuple[float, float]:
    """DES-anchored ``(occupancy_ns, shift_ns)`` for one single chip.

    The single-chip counterpart of
    :func:`~repro.fastpath.fastcluster.calibrated_scheme_profile`,
    anchored against ``make_system`` (the NI + chip DES) instead of the
    rack cluster — the two pipelines pay different overheads, so the
    rack split does not transfer.

    A light-load DES probe (1 MRPS, where queueing is negligible)
    measures the total per-RPC latency overhead L = mean sojourn minus
    mean processing. For ``1x16`` all of L occupies the shared
    16-server queue (occupancy = L, shift = 0; the DES cross-checks in
    the agreement tests confirm the split is insensitive there). For
    ``16x1`` the per-core FIFOs are very sensitive to occupancy, so a
    second mid-load probe (:data:`_CHIP_PROBE_MRPS`) anchors the split:
    bisect the occupancy until :func:`fast_chip_point` reproduces the
    probe's mean sojourn on the identical scenario, and book the
    remainder of L as a pure latency shift. Cached per
    ``(scheme, probe_seed)``: one diurnal sweep pays for two probes.
    """
    from ..core import make_system
    from ..workloads import HerdWorkload

    workload = HerdWorkload()
    system = make_system(scheme, "herd", seed=probe_seed)
    light = system.run_point(
        1.0, num_requests=_CHIP_PROBE_REQUESTS, warmup_fraction=0.1
    )
    overhead = max(
        light.point.summary.mean - workload.mean_processing_ns, 0.0
    )
    if scheme == "1x16":
        return overhead, 0.0

    mid_seed = task_seed("fastchip-probe", scheme, 0, probe_seed)
    probe_system = make_system(scheme, "herd", seed=mid_seed)
    target = probe_system.run_point(
        _CHIP_PROBE_MRPS,
        num_requests=_CHIP_PROBE_REQUESTS,
        warmup_fraction=0.1,
    ).point.summary.mean

    def engine_mean(occupancy: float) -> float:
        point = fast_chip_point(
            scheme,
            workload,
            _CHIP_PROBE_MRPS,
            _CHIP_PROBE_REQUESTS,
            mid_seed,
            (occupancy, overhead - occupancy),
        )
        return point.summary.mean

    return bisect_occupancy(engine_mean, target, overhead)


def fast_chip_point(
    scheme: str,
    workload,
    offered_mrps: float,
    num_requests: int,
    seed: int,
    profile: Tuple[float, float],
    arrival_process=None,
    warmup_fraction: float = 0.1,
) -> SweepPoint:
    """One single-chip load point under an arbitrary arrival process.

    The shaped-load counterpart of :func:`fast_scheme_sweep`, built for
    ``ext-diurnal``'s ``engine="fast"`` path. It consumes the *same*
    named RNG streams as the DES system (``"arrivals"`` for the gap
    batch — through the process's own ``sample_gaps`` — ``"service"``
    for the workload batch, and ``"group_spray"`` for 16x1's
    per-message core picks, exactly as the DES chip sprays), so for a
    given ``seed`` the fast tier sees bit-identical arrival times,
    service draws, and core assignments to the DES run it stands in
    for: the engines differ only in the queueing model (calibrated
    FIFO vs per-event NI pipeline), which is what keeps the agreement
    bands tight under diurnal/flash/MMPP shapes.

    ``profile`` is the ``(occupancy_ns, shift_ns)`` split from
    :func:`calibrated_chip_profile`: occupancy is added to every
    service time (it contends for cores), the shift to every sojourn
    (NI pipeline stages overlapped with other requests). Warmup and
    achieved-throughput semantics mirror ``RpcValetSystem.run_point``
    (completion-time quantile cutoff).
    """
    from ..sim import RngRegistry

    if offered_mrps <= 0:
        raise ValueError(f"offered_mrps must be positive, got {offered_mrps!r}")
    if num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {num_requests!r}")
    occupancy_ns, shift_ns = float(profile[0]), float(profile[1])
    if occupancy_ns < 0 or shift_ns < 0:
        raise ValueError(
            f"profile components must be non-negative, got {profile!r}"
        )
    n = num_requests
    rngs = RngRegistry(seed)
    arrival_rng = rngs.stream("arrivals")
    if arrival_process is not None:
        gaps = arrival_process.sample_gaps(arrival_rng, n)
    else:
        gaps = arrival_rng.exponential(1e3 / offered_mrps, size=n)
    arrivals = np.cumsum(gaps)
    base, _labels = workload.sample_batch(rngs.stream("service"), n)
    services = base + occupancy_ns
    departures = _scheme_departures(
        scheme, arrivals, services, rngs.stream("group_spray")
    )
    sojourns = departures - arrivals + shift_ns
    # Warmup mirrors LatencyRecorder.summary: drop the earliest-
    # completing fraction by completion-time quantile (strict >).
    cutoff = (
        float(np.quantile(departures, warmup_fraction))
        if warmup_fraction > 0
        else 0.0
    )
    return SweepPoint(
        offered_load=float(offered_mrps),
        achieved_throughput=_achieved_mrps(departures, cutoff),
        summary=LatencySummary.from_values(sojourns[departures > cutoff]),
        extra={
            "mean_service_ns": float(services.mean()),
            "stall_fraction": 0.0,
        },
    )


def fast_scheme_sweep(
    scheme: str,
    processing: Distribution,
    loads_mrps: Sequence[float],
    num_requests: int,
    seed: int,
    mean_service_ns: float,
    label: str,
    experiment: str = "fastchip",
    warmup_fraction: float = 0.1,
) -> SweepResult:
    """Sweep one scheme surrogate over offered loads (MRPS).

    ``mean_service_ns`` is the DES-calibrated effective service time;
    the surrogate adds ``mean_service_ns - processing.mean`` of fixed
    per-RPC cost to every sampled processing time. Each load point
    draws its RNG from the same ``task_seed`` discipline as the DES
    sweeps, so results are bit-identical at any worker count.
    """
    fixed_ns = mean_service_ns - processing.mean
    if fixed_ns < 0:
        raise ValueError(
            f"calibrated mean {mean_service_ns!r} below processing mean "
            f"{processing.mean!r}"
        )
    points = []
    for index, load in enumerate(loads_mrps):
        rng = np.random.default_rng(task_seed(experiment, label, index, seed))
        rate_per_ns = load * 1e-3
        arrivals = poisson_arrivals(rng, rate_per_ns, num_requests)
        services = processing.sample_array(rng, num_requests) + fixed_ns
        departures = _scheme_departures(scheme, arrivals, services, rng)
        sojourns = departures - arrivals
        skip = int(num_requests * warmup_fraction)
        # Achieved throughput mirrors the DES exactly: warmup cutoff is
        # the completion-time quantile.
        cutoff = float(np.quantile(departures, warmup_fraction))
        points.append(
            SweepPoint(
                offered_load=float(load),
                achieved_throughput=_achieved_mrps(departures, cutoff),
                summary=LatencySummary.from_values(sojourns[skip:]),
            )
        )
    return SweepResult(label=label, points=points)
