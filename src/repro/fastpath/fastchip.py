"""The vectorized single-chip surrogate: one load point per call.

:func:`fast_chip_point` collapses the chip to a FIFO service process:
every RPC pays its workload processing time plus a *calibrated* fixed
occupancy, and its sojourn gains a calibrated latency shift. The
queues are simulated by ``fastsim``'s O(n log c) loop instead of the
per-event NI pipeline. It draws the DES system's own named RNG streams,
so for a given point seed both engines see identical arrivals, service
draws and core picks (common random numbers) and differ only in the
queueing model.

Scheme surrogates:

* ``1x16`` — one 16-server FIFO (the paper's single-queue optimum);
* ``4x4`` — uniform spray over four 4-server FIFOs;
* ``16x1`` — uniform spray over sixteen single-server FIFOs;
* ``sw-1x16`` — a tandem queue: the MCS lock's serialized hand-off is
  a single-server deterministic stage (~200ns => the ~5 MRPS software
  ceiling), feeding 16 servers that each pay the post-dequeue critical
  section on top of the RPC's service time.

:func:`calibrated_chip_profile` measures each hardware scheme's
``(occupancy_ns, shift_ns)`` on the DES with one recipe for every
scheme and workload. ``headline`` (claims 1-3) and ``ext-diurnal`` run
on this surrogate; Fig. 9's model-vs-simulation claim is *about* the
DES and always runs on it. Tolerance bands are in EXPERIMENTS.md.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..balancing.software import DEFAULT_CRITICAL_NS
from ..balancing import SoftwareSingleQueue
from ..metrics import LatencySummary, SweepPoint
from ..queueing.fastsim import simulate_fifo_queue, spray_departures
from ..runner import task_seed
from .calibration import bisect_occupancy

__all__ = [
    "calibrated_chip_profile",
    "fast_chip_point",
]

_TOTAL_CORES = 16

#: Light-load probe rate: queueing is negligible at ~7% utilization on
#: the heaviest (synthetic, S̄ ≈ 1.2µs) workload.
_LIGHT_PROBE_MRPS = 1.0
#: Mid-load probe as a fraction of capacity 16/S̄ — the regime the
#: SLO comparisons are decided in, still below saturation.
_MID_PROBE_FRACTION = 0.8
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
    scheme: str, probe_seed: int = 0, workload: str = "herd"
) -> Tuple[float, float]:
    """DES-anchored ``(occupancy_ns, shift_ns)`` for one single chip.

    The single-chip counterpart of
    :func:`~repro.fastpath.fastcluster.calibrated_scheme_profile`,
    anchored against ``make_system`` (the NI + chip DES) instead of the
    rack cluster — the two pipelines pay different overheads, so the
    rack split does not transfer. The same three steps run for every
    hardware scheme and ``make_system`` workload:

    1. a light-load DES probe (:data:`_LIGHT_PROBE_MRPS`, where
       queueing is negligible) measures the per-RPC latency overhead
       L = mean sojourn minus mean processing, both of the SLO class
       (the class the summaries report), and the chip's S̄;
    2. a mid-load DES probe at :data:`_MID_PROBE_FRACTION` of capacity
       16/S̄ gives the target mean sojourn (S̄ comes from step 1, so
       the probe load follows the workload);
    3. :func:`~repro.fastpath.calibration.bisect_occupancy` splits L:
       the occupancy (added to every service time) for which
       :func:`fast_chip_point` reproduces the target on the probe's
       own seed, the rest booked as a pure latency shift (NI pipeline
       stages overlapped with other requests).

    Cached per ``(scheme, probe_seed, workload)``.
    """
    from ..core import make_system

    light = make_system(scheme, workload, seed=probe_seed).run_point(
        _LIGHT_PROBE_MRPS,
        num_requests=_CHIP_PROBE_REQUESTS,
        warmup_fraction=0.1,
    )
    mid_seed = task_seed("fastchip-probe", scheme, 0, probe_seed)
    probe_system = make_system(scheme, workload, seed=mid_seed)
    model = probe_system.workload
    overhead = max(light.point.summary.mean - model.slo_mean_processing_ns, 0.0)
    probe_mrps = _MID_PROBE_FRACTION * _TOTAL_CORES / light.mean_service_ns * 1e3
    target = probe_system.run_point(
        probe_mrps,
        num_requests=_CHIP_PROBE_REQUESTS,
        warmup_fraction=0.1,
    ).point.summary.mean

    def engine_mean(occupancy: float) -> float:
        point = fast_chip_point(
            scheme,
            model,
            probe_mrps,
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

    The only chip surrogate: ``headline``'s fast sweeps call it once
    per load point on the DES sweeps' own point seeds, and
    ``ext-diurnal`` with shaped arrival processes. It consumes the
    *same* named RNG streams as the DES system (``"arrivals"`` for the
    gap batch — through the process's own ``sample_gaps`` —
    ``"service"`` for the workload batch, and ``"group_spray"`` for
    4x4/16x1's per-message core picks, exactly as the DES chip
    sprays), so for a given ``seed`` the fast tier sees bit-identical
    arrival times, service draws, and core assignments to the DES run
    it stands in for: the engines differ only in the queueing model
    (calibrated FIFO vs per-event NI pipeline).

    ``profile`` is the ``(occupancy_ns, shift_ns)`` split from
    :func:`calibrated_chip_profile`: occupancy is added to every
    service time (it contends for cores), the shift to every sojourn
    (NI pipeline stages overlapped with other requests). As in
    ``RpcValetSystem.run_point``, the warmup cutoff and throughput count
    every class, the summary only the ``slo_label`` class (if drawn).
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
    base, labels = workload.sample_batch(rngs.stream("service"), n)
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
    measured = departures > cutoff
    if len(set(labels)) > 1 and workload.slo_label in labels:
        measured &= np.array(labels) == workload.slo_label
    return SweepPoint(
        offered_load=float(offered_mrps),
        achieved_throughput=_achieved_mrps(departures, cutoff),
        summary=LatencySummary.from_values(sojourns[measured]),
        extra={
            "mean_service_ns": float(services.mean()),
            "stall_fraction": 0.0,
        },
    )
