"""Figure 8: hardware vs software 1×16 load balancing.

Both implement the theoretically optimal single-queue system; the
difference is dispatch. Hardware dispatch is NI-driven and
synchronization-free; software pulls from a shared queue under an MCS
lock, whose serialized hand-off caps dequeue throughput. The paper
reports 2.3–2.7× higher throughput under SLO for hardware across the
four synthetic distributions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import RpcValetSystem, make_system, sweep_many
from ..dists import SYNTHETIC_KINDS
from ..metrics import sweep_table
from .common import (
    ExperimentResult,
    calibrate_mean_service_ns,
    capacity_grid,
    get_profile,
)

__all__ = ["fig8_loads", "run_fig8"]


def fig8_loads(mean_service_ns: float, points: int) -> List[float]:
    """Fig. 8's offered loads (MRPS): the capacity grid of 16/S̄ plus
    two probe points just below the software dequeue ceiling.

    Software saturates at the MCS ceiling (~1/serialized cost), so the
    probes resolve its throughput under SLO instead of leaving it an
    artifact of the grid.
    """
    from ..balancing import SoftwareSingleQueue

    capacity_mrps = 16.0 / (mean_service_ns / 1e3)
    software_ceiling_mrps = 1e3 / SoftwareSingleQueue().serialized_cost_ns
    return sorted(
        capacity_grid(capacity_mrps, points)
        + [0.85 * software_ceiling_mrps, 0.95 * software_ceiling_mrps]
    )


def run_fig8(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """All four synthetic distributions, 1×16 hardware vs software."""
    prof = get_profile(profile)
    findings: List[str] = []
    ratios: Dict[str, float] = {}
    data: Dict[str, object] = {}

    # Calibrate S̄ / SLO once on the hardware fixed configuration; the
    # four synthetic workloads share the same mean.
    mean_service = calibrate_mean_service_ns("synthetic-fixed", "1x16", seed)
    slo_ns = 10.0 * mean_service
    loads = fig8_loads(mean_service, prof.sweep_points)

    # All 4 distributions × {hw, sw} fan out in one map_points call.
    systems: Dict[str, RpcValetSystem] = {}
    for kind in SYNTHETIC_KINDS:
        workload = f"synthetic-{kind}"
        for scheme, suffix in (("1x16", "hw"), ("sw-1x16", "sw")):
            systems[f"{kind}_{suffix}"] = make_system(scheme, workload, seed=seed)
    sweeps = sweep_many(
        systems,
        loads,
        num_requests=prof.arch_requests,
        workers=workers,
        experiment="fig8",
        failures=findings,
    )

    for kind in SYNTHETIC_KINDS:
        hw_tput = sweeps[f"{kind}_hw"].throughput_under_slo(slo_ns)
        sw_tput = sweeps[f"{kind}_sw"].throughput_under_slo(slo_ns)
        if sw_tput > 0:
            ratios[kind] = hw_tput / sw_tput
            findings.append(
                f"{kind}: hw {hw_tput:.2f} vs sw {sw_tput:.2f} MRPS under SLO "
                f"-> {ratios[kind]:.2f}x"
            )
        else:
            ratios[kind] = float("inf")
            findings.append(f"{kind}: software never meets the SLO")

    data["sweeps"] = sweeps
    data["ratios"] = ratios
    data["slo_ns"] = slo_ns
    data["mean_service_ns"] = mean_service
    return ExperimentResult(
        "fig8",
        f"1x16 hardware vs software (MCS lock), SLO={slo_ns / 1e3:.1f}µs",
        data=data,
        tables=[
            sweep_table(
                list(sweeps.values()),
                load_label="offered MRPS",
                title="p99 (ns) vs achieved throughput (MRPS)",
            )
        ],
        findings=findings,
    )
