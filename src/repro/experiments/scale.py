"""``ext-scale``: rack-size sweep 16 -> 1024 nodes across engine tiers.

The DES prices every NI pipeline stage of every RPC, which caps it at a
few nodes; the point of the tiered core (:mod:`repro.fastpath`) is that
rack-scale questions — does the JSQ(2) advantage survive at 1024
nodes? — become answerable in seconds. This driver sweeps node count
with ``engine="auto"``: the vectorized ``fast`` tier up to
:data:`~repro.fastpath.DEFAULT_FLUID_THRESHOLD` nodes, the mean-field
``fluid`` tier above, and reports per-point wall clock alongside the
latency figures so the cost/fidelity trade is visible in the output.

Two built-in checks keep the tiers honest:

* **tier agreement** — at the largest node count below the fluid
  threshold, every policy runs on *both* tiers and the p50/p99 deltas
  are tabulated (the fluid error shrinks as 1/K, so this is its worst
  overlapping point);
* **DES cross-check** (quick/full profiles only) — the smallest rack
  also runs on the ground-truth DES, pinning the fast tier's
  calibration drift at exactly the scale where DES is still tractable.

A **shaped-load ladder** rides along: the same policies under a
diurnal cycle (mean :data:`SHAPED_MRPS` MRPS/node, peak 1.6x), one
rung per side of the tier threshold — the fast tier samples the
nonhomogeneous process per RPC, the fluid tier integrates the
transient mean-field ODE against the profile's λ(t). This is the
"256-node diurnal point in under a second per policy" headline of the
tiered engine work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics import format_table
from ..runner import map_points, task_seed
from .common import ExperimentResult, get_profile, tier_check

__all__ = ["run_scale", "NODE_GRIDS", "DES_MAX_NODES"]

#: Per-node offered load for every point (same mid-load operating
#: point as ``ext-rack``: queues form, nothing saturates).
SCALE_MRPS = 24.0

#: Routing policies swept at every rack size.
SCALE_POLICIES = ("random", "jsq2")

#: Node-count grids per profile. Every grid ends at 1024 — the
#: "1000-node rack point in seconds" the fluid tier exists for.
NODE_GRIDS: Dict[str, Tuple[int, ...]] = {
    "smoke": (16, 64, 1024),
    "quick": (16, 64, 128, 256, 1024),
    "full": (16, 32, 64, 128, 256, 512, 1024),
}

#: Largest rack this driver runs on the DES. The auto cross-check uses
#: the smallest rung (16 nodes); a forced ``--engine des`` would also
#: put the 256- and 1024-node rungs on it, which ran for minutes past
#: 1.4 GB at smoke, so such a request is refused before any point runs.
DES_MAX_NODES = 64

#: Shaped-load ladder: mean per-node rate under a diurnal cycle whose
#: peak (1.6x) stays below the ~29 MRPS per-node capacity, so the rack
#: breathes without saturating. One fast-tier rung and one
#: fluid-transient rung straddle the auto threshold.
SHAPED_MRPS = 14.0
SHAPED_AMPLITUDE = 0.6
SHAPED_NODES: Dict[str, Tuple[int, ...]] = {
    "smoke": (64, 256),
    "quick": (64, 256),
    "full": (64, 256, 1024),
}


def _shaped_process(mrps: float, requests: int):
    """Diurnal arrival process for one shaped rung (per-node rate)."""
    from ..popload import DiurnalRate, NonhomogeneousPoisson

    horizon_ns = requests / mrps * 1e3
    return NonhomogeneousPoisson(
        DiurnalRate(
            mean_rate_rps=mrps * 1e6,
            relative_amplitude=SHAPED_AMPLITUDE,
            period_ns=horizon_ns,
        )
    )


def _requests_per_node(base: int, num_nodes: int) -> int:
    """Shrink per-node horizon as the rack grows.

    The fast tier's cost is ~(nodes x requests); holding the *total*
    event count near the 16-node figure keeps every point comparable
    in confidence (aggregate sample size is constant) and in cost. The
    fluid tier ignores the horizon entirely.
    """
    return max(256, base * 16 // num_nodes)


def _run_scale_task(task) -> Dict[str, object]:
    """One rack point on one engine tier (pool-safe).

    A 7-tuple task is a stationary point; an 8th truthy element marks
    a shaped-ladder rung, which swaps the Poisson stream for the
    diurnal process of :func:`_shaped_process` on every tier (the
    fluid tier integrates the transient mean-field ODE against its
    λ(t); the per-RPC tiers sample the process itself).
    """
    key, num_nodes, policy, mrps, requests, seed, tier = task[:7]
    shaped = bool(task[7]) if len(task) > 7 else False
    process = _shaped_process(mrps, requests) if shaped else None
    if tier == "fluid":
        from ..fastpath import calibrated_scheme_profile, simulate_cluster_fluid
        from ..workloads import HerdWorkload

        workload = HerdWorkload()
        overhead_ns, _shift = calibrated_scheme_profile("1x16", 16)
        result = simulate_cluster_fluid(
            num_nodes,
            policy=policy,
            per_node_mrps=mrps,
            requests_per_node=requests,
            cores=16,
            mean_service_ns=workload.mean_processing_ns + overhead_ns,
            seed=seed,
            workload=workload,
            overhead_ns=overhead_ns,
            arrival_process=process,
            horizon_ns=requests / mrps * 1e3 if shaped else None,
        )
    elif tier == "fast":
        from ..fastpath import simulate_rack_fast

        result = simulate_rack_fast(
            num_nodes,
            policy=policy,
            per_node_mrps=mrps,
            requests_per_node=requests,
            seed=seed,
            arrival_process=process,
        )
    elif tier == "des":
        from ..balancing import SingleQueue
        from ..cluster import Cluster
        from ..rack import RackRouter

        cluster = Cluster(
            num_nodes=num_nodes,
            scheme_factory=SingleQueue,
            seed=seed,
            router=RackRouter(policy, "fresh"),
            arrival_process=process,
        )
        result = cluster.run(per_node_mrps=mrps, requests_per_node=requests)
    else:
        raise ValueError(f"unknown tier {tier!r}")
    return {
        "key": key,
        "nodes": num_nodes,
        "policy": policy,
        "tier": tier,
        "requests_per_node": requests,
        "p50_ns": float(result.aggregate.p50),
        "p99_ns": float(result.p99_ns),
        "mean_ns": float(result.aggregate.mean),
        "tput_mrps": float(result.total_throughput_mrps),
    }


def run_scale(
    profile: str = "quick",
    seed: int = 0,
    workers: Optional[int] = None,
    engine: str = "auto",
) -> ExperimentResult:
    """Node-count sweep with per-point engine selection and wall clocks.

    ``engine="auto"`` (the default, and the point of the experiment)
    picks the tier per rack size. Forcing ``fast`` or ``fluid`` runs
    the whole grid on that tier. Every grid ends at 1024 nodes, so a
    forced ``des`` (by argument or ``REPRO_ENGINE``) raises
    ``ValueError`` before anything runs: the DES runs rungs of at most
    :data:`DES_MAX_NODES` nodes here.
    """
    from ..fastpath import DEFAULT_FLUID_THRESHOLD, resolve_engine

    prof = get_profile(profile)
    base = max(prof.arch_requests // 2, 1_500)
    grid = NODE_GRIDS.get(prof.name, NODE_GRIDS["quick"])

    tasks: List[tuple] = []

    def _add(num_nodes: int, policy: str, tier: str) -> None:
        key = f"{num_nodes}/{policy}/{tier}"
        tasks.append(
            (
                key,
                num_nodes,
                policy,
                SCALE_MRPS,
                _requests_per_node(base, num_nodes),
                task_seed("ext-scale", key, 0, seed),
                tier,
            )
        )

    for num_nodes in grid:
        tier = resolve_engine(engine, num_nodes)
        for policy in SCALE_POLICIES:
            _add(num_nodes, policy, tier)

    # Tier-agreement overlap: both tiers at the largest sub-threshold
    # rack (only meaningful when auto would actually switch tiers).
    overlap_nodes = max(
        (n for n in grid if n <= DEFAULT_FLUID_THRESHOLD), default=None
    )
    if engine == "auto" and overlap_nodes is not None:
        for policy in SCALE_POLICIES:
            for tier in ("fast", "fluid"):
                if f"{overlap_nodes}/{policy}/{tier}" not in (
                    task[0] for task in tasks
                ):
                    _add(overlap_nodes, policy, tier)

    # DES cross-check at the smallest rack, skipped on smoke (it costs
    # more than the rest of the sweep combined).
    des_nodes = grid[0] if (prof.name != "smoke" and engine == "auto") else None
    if des_nodes is not None:
        for policy in SCALE_POLICIES:
            _add(des_nodes, policy, "des")

    # Shaped-load ladder: the same policies under a diurnal cycle, one
    # rung per side of the tier threshold. Resolution is
    # capability-aware — a deterministic-intensity profile runs on any
    # tier, so auto still picks by node count.
    shaped_grid = SHAPED_NODES.get(prof.name, SHAPED_NODES["quick"])
    shaped_probe = _shaped_process(SHAPED_MRPS, 1024)
    for num_nodes in shaped_grid:
        tier = resolve_engine(engine, num_nodes, arrival_process=shaped_probe)
        for policy in SCALE_POLICIES:
            key = f"shaped/{num_nodes}/{policy}/{tier}"
            tasks.append(
                (
                    key,
                    num_nodes,
                    policy,
                    SHAPED_MRPS,
                    _requests_per_node(base, num_nodes),
                    task_seed("ext-scale", key, 0, seed),
                    tier,
                    True,
                )
            )

    too_big = [task[0] for task in tasks if task[6] == "des" and task[1] > DES_MAX_NODES]
    if too_big:
        raise ValueError(
            f"ext-scale runs the DES on racks of at most {DES_MAX_NODES} nodes, but "
            f"engine={engine!r} puts these rungs on it: {', '.join(too_big)}. Use "
            "--engine auto (fast/fluid tiers, with a DES cross-check at the smallest "
            "rack on quick and full) or --engine fast, and unset REPRO_ENGINE if it "
            "forces des"
        )

    outcome = map_points(
        _run_scale_task,
        tasks,
        workers=workers,
        labels=[task[0] for task in tasks],
        progress_label="ext-scale",
    )
    by_key: Dict[str, Dict[str, object]] = {}
    for task, row, wall_s in zip(
        tasks, outcome.require("ext-scale"), outcome.task_wall_s
    ):
        row["wall_s"] = float(wall_s) if wall_s is not None else float("nan")
        by_key[task[0]] = row

    tables: List[str] = []
    findings: List[str] = []
    data: Dict[str, object] = {
        "grid": list(grid),
        "points": by_key,
        "engine": engine,
    }

    # 1. The sweep itself. Wall clocks ride below the table as
    # "... took ...s" lines: the repo's determinism contract is that
    # driver stdout diffs clean across worker counts once lines
    # containing " took " are stripped, and timings are the one
    # legitimately non-deterministic output.
    sweep_rows = []
    wall_lines = []
    for num_nodes in grid:
        tier = resolve_engine(engine, num_nodes)
        for policy in SCALE_POLICIES:
            row = by_key[f"{num_nodes}/{policy}/{tier}"]
            sweep_rows.append(
                [num_nodes, policy, tier, row["p99_ns"], row["mean_ns"],
                 row["tput_mrps"]]
            )
            wall_lines.append(
                f"  [{num_nodes}/{policy} on {tier} "
                f"took {row['wall_s']:.3f}s]"
            )
    tables.append(
        format_table(
            ["nodes", "policy", "engine", "p99 (ns)", "mean (ns)",
             "tput (MRPS)"],
            sweep_rows,
            title=(
                f"Rack-size sweep at {SCALE_MRPS:g} MRPS/node "
                f"(engine={engine})"
            ),
        )
        + "\n"
        + "\n".join(wall_lines)
    )

    largest = grid[-1]
    largest_tier = resolve_engine(engine, largest)
    largest_wall = max(
        float(by_key[f"{largest}/{policy}/{largest_tier}"]["wall_s"])
        for policy in SCALE_POLICIES
    )
    data["largest_nodes"] = largest
    data["largest_point_wall_s"] = largest_wall
    findings.append(
        f"the {largest}-node rack point took {largest_wall:.2f}s per "
        f"policy on the {largest_tier} tier"
    )
    random_p99 = float(by_key[f"{largest}/random/{largest_tier}"]["p99_ns"])
    jsq2_p99 = float(by_key[f"{largest}/jsq2/{largest_tier}"]["p99_ns"])
    data["advantage_at_largest"] = random_p99 / jsq2_p99
    findings.append(
        f"the JSQ(2) advantage persists at {largest} nodes: "
        f"{random_p99 / jsq2_p99:.2f}x lower p99 than random spray "
        f"({jsq2_p99:.0f} vs {random_p99:.0f} ns)"
    )

    # 2. Tier agreement at the overlap rack size.
    if engine == "auto" and overlap_nodes is not None:
        table, overlap, finding = tier_check(
            [
                (f"{overlap_nodes}/{policy}",
                 by_key[f"{overlap_nodes}/{policy}/fast"],
                 by_key[f"{overlap_nodes}/{policy}/fluid"])
                for policy in SCALE_POLICIES
            ],
            "fast",
            "fluid",
            f"Tier agreement at {overlap_nodes} nodes (fluid's worst "
            "overlapping size; error shrinks as 1/K)",
        )
        overlap["nodes"] = overlap_nodes
        data["overlap"] = overlap
        tables.append(table)
        findings.append(finding)

    # 3. DES cross-check on the smallest rack (quick/full).
    if des_nodes is not None:
        small_tier = resolve_engine(engine, des_nodes)
        table, des_check, finding = tier_check(
            [
                (f"{des_nodes}/{policy}",
                 by_key[f"{des_nodes}/{policy}/des"],
                 by_key[f"{des_nodes}/{policy}/{small_tier}"])
                for policy in SCALE_POLICIES
            ],
            "des",
            small_tier,
            f"Ground-truth cross-check at {des_nodes} nodes",
        )
        des_check["nodes"] = des_nodes
        data["des_check"] = des_check
        tables.append(table)
        findings.append(finding)

    # 4. Shaped-load ladder: diurnal arrivals across the tier seam.
    shaped_rows = []
    shaped_walls = []
    data["shaped"] = {}
    for num_nodes in shaped_grid:
        tier = resolve_engine(engine, num_nodes, arrival_process=shaped_probe)
        for policy in SCALE_POLICIES:
            row = by_key[f"shaped/{num_nodes}/{policy}/{tier}"]
            data["shaped"][f"{num_nodes}/{policy}"] = {
                "tier": tier,
                "p99_ns": row["p99_ns"],
                "mean_ns": row["mean_ns"],
                "wall_s": row["wall_s"],
            }
            shaped_rows.append(
                [num_nodes, policy, tier, row["p99_ns"], row["mean_ns"],
                 row["tput_mrps"]]
            )
            shaped_walls.append(
                f"  [shaped/{num_nodes}/{policy} on {tier} "
                f"took {row['wall_s']:.3f}s]"
            )
    tables.append(
        format_table(
            ["nodes", "policy", "engine", "p99 (ns)", "mean (ns)",
             "tput (MRPS)"],
            shaped_rows,
            title=(
                f"Shaped-load ladder: diurnal cycle at {SHAPED_MRPS:g} "
                f"MRPS/node mean (peak {1 + SHAPED_AMPLITUDE:g}x, "
                f"engine={engine})"
            ),
        )
        + "\n"
        + "\n".join(shaped_walls)
    )
    top_shaped = shaped_grid[-1]
    top_tier = resolve_engine(engine, top_shaped, arrival_process=shaped_probe)
    top_wall = max(
        float(data["shaped"][f"{top_shaped}/{policy}"]["wall_s"])
        for policy in SCALE_POLICIES
    )
    findings.append(
        f"the {top_shaped}-node diurnal point took {top_wall:.2f}s per "
        f"policy on the {top_tier} tier"
    )

    return ExperimentResult(
        "ext-scale",
        "Rack-size scaling across engine tiers (fast -> fluid)",
        data=data,
        tables=tables,
        findings=findings,
    )
