"""``ext-datacenter``: in-network scheduling across a rack-of-racks.

The paper balances RPCs inside one 16-core chip; ``ext-rack`` and
``ext-scale`` lift the question to one rack. This experiment lifts it
one more level (:mod:`repro.datacenter`): a spine fabric connects
per-rack ToR routers, and the in-network scheduler designs from the
related work become composable models over the same cluster machinery:

* ``flat`` — the control: clients run power-of-d over *nodes* with no
  in-network help (the rack-layer policy, stretched across racks);
* ``racksched`` — RackSched-style two-layer scheduling: the spine
  picks a rack by aggregate outstanding signal, the ToR runs JSQ over
  its members;
* ``jbsq`` — RAIN-style bounded JBSQ(k): the same spine, but the ToR
  holds RPCs once every member is at the bound and late-binds them to
  the next freed slot (bounded per-server queues);
* ``nanopu`` — racksched routing on nanoPU-style NI-bypass nodes: a
  :class:`~repro.datacenter.NodeProfile` scales the NI pipeline and
  software dequeue costs to 1/4, calibrated by its own DES probe.

Rack *popularity* is Zipf-skewed (clients prefer hot racks — the
datacenter analogue of ``ext-rack``'s skewed destination draw), so the
spine's job is to absorb a hot rack before its members melt. The sweep
crosses hierarchy x spine policy at the main skew, walks a skew
ladder, prices a mixed-generation fleet (a quarter of the racks at 0.7x
speed — where capacity-aware SED wins), scales to 1024 nodes, and
replays a correlated whole-rack power loss through ``repro.faults``.

Engine-aware with default ``auto``: two-level routing is per-RPC state
(the ``hierarchy`` capability), so resolution lands on the vectorized
``fast`` tier at any node count — the fluid tier cannot express it and
explicitly requesting it raises. ``engine="des"`` runs everything on
the ground truth (:class:`~repro.datacenter.DatacenterRouter` over a
:class:`~repro.cluster.HierarchicalFabric`), sensible only for small
fleets. On quick/full, fast runs append a paired DES cross-check on a
sub-critical 16-node fleet — common random numbers per point, p50/p99
deltas tabulated, the worst gated in CI at the 15% band (the JBSQ DES
counterpart binds immediately, the k -> infinity limit, which is
exact sub-critically where the bound rarely binds). All points fan out
through :func:`repro.runner.map_points` under per-task seeds —
bit-identical output at any ``--workers`` count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics import format_table
from ..runner import map_points, task_seed
from .common import ExperimentResult, get_profile

__all__ = ["run_datacenter", "DC_FLEETS", "DC_MRPS", "DC_SKEW"]

#: Per-client offered load (MRPS). Node capacity is ~29 MRPS (16 cores
#: / S̄); 24 keeps the fleet sub-critical on average while a hot rack
#: under Zipf skew runs hot enough that spine policies separate.
DC_MRPS = 24.0

#: Main-table Zipf skew over rack popularity (hot-rack regime).
DC_SKEW = 0.6

#: Skew ladder rungs (flat client-side vs in-network two-layer).
DC_SKEWS = (0.0, 0.45, 0.9)

#: Spine policies crossed with every hierarchy in the main table.
DC_POLICIES = ("random", "jsq2", "sed")

#: Hierarchy models crossed with spine policies. ``nanopu`` is
#: racksched routing on a faster node profile, so it rides as a single
#: extra row instead of re-crossing every policy.
DC_HIERARCHIES = ("flat", "racksched", "jbsq")

#: Fleet shape per profile: (num_racks, rack_size).
DC_FLEETS: Dict[str, Tuple[int, int]] = {
    "smoke": (8, 8),
    "quick": (16, 16),
    "full": (32, 16),
}

#: Scale rungs (total nodes; 16 nodes/rack) appended on quick/full.
DC_SCALE_RUNGS: Dict[str, Tuple[int, ...]] = {
    "smoke": (),
    "quick": (1024,),
    "full": (512, 1024),
}

#: Mixed-generation fleet: this fraction of the racks runs at
#: OLD_SPEED x the baseline service rate.
OLD_RACK_FRACTION = 0.25
OLD_SPEED = 0.7

#: Correlated-failure scenario: rack 0 loses power at 35% of the
#: horizon and comes back at 65%.
FAULT_AT_FRACTION = 0.35
FAULT_OUTAGE_FRACTION = 0.3

#: DES cross-check fleet and operating point: small enough that the
#: DES is cheap, sub-critical so the JBSQ immediate-binding
#: approximation is exact (the bound never binds).
CHECK_RACKS = 4
CHECK_RACK_SIZE = 4
CHECK_MRPS = 20.0
CHECK_SKEW = 0.3
CHECK_REQUESTS = 600
CHECK_POINTS = (
    ("flat", "jsq2"),
    ("racksched", "jsq2"),
    ("racksched", "random"),
    ("jbsq", "jsq2"),
    ("nanopu", "jsq2"),
)


def _requests_per_node(base: int, num_nodes: int) -> int:
    """Hold the total event count near the base-fleet figure
    (the ext-scale recipe: constant aggregate sample size and cost).
    The floor is lower than ext-scale's 256 because the 1024-node
    rungs still aggregate >100k samples per point at 128."""
    return max(128, base * 16 // num_nodes)


#: One task: (key, num_racks, rack_size, old_racks, hierarchy, policy,
#: skew, mrps, requests, seed, tier, faulted).
_Task = Tuple[str, int, int, int, str, str, float, float, int, int, str, bool]


def _make_fault_plan(topology, mrps: float, requests: int):
    """The correlated scenario: rack 0's PDU trips mid-run."""
    from ..datacenter import rack_power_loss

    horizon_ns = requests / mrps * 1e3
    return rack_power_loss(
        topology,
        rack=0,
        at_ns=FAULT_AT_FRACTION * horizon_ns,
        outage_ns=FAULT_OUTAGE_FRACTION * horizon_ns,
    )


def _run_datacenter_task(task: _Task) -> Dict[str, object]:
    """One fleet point on one engine tier (pool-safe module function)."""
    from ..datacenter import DatacenterTopology

    (key, num_racks, rack_size, old_racks, hierarchy, policy, skew,
     mrps, requests, seed, tier, faulted) = task
    if old_racks:
        topology = DatacenterTopology.mixed_generations(
            num_racks, rack_size, old_racks=old_racks, old_speed=OLD_SPEED
        )
    else:
        topology = DatacenterTopology(num_racks, rack_size)
    faults = _make_fault_plan(topology, mrps, requests) if faulted else None

    audit: Optional[Dict[str, object]] = None
    if tier == "fast":
        from ..datacenter import simulate_datacenter_fast

        audit = {}
        result = simulate_datacenter_fast(
            topology,
            hierarchy=hierarchy,
            policy=policy,
            skew=skew,
            per_node_mrps=mrps,
            requests_per_node=requests,
            seed=seed,
            faults=faults,
            _audit=audit,
        )
    elif tier == "des":
        from ..balancing import SingleQueue
        from ..cluster import Cluster
        from ..datacenter import DatacenterRouter, node_profile

        # The nanopu hierarchy is racksched routing on the nanopu node
        # profile: the DES runs the profile's scaled chip config/costs,
        # the exact scenario the fast tier's probe calibrated against.
        profile = node_profile(
            "nanopu" if hierarchy == "nanopu" else topology.profile.name
        )
        cluster = Cluster(
            num_nodes=topology.num_nodes,
            scheme_factory=SingleQueue,
            config=profile.chip_config(),
            costs=profile.costs(),
            seed=seed,
            router=DatacenterRouter(
                topology, hierarchy=hierarchy, policy=policy, skew=skew
            ),
            fabric=topology.fabric(),
            speed_factors=list(topology.speed_factors),
            faults=faults,
        )
        result = cluster.run(per_node_mrps=mrps, requests_per_node=requests)
    else:
        raise ValueError(f"unknown tier {tier!r} for ext-datacenter")
    row: Dict[str, object] = {
        "key": key,
        "hierarchy": hierarchy,
        "policy": policy,
        "tier": tier,
        "p50_ns": float(result.aggregate.p50),
        "p99_ns": float(result.p99_ns),
        "mean_ns": float(result.aggregate.mean),
        "tput_mrps": float(result.total_throughput_mrps),
        "holds": int(audit["holds"]) if audit is not None else None,
        "max_outstanding": (
            int(audit["max_outstanding"]) if audit is not None else None
        ),
    }
    if faulted:
        # Client-side on both tiers: the DES ``result.completed`` also
        # counts executions whose reply the rack outage suppressed.
        row["offered"] = int(result.offered)
        row["completed"] = int(result.fault_stats.completed)
        row["lost"] = int(result.lost)
        row["goodput_mrps"] = float(result.goodput_mrps)
        # Per-node availability: the fleet mean (outage cost spread
        # over the whole fleet) and the min (the crashed rack itself).
        row["availability"] = (
            sum(result.availability) / len(result.availability)
            if result.availability
            else 1.0
        )
        row["availability_min"] = (
            min(result.availability) if result.availability else 1.0
        )
    return row


def _fmt_holds(row: Dict[str, object]) -> str:
    """ToR-hold column: count on the fast tier, "-" on the DES (the
    DES counterpart binds immediately; no holds exist to count)."""
    return "-" if row["holds"] is None else str(row["holds"])


def run_datacenter(
    profile: str = "quick",
    seed: int = 0,
    workers: Optional[int] = None,
    engine: str = "auto",
) -> ExperimentResult:
    """Sweep hierarchy x spine policy x skew x heterogeneity x faults.

    ``engine="auto"`` resolves through the capability matrix: the
    ``hierarchy`` capability pins it to the per-RPC tiers, so auto
    lands on ``fast`` at every fleet size (explicitly requesting
    ``fluid`` raises with the supported alternatives). ``engine="des"``
    runs the ground-truth router over the hierarchical fabric.
    """
    from ..fastpath import resolve_engine

    prof = get_profile(profile)
    num_racks, rack_size = DC_FLEETS.get(prof.name, DC_FLEETS["quick"])
    num_nodes = num_racks * rack_size
    base = max(prof.arch_requests // 2, 1_500)
    requests = _requests_per_node(base, num_nodes)
    resolved = resolve_engine(engine, num_nodes, hierarchy=True)

    tasks: List[_Task] = []
    labels: List[str] = []

    def _add(
        key: str,
        *,
        racks: int = num_racks,
        size: int = rack_size,
        old_racks: int = 0,
        hierarchy: str,
        policy: str,
        skew: float,
        tier: Optional[str] = None,
        faulted: bool = False,
    ) -> None:
        nodes = racks * size
        tasks.append(
            (
                key,
                racks,
                size,
                old_racks,
                hierarchy,
                policy,
                skew,
                DC_MRPS,
                _requests_per_node(base, nodes),
                task_seed("ext-datacenter", key, 0, seed),
                tier if tier is not None else resolved,
                faulted,
            )
        )
        labels.append(key)

    # 1. Main table: hierarchy x spine policy at the hot-rack skew,
    # plus the nanopu node-profile row.
    for hierarchy in DC_HIERARCHIES:
        for policy in DC_POLICIES:
            _add(f"main/{hierarchy}/{policy}", hierarchy=hierarchy,
                 policy=policy, skew=DC_SKEW)
    _add("main/nanopu/jsq2", hierarchy="nanopu", policy="jsq2", skew=DC_SKEW)

    # 2. Skew ladder: client-side flat vs in-network two-layer.
    for skew in DC_SKEWS:
        for hierarchy in ("flat", "racksched"):
            _add(f"skew/{hierarchy}/{skew:g}", hierarchy=hierarchy,
                 policy="jsq2", skew=skew)

    # 3. Mixed-generation fleet: capacity-aware SED vs load-only JSQ(2)
    # vs random, racksched hierarchy, no popularity skew (isolating the
    # speed heterogeneity).
    old_racks = max(1, int(num_racks * OLD_RACK_FRACTION))
    for policy in DC_POLICIES:
        _add(f"hetero/{policy}", old_racks=old_racks,
             hierarchy="racksched", policy=policy, skew=0.0)

    # 4. Scale rungs: does the two-layer advantage survive at 1024?
    rungs = DC_SCALE_RUNGS.get(prof.name, DC_SCALE_RUNGS["quick"])
    for nodes in rungs:
        for hierarchy in ("flat", "racksched"):
            _add(f"scale/{nodes}/{hierarchy}", racks=nodes // 16, size=16,
                 hierarchy=hierarchy, policy="jsq2", skew=DC_SKEW)

    # 5. Correlated whole-rack power loss (flat vs racksched): the
    # schedulers are deliberately not liveness-aware — a crashed rack
    # stops accruing outstanding work, so load-aware spines keep
    # steering into it and the drops measure that blind spot.
    for hierarchy in ("flat", "racksched"):
        _add(f"fault/{hierarchy}", hierarchy=hierarchy, policy="jsq2",
             skew=0.0, faulted=True)

    # 6. DES cross-check pairs on the small sub-critical fleet
    # (quick/full, fast runs only): common random numbers per pair.
    check = resolved == "fast" and prof.name != "smoke"
    if check:
        for hierarchy, policy in CHECK_POINTS:
            for tier in ("des", "fast"):
                key = f"check/{hierarchy}/{policy}/{tier}"
                tasks.append(
                    (
                        key,
                        CHECK_RACKS,
                        CHECK_RACK_SIZE,
                        0,
                        hierarchy,
                        policy,
                        CHECK_SKEW,
                        CHECK_MRPS,
                        CHECK_REQUESTS,
                        task_seed(
                            "ext-datacenter",
                            f"check/{hierarchy}/{policy}",
                            0,
                            seed,
                        ),
                        tier,
                        False,
                    )
                )
                labels.append(key)

    outcome = map_points(
        _run_datacenter_task,
        tasks,
        workers=workers,
        labels=labels,
        progress_label="ext-datacenter",
    )
    by_key: Dict[str, Dict[str, object]] = {}
    for task, row, wall_s in zip(tasks, outcome.results, outcome.task_wall_s):
        if row is None:
            raise RuntimeError(
                f"ext-datacenter point {task[0]!r} failed: "
                f"{outcome.findings()}"
            )
        row["wall_s"] = float(wall_s) if wall_s is not None else float("nan")
        by_key[task[0]] = row

    tables: List[str] = []
    findings: List[str] = []
    data: Dict[str, object] = {
        "fleet": {"num_racks": num_racks, "rack_size": rack_size,
                  "num_nodes": num_nodes},
        "engine": resolved,
        "points": by_key,
    }

    # 1. Main table (wall clocks ride below as strip-able " took "
    # lines, the repo's cross-worker determinism convention).
    main_rows = []
    wall_lines = []
    main_keys = [
        f"main/{hierarchy}/{policy}"
        for hierarchy in DC_HIERARCHIES
        for policy in DC_POLICIES
    ] + ["main/nanopu/jsq2"]
    for key in main_keys:
        row = by_key[key]
        main_rows.append(
            [row["hierarchy"], row["policy"], row["p50_ns"], row["p99_ns"],
             row["tput_mrps"], _fmt_holds(row)]
        )
        wall_lines.append(f"  [{key} took {row['wall_s']:.3f}s]")
    tables.append(
        format_table(
            ["hierarchy", "spine policy", "p50 (ns)", "p99 (ns)",
             "tput (MRPS)", "ToR holds"],
            main_rows,
            title=(
                f"{num_nodes}-node fleet ({num_racks} racks x {rack_size}),"
                f" {DC_MRPS:g} MRPS/client, rack skew {DC_SKEW:g}"
                f" (engine={resolved})"
            ),
        )
        + "\n"
        + "\n".join(wall_lines)
    )

    random_p99 = float(by_key["main/racksched/random"]["p99_ns"])
    jsq2_p99 = float(by_key["main/racksched/jsq2"]["p99_ns"])
    data["spine_advantage"] = random_p99 / jsq2_p99
    findings.append(
        f"a load-aware spine absorbs the hot rack: racksched+jsq2 p99 is "
        f"{random_p99 / jsq2_p99:.1f}x lower than racksched+random "
        f"({jsq2_p99:.0f} vs {random_p99:.0f} ns)"
    )
    nanopu_row = by_key["main/nanopu/jsq2"]
    racksched_row = by_key["main/racksched/jsq2"]
    data["nanopu_p50_ratio"] = (
        float(racksched_row["p50_ns"]) / float(nanopu_row["p50_ns"])
    )
    findings.append(
        f"nanopu NI-bypass nodes cut p50 {racksched_row['p50_ns']:.0f} -> "
        f"{nanopu_row['p50_ns']:.0f} ns "
        f"({data['nanopu_p50_ratio']:.2f}x) at identical routing"
    )
    jbsq_row = by_key["main/jbsq/jsq2"]
    findings.append(
        f"JBSQ(k) bounds per-server queues (max outstanding "
        f"{jbsq_row['max_outstanding'] if jbsq_row['max_outstanding'] is not None else '-'}"
        f", {_fmt_holds(jbsq_row)} ToR holds) at p99 within "
        f"{abs(float(jbsq_row['p99_ns']) / jsq2_p99 - 1.0):.1%} of "
        "unbounded racksched"
    )

    # 2. Skew ladder.
    skew_rows = []
    data["skew_ladder"] = {}
    for skew in DC_SKEWS:
        flat_row = by_key[f"skew/flat/{skew:g}"]
        two_row = by_key[f"skew/racksched/{skew:g}"]
        ratio = float(flat_row["p99_ns"]) / float(two_row["p99_ns"])
        data["skew_ladder"][f"{skew:g}"] = ratio
        skew_rows.append(
            [f"{skew:g}", flat_row["p99_ns"], two_row["p99_ns"],
             f"{ratio:.2f}x"]
        )
    tables.append(
        format_table(
            ["rack skew", "flat p99 (ns)", "racksched p99 (ns)",
             "flat/racksched"],
            skew_rows,
            title="Skew ladder: client-side power-of-2 vs in-network "
                  "two-layer (both jsq2)",
        )
    )
    top_skew = f"{DC_SKEWS[-1]:g}"
    findings.append(
        f"at skew {top_skew} the in-network two-layer holds a "
        f"{data['skew_ladder'][top_skew]:.2f}x p99 edge over client-side "
        "power-of-2 (the spine sees rack aggregates; clients see 2 nodes)"
    )

    # 3. Heterogeneity.
    hetero_rows = []
    data["hetero"] = {}
    for policy in DC_POLICIES:
        row = by_key[f"hetero/{policy}"]
        data["hetero"][policy] = float(row["p99_ns"])
        hetero_rows.append(
            [policy, row["p50_ns"], row["p99_ns"], row["tput_mrps"]]
        )
    tables.append(
        format_table(
            ["spine policy", "p50 (ns)", "p99 (ns)", "tput (MRPS)"],
            hetero_rows,
            title=(
                f"Mixed-generation fleet: {old_racks}/{num_racks} racks at "
                f"{OLD_SPEED:g}x speed (racksched, skew 0)"
            ),
        )
    )
    findings.append(
        f"on the mixed-generation fleet capacity-aware sed holds p99 to "
        f"{data['hetero']['sed']:.0f} ns vs {data['hetero']['jsq2']:.0f} "
        f"(jsq2) and {data['hetero']['random']:.0f} (random) — "
        "slow racks need weighting, not just load counts"
    )

    # 4. Scale rungs.
    if rungs:
        scale_rows = []
        scale_walls = []
        data["scale"] = {}
        for nodes in rungs:
            flat_row = by_key[f"scale/{nodes}/flat"]
            two_row = by_key[f"scale/{nodes}/racksched"]
            ratio = float(flat_row["p99_ns"]) / float(two_row["p99_ns"])
            data["scale"][str(nodes)] = ratio
            scale_rows.append(
                [nodes, flat_row["p99_ns"], two_row["p99_ns"],
                 f"{ratio:.2f}x"]
            )
            for hierarchy in ("flat", "racksched"):
                row = by_key[f"scale/{nodes}/{hierarchy}"]
                scale_walls.append(
                    f"  [scale/{nodes}/{hierarchy} took "
                    f"{row['wall_s']:.3f}s]"
                )
        tables.append(
            format_table(
                ["nodes", "flat p99 (ns)", "racksched p99 (ns)",
                 "flat/racksched"],
                scale_rows,
                title=(
                    f"Scale rungs at skew {DC_SKEW:g} (jsq2; "
                    "16 nodes/rack)"
                ),
            )
            + "\n"
            + "\n".join(scale_walls)
        )
        top = rungs[-1]
        findings.append(
            f"the two-layer advantage survives at {top} nodes: "
            f"{data['scale'][str(top)]:.2f}x lower p99 than flat "
            "client-side routing"
        )

    # 5. Correlated rack failure.
    fault_rows = []
    data["faults"] = {}
    for hierarchy in ("flat", "racksched"):
        row = by_key[f"fault/{hierarchy}"]
        conserved = row["offered"] == row["completed"] + row["lost"]
        data["faults"][hierarchy] = {
            "offered": row["offered"],
            "completed": row["completed"],
            "lost": row["lost"],
            "availability": row["availability"],
            "availability_min": row["availability_min"],
            "goodput_mrps": row["goodput_mrps"],
            "conserved": conserved,
        }
        if not conserved:
            raise RuntimeError(
                f"ext-datacenter fault/{hierarchy} violates conservation: "
                f"offered {row['offered']} != completed {row['completed']} "
                f"+ lost {row['lost']}"
            )
        fault_rows.append(
            [hierarchy, row["offered"], row["completed"], row["lost"],
             f"{row['availability']:.4f}", row["goodput_mrps"]]
        )
    tables.append(
        format_table(
            ["hierarchy", "offered", "completed", "lost", "availability",
             "goodput (MRPS)"],
            fault_rows,
            title=(
                f"Whole-rack power loss (rack 0 down for "
                f"{FAULT_OUTAGE_FRACTION:.0%} of the run; jsq2, skew 0)"
            ),
        )
    )
    fault_two = data["faults"]["racksched"]
    findings.append(
        f"a correlated rack outage conserves work (offered = completed + "
        f"lost) and costs racksched {fault_two['lost']} RPCs "
        f"(availability {fault_two['availability']:.4f}) — the dead rack "
        "stops accruing outstanding work, so the load-aware spine keeps "
        "steering into it"
    )

    # 6. DES cross-check.
    if check:
        check_rows = []
        check_walls = []
        deltas: Dict[str, Dict[str, float]] = {}
        for hierarchy, policy in CHECK_POINTS:
            des_row = by_key[f"check/{hierarchy}/{policy}/des"]
            fast_row = by_key[f"check/{hierarchy}/{policy}/fast"]
            p50_delta = float(fast_row["p50_ns"]) / float(des_row["p50_ns"]) - 1.0
            p99_delta = float(fast_row["p99_ns"]) / float(des_row["p99_ns"]) - 1.0
            label = f"{hierarchy}+{policy}"
            deltas[label] = {"p50_delta": p50_delta, "p99_delta": p99_delta}
            check_rows.append(
                [label, des_row["p50_ns"], fast_row["p50_ns"],
                 f"{p50_delta:+.1%}", des_row["p99_ns"], fast_row["p99_ns"],
                 f"{p99_delta:+.1%}"]
            )
            check_walls.append(
                f"  [check/{label} des took {des_row['wall_s']:.3f}s, "
                f"fast took {fast_row['wall_s']:.3f}s]"
            )
        worst = max(
            max(abs(entry["p50_delta"]), abs(entry["p99_delta"]))
            for entry in deltas.values()
        )
        data["des_check"] = {
            "fleet": {"num_racks": CHECK_RACKS, "rack_size": CHECK_RACK_SIZE},
            "deltas": deltas,
            "worst_abs_delta": worst,
        }
        tables.append(
            format_table(
                ["hierarchy+policy", "des p50 (ns)", "fast p50 (ns)",
                 "p50 delta", "des p99 (ns)", "fast p99 (ns)", "p99 delta"],
                check_rows,
                title=(
                    f"Ground-truth cross-check on a sub-critical "
                    f"{CHECK_RACKS * CHECK_RACK_SIZE}-node fleet "
                    "(common random numbers)"
                ),
            )
            + "\n"
            + "\n".join(check_walls)
        )
        findings.append(
            f"fast-vs-des p50/p99 agreement across hierarchies is within "
            f"{worst:.1%} on the sub-critical cross-check fleet"
        )
    if resolved != "des":
        findings.append(
            f"engine={resolved}: the fast tier's shared sequential loop "
            "driving the DES's scheduler objects (ground truth: "
            "--engine des)"
        )

    return ExperimentResult(
        "ext-datacenter",
        "Rack-of-racks hierarchy: in-network scheduler models "
        "(flat / racksched / jbsq / nanopu)",
        data=data,
        tables=tables,
        findings=findings,
    )
