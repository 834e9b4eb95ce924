"""``ext-rack``: two-level scheduling — policy x staleness x skew x scheme.

RPCValet answers the intra-server question (single-queue NI dispatch).
This driver asks the rack-level follow-on RackSched (OSDI'20) and RAIN
(2025) pose: when a *client-side* policy routes each RPC to one of K
RPCValet servers using (possibly stale) load signals, which policies
win, how fast does staleness destroy them, and does the paper's 1x16
per-node dispatch still matter?

Five probes, all on the :mod:`repro.cluster` substrate via
:class:`repro.rack.RackRouter`, fanned through the parallel runner with
deterministic per-scenario seeds:

1. **policy** — uniform random vs round-robin vs JSQ(2) vs SED with
   oracle-fresh signals on a homogeneous rack;
2. **staleness ladder** — JSQ(2) under fresh → piggybacked-on-replies →
   2µs broadcast → 10µs broadcast signals, against the
   staleness-immune random baseline;
3. **hot shard** — Zipf destination skew vs each policy (the scenario
   that breaks random spray);
4. **heterogeneous rack** — one node with half the cores; SED's
   capacity-awareness vs JSQ's obliviousness;
5. **per-node scheme** — 1x16 vs 16x1 inside each server, crossed with
   dumb/smart routing: the paper's intra-server claim at rack scale.

Every cluster run is telemetry-instrumented (per-node outstanding-load
series, router decision counters, staleness-error histograms); the
merged snapshot rides ``data["telemetry"]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics import cross_node_imbalance, format_table, slowdown_factors
from ..runner import map_points, task_seed
from .common import ExperimentResult, get_profile

__all__ = ["run_rack"]

#: Rack size for every scenario.
NUM_NODES = 4

#: Mid-load operating point: ~80% of a 16-core node's ~30 MRPS HERD
#: saturation — queues form, but neither scheme saturates.
MID_LOAD_MRPS = 24.0

#: The heterogeneous rack runs at a rate the weak node can only survive
#: with capacity-aware routing.
HETERO_MRPS = 21.0

#: Core asymmetry: node 3 has half the cores.
HETERO_CORES = (16, 16, 16, 8)

#: Zipf exponent of the hot-shard scenario.
HOT_SKEW = 1.2

#: The staleness ladder, freshest first. Advantage over random routing
#: must erode monotonically down this list (asserted in tests).
STALENESS_LADDER = ("fresh", "piggyback", "broadcast:2000", "broadcast:10000")

#: One scenario: (key, policy, signal, skew, scheme, core_counts, mrps).
_Scenario = Tuple[str, str, str, float, str, Optional[Tuple[int, ...]], float]


def _scenarios(mrps: float = MID_LOAD_MRPS) -> List[_Scenario]:
    rows: List[_Scenario] = []
    for policy in ("random", "rr", "jsq2", "sed"):
        rows.append((f"policy/{policy}", policy, "fresh", 0.0, "1x16", None, mrps))
    for signal in STALENESS_LADDER[1:]:
        rows.append((f"ladder/{signal}", "jsq2", signal, 0.0, "1x16", None, mrps))
    for policy in ("random", "jsq2", "sed"):
        rows.append((f"skew/{policy}", policy, "fresh", HOT_SKEW, "1x16", None, mrps))
    for policy in ("random", "jsq2", "sed"):
        rows.append(
            (f"hetero/{policy}", policy, "fresh", 0.0, "1x16", HETERO_CORES,
             HETERO_MRPS)
        )
    for policy in ("random", "jsq2"):
        rows.append(
            (f"scheme/16x1/{policy}", policy, "fresh", 0.0, "16x1", None, mrps)
        )
    return rows


def _run_rack_task(task) -> Dict[str, object]:
    """One cluster run under one rack-scheduling scenario (pool-safe).

    A 10th tuple element selects the engine ("des"/"fast"); 9-tuples
    run the DES, so pre-engine task fingerprints (and their cached
    results) stay valid.
    """
    (key, policy, signal, skew, scheme, core_counts, mrps, requests, seed) = task[
        :9
    ]
    engine = task[9] if len(task) > 9 else "des"
    if engine == "fast":
        from ..fastpath import simulate_rack_fast

        result = simulate_rack_fast(
            NUM_NODES,
            policy=policy,
            signal=signal,
            skew=skew,
            scheme=scheme,
            core_counts=list(core_counts) if core_counts else None,
            per_node_mrps=mrps,
            requests_per_node=requests,
            seed=seed,
            telemetry=True,
        )
        return _rack_row(key, result)
    from ..balancing import Partitioned, SingleQueue
    from ..cluster import Cluster
    from ..rack import RackRouter

    factory = {"1x16": SingleQueue, "16x1": Partitioned}[scheme]
    cluster = Cluster(
        num_nodes=NUM_NODES,
        scheme_factory=factory,
        seed=seed,
        router=RackRouter(policy, signal, skew=skew),
        core_counts=list(core_counts) if core_counts else None,
        telemetry=True,
    )
    result = cluster.run(per_node_mrps=mrps, requests_per_node=requests)
    return _rack_row(key, result)


def _rack_row(key: str, result) -> Dict[str, object]:
    """The driver's per-scenario row, engine-agnostic."""
    stats = result.router_stats
    load_imbalance = cross_node_imbalance(
        [count or 1e-12 for count in result.per_node_completed]
    )
    return {
        "key": key,
        "p99_ns": result.p99_ns,
        "mean_ns": result.aggregate.mean,
        "tput_mrps": result.total_throughput_mrps,
        "latency_imbalance": result.imbalance(),
        "slowdowns": slowdown_factors(
            [summary.p99 for summary in result.per_node]
        ),
        "load_cv": load_imbalance.cv,
        "max_stall": max(result.stall_fractions),
        "routed": stats.routed_fractions(),
        "signal_error": stats.mean_signal_error,
        "telemetry": result.telemetry,
    }


def run_rack(
    profile: str = "quick",
    seed: int = 0,
    workers: Optional[int] = None,
    engine: str = "fast",
) -> ExperimentResult:
    """Two-level scheduling sweep across RPCValet servers.

    ``engine`` selects the simulation tier (see EXPERIMENTS.md "Engine
    tiers"): ``fast`` (default) runs the DES-calibrated vectorized
    engine, ``des`` the bit-identical ground-truth tier. ``auto``
    resolves by rack size; the fluid tier has no stale-signal or
    hot-shard model, so it falls back to ``fast`` here.
    """
    from ..fastpath import resolve_engine
    from ..telemetry import merge_snapshots

    resolved = resolve_engine(engine, NUM_NODES)
    if resolved == "fluid":
        resolved = "fast"
    prof = get_profile(profile)
    requests = max(prof.arch_requests // 2, 1_500)
    scenarios = _scenarios()
    tasks = []
    for key, policy, signal, skew, scheme, cores, mrps in scenarios:
        task = (key, policy, signal, skew, scheme, cores, mrps, requests,
                task_seed("ext-rack", key, 0, seed))
        if resolved != "des":
            # Engine rides as a 10th element so DES fingerprints (and
            # their cached results) are unchanged from earlier versions.
            task = task + (resolved,)
        tasks.append(task)
    outcome = map_points(
        _run_rack_task,
        tasks,
        workers=workers,
        labels=[task[0] for task in tasks],
        progress_label="ext-rack",
    )
    by_key: Dict[str, Dict[str, object]] = {}
    for task, row in zip(tasks, outcome.require("ext-rack")):
        by_key[task[0]] = row

    tables: List[str] = []
    findings: List[str] = []
    data: Dict[str, object] = {}

    # 1. Policies under oracle-fresh signals.
    policy_rows = []
    data["policies"] = {}
    for policy in ("random", "rr", "jsq2", "sed"):
        row = by_key[f"policy/{policy}"]
        data["policies"][policy] = row
        policy_rows.append(
            [policy, row["tput_mrps"], row["p99_ns"], row["load_cv"],
             row["max_stall"]]
        )
    tables.append(
        format_table(
            ["policy", "tput (MRPS)", "p99 (ns)", "load cv", "stalls"],
            policy_rows,
            title=(
                f"Inter-server policy, fresh signals — {NUM_NODES} nodes x "
                f"16 cores at {MID_LOAD_MRPS:g} MRPS each (HERD)"
            ),
        )
    )
    random_p99 = float(by_key["policy/random"]["p99_ns"])
    jsq2_p99 = float(by_key["policy/jsq2"]["p99_ns"])
    fresh_advantage = random_p99 / jsq2_p99
    findings.append(
        f"fresh JSQ(2) beats uniform-random routing at the mid-load point: "
        f"{fresh_advantage:.2f}x lower cluster-wide p99 "
        f"({jsq2_p99:.0f} vs {random_p99:.0f} ns)"
    )

    # 2. Staleness ladder: JSQ(2) advantage over random per signal model.
    ladder = []
    for signal in STALENESS_LADDER:
        row = by_key["policy/jsq2" if signal == "fresh" else f"ladder/{signal}"]
        ladder.append(
            {
                "signal": signal,
                "jsq2_p99_ns": float(row["p99_ns"]),
                "random_p99_ns": random_p99,
                "advantage": random_p99 / float(row["p99_ns"]),
                "signal_error": float(row["signal_error"]),
                "max_stall": float(row["max_stall"]),
            }
        )
    data["ladder"] = ladder
    tables.append(
        format_table(
            ["load signal", "jsq2 p99 (ns)", "advantage vs random",
             "mean |est - true|", "stalls"],
            [
                [entry["signal"], entry["jsq2_p99_ns"], entry["advantage"],
                 entry["signal_error"], entry["max_stall"]]
                for entry in ladder
            ],
            title="Signal staleness vs the JSQ(2) advantage (random = 1.0x)",
        )
    )
    findings.append(
        "staleness monotonically erodes the JSQ(2) advantage: "
        + " -> ".join(
            f"{entry['signal']} {entry['advantage']:.2f}x" for entry in ladder
        )
        + " — stale signals herd the rack onto whichever node looked idle"
    )

    # 3. Hot-shard destination skew.
    skew_rows = []
    data["skew"] = {}
    for policy in ("random", "jsq2", "sed"):
        row = by_key[f"skew/{policy}"]
        data["skew"][policy] = row
        skew_rows.append(
            [policy, row["p99_ns"], row["routed"][0], row["max_stall"]]
        )
    tables.append(
        format_table(
            ["policy", "p99 (ns)", "hot-node share", "stalls"],
            skew_rows,
            title=f"Zipf({HOT_SKEW:g}) destination popularity (node 0 hot)",
        )
    )
    findings.append(
        f"under Zipf({HOT_SKEW:g}) skew random spray overloads the hot shard "
        f"(p99 {data['skew']['random']['p99_ns']:.0f} ns, "
        f"{data['skew']['random']['max_stall']:.0%} sender stalls) while "
        f"load-aware routing absorbs it "
        f"(JSQ(2) p99 {data['skew']['jsq2']['p99_ns']:.0f} ns)"
    )

    # 4. Heterogeneous rack.
    hetero_rows = []
    data["hetero"] = {}
    for policy in ("random", "jsq2", "sed"):
        row = by_key[f"hetero/{policy}"]
        data["hetero"][policy] = row
        hetero_rows.append(
            [policy, row["p99_ns"], row["routed"][-1],
             row["latency_imbalance"]]
        )
    tables.append(
        format_table(
            ["policy", "p99 (ns)", "weak-node share", "latency imbalance"],
            hetero_rows,
            title=(
                f"Asymmetric rack {list(HETERO_CORES)} cores at "
                f"{HETERO_MRPS:g} MRPS/node"
            ),
        )
    )
    findings.append(
        "on an asymmetric rack capacity-aware SED routes the weak node "
        f"{data['hetero']['sed']['routed'][-1]:.0%} of traffic and keeps "
        f"latency imbalance at "
        f"{data['hetero']['sed']['latency_imbalance']:.2f}x, vs "
        f"{data['hetero']['random']['latency_imbalance']:.1f}x under "
        "oblivious spray"
    )

    # 5. Per-node dispatch scheme under dumb vs smart routing.
    scheme_rows = []
    data["schemes"] = {}
    for scheme, policy in (
        ("1x16", "random"), ("1x16", "jsq2"), ("16x1", "random"),
        ("16x1", "jsq2"),
    ):
        key = (
            f"policy/{policy}" if scheme == "1x16"
            else f"scheme/16x1/{policy}"
        )
        row = by_key[key]
        data["schemes"][f"{scheme}/{policy}"] = row
        scheme_rows.append([f"{scheme} + {policy}", row["tput_mrps"],
                            row["p99_ns"]])
    tables.append(
        format_table(
            ["per-node scheme + router", "tput (MRPS)", "p99 (ns)"],
            scheme_rows,
            title="Does intra-server single-queue dispatch still matter?",
        )
    )
    intra_gain = (
        float(data["schemes"]["16x1/jsq2"]["p99_ns"])
        / float(data["schemes"]["1x16/jsq2"]["p99_ns"])
    )
    findings.append(
        f"smart rack routing does not substitute for RPCValet's intra-server "
        f"dispatch: even under JSQ(2), 1x16 nodes keep p99 {intra_gain:.1f}x "
        "lower than 16x1 nodes"
    )

    data["fresh_advantage"] = fresh_advantage
    data["telemetry"] = merge_snapshots(
        by_key[task[0]].pop("telemetry") for task in tasks
    )
    return ExperimentResult(
        "ext-rack",
        "Rack-level two-level scheduling across RPCValet servers",
        data=data,
        tables=tables,
        findings=findings,
    )
