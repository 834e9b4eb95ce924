"""``ext-faults``: fault injection — crash rate x fabric noise x client robustness.

RPCValet balances load under ideal conditions; this driver asks what
its rack deployment looks like when things break: nodes crash and
recover, the fabric drops and duplicates messages, and clients fight
back with timeouts, retries, backoff, and hedging. Three classic
distributed-systems phenomena, reproduced deterministically on the
:mod:`repro.cluster` + :mod:`repro.faults` substrate:

1. **crash ladder** — rate-based node crash/recovery under JSQ(2)
   routing with heartbeat-driven failure detection and bounded
   retries: goodput must degrade *gracefully* (no cliff) as the crash
   rate rises, because suspected nodes leave the routing set and
   retries land elsewhere;
2. **retry storm** — an overloaded rack with a timeout inside the
   queueing tail: unbounded zero-backoff retries amplify server work
   and inflate the tail, while a bounded exponential-backoff budget
   sheds load and keeps the tail close to baseline — the classic
   metastable retry-storm failure, on demand;
3. **hedging** — duplicate-after-p95 requests cut the client-side p99
   at low load (they mask drop-induced timeouts) but near saturation
   the duplicates become pure overload: work amplifies and the tail
   gets *worse*.

Every run is telemetry-instrumented (``faults.nodes_down`` track,
retry/timeout counters, detection-latency histogram); the merged
snapshot rides ``data["telemetry"]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..metrics import format_table
from ..runner import map_points, task_seed
from .common import ExperimentResult, get_profile

__all__ = ["run_faults"]

#: Rack size for every scenario.
NUM_NODES = 4

#: Crash-ladder operating point: enough headroom that surviving nodes
#: can absorb a dead peer's traffic.
CRASH_MRPS = 18.0

#: Crash arrival rates per node (per second of simulated time).
CRASH_LADDER_HZ = (0.0, 6e3, 12e3, 24e3)
CRASH_OUTAGE_NS = 20_000.0

#: Retry-storm operating point: near the rack's ~30 MRPS/node HERD
#: saturation, with the timeout inside the queueing tail so spurious
#: timeouts ignite the feedback loop.
STORM_MRPS = 28.0
STORM_DROP = 0.04
STORM_TIMEOUT_NS = 2_000.0

#: Hedging operating points and the hedge trigger (~ no-fault p95).
HEDGE_LOW_MRPS = 12.0
HEDGE_HIGH_MRPS = 27.0
HEDGE_NS = 1_500.0
HEDGE_DROP = 0.02

#: One scenario: (key, mrps, plan_kwargs, retry_kwargs, suspect_after_ns).
_Scenario = Tuple[str, float, Tuple, Tuple, Optional[float]]


def _scenarios() -> List[_Scenario]:
    rows: List[_Scenario] = []
    ladder_retry = (
        ("timeout_ns", 10_000.0), ("max_retries", 2), ("backoff_ns", 2_000.0)
    )
    for rate in CRASH_LADDER_HZ:
        plan = (
            ("crash_rate_hz", rate), ("mean_outage_ns", CRASH_OUTAGE_NS)
        )
        rows.append(
            (f"crash/{rate:g}", CRASH_MRPS, plan, ladder_retry, 5_000.0)
        )
    storm_plan = (("drop_prob", STORM_DROP),)
    rows.append(
        ("storm/bounded", STORM_MRPS, storm_plan,
         (("timeout_ns", STORM_TIMEOUT_NS), ("max_retries", 2),
          ("backoff_ns", 6_000.0), ("backoff_factor", 2.0)), None)
    )
    rows.append(
        ("storm/unbounded", STORM_MRPS, storm_plan,
         (("timeout_ns", STORM_TIMEOUT_NS), ("max_retries", None),
          ("backoff_ns", 0.0)), None)
    )
    hedge_plan = (("drop_prob", HEDGE_DROP),)
    for load, name in ((HEDGE_LOW_MRPS, "low"), (HEDGE_HIGH_MRPS, "high")):
        for hedge in (None, HEDGE_NS):
            suffix = "hedge" if hedge is not None else "plain"
            rows.append(
                (f"hedge/{name}/{suffix}", load, hedge_plan,
                 (("timeout_ns", 15_000.0), ("max_retries", 3),
                  ("backoff_ns", 2_000.0), ("hedge_ns", hedge)), None)
            )
    return rows


def _run_faults_task(task) -> Dict[str, object]:
    """One fault-injected cluster run (pool-safe module function)."""
    (key, mrps, plan_kwargs, retry_kwargs, suspect_after_ns, requests,
     seed) = task
    from ..cluster import Cluster
    from ..faults import FaultPlan, RetryConfig
    from ..rack import RackRouter

    cluster = Cluster(
        num_nodes=NUM_NODES,
        seed=seed,
        router=RackRouter(
            "jsq2", "piggyback", suspect_after_ns=suspect_after_ns
        ),
        faults=FaultPlan(**dict(plan_kwargs)),
        retry=RetryConfig(**dict(retry_kwargs)),
        telemetry=True,
    )
    result = cluster.run(per_node_mrps=mrps, requests_per_node=requests)
    stats = result.fault_stats
    return {
        "key": key,
        "offered": result.offered,
        "lost": result.lost,
        "goodput_fraction": result.goodput_fraction,
        "goodput_mrps": result.goodput_mrps,
        "tput_mrps": result.total_throughput_mrps,
        "work_amplification": (
            result.total_throughput_mrps / result.goodput_mrps
            if result.goodput_mrps > 0
            else float("nan")
        ),
        "e2e_p99_ns": result.e2e.p99,
        "e2e_mean_ns": result.e2e.mean,
        "srv_p99_ns": result.p99_ns,
        "srv_mean_ns": result.aggregate.mean,
        "availability_min": min(result.availability),
        "crashes": stats.crashes,
        "recoveries": stats.recoveries,
        "timeouts": stats.timeouts,
        "retries": stats.retries,
        "hedges": stats.hedges,
        "duplicates": stats.duplicate_completions,
        "msg_drops": stats.msg_drops,
        "suspicions": stats.suspicions,
        "false_suspicions": stats.false_suspicions,
        "mean_detection_ns": stats.mean_detection_ns,
        "telemetry": result.telemetry,
    }


def run_faults(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Fault-injection sweep: crashes, retry storms, hedging."""
    from ..telemetry import merge_snapshots

    prof = get_profile(profile)
    requests = max(prof.arch_requests // 2, 1_500)
    scenarios = _scenarios()
    tasks = []
    for key, mrps, plan_kwargs, retry_kwargs, suspect in scenarios:
        tasks.append(
            (key, mrps, plan_kwargs, retry_kwargs, suspect, requests,
             task_seed("ext-faults", key, 0, seed))
        )
    outcome = map_points(
        _run_faults_task,
        tasks,
        workers=workers,
        labels=[task[0] for task in tasks],
        progress_label="ext-faults",
    )
    by_key: Dict[str, Dict[str, object]] = {}
    for task, row in zip(tasks, outcome.require("ext-faults")):
        by_key[task[0]] = row

    tables: List[str] = []
    findings: List[str] = []
    data: Dict[str, object] = {}

    # 1. Crash ladder: graceful goodput degradation.
    ladder = [by_key[f"crash/{rate:g}"] for rate in CRASH_LADDER_HZ]
    data["crash_ladder"] = {
        f"{rate:g}": row for rate, row in zip(CRASH_LADDER_HZ, ladder)
    }
    tables.append(
        format_table(
            ["crash rate (/s/node)", "goodput frac", "e2e p99 (ns)",
             "min avail", "crashes", "suspicions", "mean detect (ns)"],
            [
                [f"{rate:g}", row["goodput_fraction"], row["e2e_p99_ns"],
                 row["availability_min"], row["crashes"], row["suspicions"],
                 row["mean_detection_ns"]]
                for rate, row in zip(CRASH_LADDER_HZ, ladder)
            ],
            title=(
                f"Crash ladder — JSQ(2) + piggyback + failure detector, "
                f"{NUM_NODES} nodes at {CRASH_MRPS:g} MRPS each, "
                f"{CRASH_OUTAGE_NS / 1e3:g}µs mean outage, retry budget 2"
            ),
        )
    )
    fractions = [float(row["goodput_fraction"]) for row in ladder]
    worst_step = max(
        earlier - later for earlier, later in zip(fractions, fractions[1:])
    ) if len(fractions) > 1 else 0.0
    findings.append(
        "goodput degrades gracefully with crash rate (no cliff): "
        + " -> ".join(
            f"{rate:g}/s {frac:.3f}" for rate, frac
            in zip(CRASH_LADDER_HZ, fractions)
        )
        + f" (largest single-step drop {worst_step:.3f}); suspected nodes "
        "leave the routing set and bounded retries land elsewhere"
    )

    # 2. Retry storm: bounded backoff vs unbounded zero-backoff.
    bounded = by_key["storm/bounded"]
    storm = by_key["storm/unbounded"]
    data["storm"] = {"bounded": bounded, "unbounded": storm}
    tables.append(
        format_table(
            ["retry policy", "srv p99 (ns)", "e2e p99 (ns)", "work amp",
             "retries", "timeouts", "lost"],
            [
                ["bounded (2, exp backoff)", bounded["srv_p99_ns"],
                 bounded["e2e_p99_ns"], bounded["work_amplification"],
                 bounded["retries"], bounded["timeouts"], bounded["lost"]],
                ["unbounded, no backoff", storm["srv_p99_ns"],
                 storm["e2e_p99_ns"], storm["work_amplification"],
                 storm["retries"], storm["timeouts"], storm["lost"]],
            ],
            title=(
                f"Retry storm — {STORM_MRPS:g} MRPS/node (near saturation), "
                f"{STORM_DROP:.0%} drops, {STORM_TIMEOUT_NS / 1e3:g}µs "
                "timeout inside the queueing tail"
            ),
        )
    )
    storm_inflation = float(storm["srv_p99_ns"]) / float(bounded["srv_p99_ns"])
    data["storm_inflation"] = storm_inflation
    findings.append(
        f"unbounded zero-backoff retries ignite a retry storm near "
        f"saturation: {storm_inflation:.2f}x server-side p99 inflation and "
        f"{float(storm['work_amplification']):.2f}x work amplification vs "
        f"{float(bounded['work_amplification']):.2f}x under a bounded "
        "exponential-backoff budget"
    )

    # 3. Hedging: tail win at low load, overload tax near saturation.
    hedge_rows = []
    data["hedging"] = {}
    for load_name, load in (("low", HEDGE_LOW_MRPS), ("high", HEDGE_HIGH_MRPS)):
        plain = by_key[f"hedge/{load_name}/plain"]
        hedged = by_key[f"hedge/{load_name}/hedge"]
        data["hedging"][load_name] = {"plain": plain, "hedge": hedged}
        for label, row in (("off", plain), ("on", hedged)):
            hedge_rows.append(
                [f"{load:g} MRPS, hedge {label}", row["e2e_p99_ns"],
                 row["work_amplification"], row["hedges"], row["duplicates"]]
            )
    tables.append(
        format_table(
            ["operating point", "e2e p99 (ns)", "work amp", "hedges",
             "dup completions"],
            hedge_rows,
            title=(
                f"Hedged requests (duplicate after {HEDGE_NS / 1e3:g}µs "
                f"~ p95) under {HEDGE_DROP:.0%} message drops"
            ),
        )
    )
    low_win = (
        float(data["hedging"]["low"]["plain"]["e2e_p99_ns"])
        / float(data["hedging"]["low"]["hedge"]["e2e_p99_ns"])
    )
    high_cost = (
        float(data["hedging"]["high"]["hedge"]["e2e_p99_ns"])
        / float(data["hedging"]["high"]["plain"]["e2e_p99_ns"])
    )
    data["hedge_low_win"] = low_win
    data["hedge_high_cost"] = high_cost
    findings.append(
        f"hedging cuts the client p99 {low_win:.1f}x at low load (the hedge "
        "masks drop-induced timeouts) but near saturation the duplicates are "
        f"pure overload: p99 gets {high_cost:.1f}x worse and server work "
        f"amplifies "
        f"{float(data['hedging']['high']['hedge']['work_amplification']):.2f}x"
    )

    data["telemetry"] = merge_snapshots(
        by_key[task[0]].pop("telemetry") for task in tasks
    )
    return ExperimentResult(
        "ext-faults",
        "Fault injection: crashes, retry storms, and hedged requests",
        data=data,
        tables=tables,
        findings=findings,
    )
