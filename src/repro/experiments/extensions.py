"""Extension experiments: the paper's future-work / related-work items.

Each driver quantifies a design the paper discusses but does not
evaluate:

* **preemption** (§7, Shinjuku) — quantum preemption on the single
  queue vs run-to-completion, on the Masstree-like get/scan mixture;
* **hedging** (§7, Tail at Scale) — client-side duplication over
  partitioned queues vs the server-side single queue, with the
  wasted-work cost the paper's argument hinges on;
* **dynamic slots** (§4.2) — shared-pool receive-slot provisioning vs
  the paper's static N×S, trading memory for (potential) stalls;
* **cluster** — K fully simulated chips exchanging RPCs all-to-all;
* **rss spray** (§2.3) — sender-rate skew vs static RSS hashing;
* **bursts** — nonstationary arrivals vs the Q×U models;
* **validate** — the queueing simulator against closed forms.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..arch.buffers import MessagingDomain
from ..balancing import SingleQueue
from ..core import RpcValetSystem, run_point_task
from ..runner import map_points
from ..dists import masstree_get, masstree_scan
from ..metrics import format_table
from ..queueing import (
    poisson_arrivals,
    simulate_fifo_queue,
    simulate_hedged_queues,
    simulate_preemptive_queue,
    spray_departures,
)
from ..workloads import HerdWorkload, MicrobenchCosts
from .common import ExperimentResult, get_profile

__all__ = [
    "run_preemption",
    "run_hedging",
    "run_dynamic_slots",
    "run_validate",
    "run_cluster",
    "run_rss_spray",
    "run_bursts",
]


def _masstree_services(rng: np.random.Generator, n: int):
    """Masstree-like mixture in ns; returns (services, is_get mask)."""
    is_scan = rng.uniform(size=n) < 0.01
    gets = masstree_get().sample_array(rng, n)
    scans = masstree_scan().sample_array(rng, n)
    return np.where(is_scan, scans, gets), ~is_scan


def run_preemption(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Quantum preemption (Shinjuku-style) on the Masstree mixture.

    16 servers fed from one queue (RPCValet's model); quantum swept
    over the 5–15µs range Shinjuku uses, with a 1µs-scale context
    switch overhead. The run-to-completion row is the paper's RPCValet.
    """
    prof = get_profile(profile)
    n = prof.queueing_requests
    rng = np.random.default_rng(seed)
    services, is_get = _masstree_services(rng, n)
    # 70% load on 16 servers.
    arrivals = poisson_arrivals(rng, 0.7 * 16.0 / services.mean(), n)
    warm = n // 10

    rows: List[List[object]] = []
    data: Dict[str, float] = {}
    fifo = simulate_fifo_queue(arrivals, services, 16, validate=False) - arrivals
    fifo_p99 = float(np.percentile(fifo[is_get][warm:], 99))
    rows.append(["run-to-completion", "-", fifo_p99 / 1e3, 0.0])
    data["run_to_completion_get_p99_us"] = fifo_p99 / 1e3

    for quantum_us in (5.0, 10.0, 15.0):
        result = simulate_preemptive_queue(
            arrivals, services, 16,
            quantum=quantum_us * 1e3,
            preemption_overhead=1_000.0,  # 1µs context switch (§7: 5-15µs quanta)
        )
        get_p99 = float(np.percentile(result.sojourns[is_get][warm:], 99))
        rows.append(
            [
                f"quantum {quantum_us:.0f}µs",
                result.preemptions_per_job,
                get_p99 / 1e3,
                (fifo_p99 - get_p99) / fifo_p99,
            ]
        )
        data[f"quantum_{quantum_us:.0f}us_get_p99_us"] = get_p99 / 1e3

    table = format_table(
        ["scheduler", "preempt/job", "get p99 (µs)", "improvement"],
        rows,
        title="Single queue × 16 servers, Masstree mixture at 70% load",
    )
    return ExperimentResult(
        "ext-preemption",
        "Shinjuku-style quantum preemption on RPCValet's single queue (§7)",
        data=data,
        tables=[table],
        findings=[
            "preemption bounds how long a get can sit behind a scan; on a "
            "single-queue 16-server system the gain is modest because 16-wide "
            "dispatch already hides most scans — the combination matters most "
            "at high scan rates or few cores"
        ],
    )


def run_hedging(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Client-side duplication vs the server-side single queue (§7)."""
    prof = get_profile(profile)
    n = prof.queueing_requests
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, float]] = {}
    for load in (0.4, 0.6, 0.8):
        rng = np.random.default_rng(seed)
        arrivals = poisson_arrivals(rng, 16.0 * load, n)
        services = rng.exponential(1.0, n)
        warm = n // 10
        plain = spray_departures(
            arrivals, services, 16, 1, np.random.default_rng(seed + 1)
        ) - arrivals
        hedged = simulate_hedged_queues(
            arrivals, services, 16, copies=2,
            rng=np.random.default_rng(seed + 1),
        )
        single = simulate_fifo_queue(arrivals, services, 16, validate=False) - arrivals
        row = {
            "random_p99": float(np.percentile(plain[warm:], 99)),
            "hedged_p99": float(np.percentile(hedged.sojourns[warm:], 99)),
            "single_queue_p99": float(np.percentile(single[warm:], 99)),
            "waste_fraction": hedged.waste_fraction,
        }
        data[f"load_{load}"] = row
        rows.append(
            [
                load,
                row["random_p99"],
                row["hedged_p99"],
                row["single_queue_p99"],
                row["waste_fraction"],
            ]
        )
    table = format_table(
        ["load", "16x1 random p99", "16x1 hedged-2 p99",
         "1x16 single-queue p99", "hedge waste"],
        rows,
        title="p99 in multiples of mean service time (exponential)",
    )
    return ExperimentResult(
        "ext-hedging",
        "Client-side hedging vs server-side single-queue dispatch (§7)",
        data=data,
        tables=[table],
        findings=[
            "hedging narrows the tail at low/mid load but pays 30%+ wasted "
            "work and collapses past ~70% load; the single queue dominates "
            "everywhere at zero extra load — the paper's §7 argument"
        ],
    )


def run_dynamic_slots(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Shared-pool slot provisioning vs static N×S (§4.2 extension)."""
    prof = get_profile(profile)
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, float]] = {}

    variants = [("static", None)] + [("dynamic", pool) for pool in (512, 128, 48)]
    tasks = []
    for policy, pool_size in variants:
        system = RpcValetSystem(
            SingleQueue(),
            HerdWorkload(),
            costs=MicrobenchCosts.lean(),
            seed=seed,
            slot_policy=policy,
            pool_size=pool_size,
        )
        tasks.append((system, 26.0, prof.arch_requests, 0.1, seed))
    outcome = map_points(
        run_point_task,
        tasks,
        workers=workers,
        labels=[
            "static NxS" if policy == "static" else f"dynamic pool={pool}"
            for policy, pool in variants
        ],
    )
    for (policy, pool_size), (system, *_), result in zip(
        variants, tasks, outcome.require("slot-provisioning probe")
    ):
        config = system.config
        if policy == "static":
            domain = MessagingDomain(
                config.num_remote_nodes,
                config.send_slots_per_node,
                config.max_msg_bytes,
            )
            footprint = domain.receive_buffer_bytes
        else:
            footprint = (config.max_msg_bytes + 64) * pool_size
        stats = {
            "p99_ns": result.p99,
            "tput_mrps": result.point.achieved_throughput,
            "stall_fraction": result.stall_fraction,
            "recv_footprint_mib": footprint / 2**20,
        }
        key = "static" if policy == "static" else f"dynamic_{pool_size}"
        label = (
            "static NxS (paper)" if policy == "static"
            else f"dynamic pool={pool_size}"
        )
        data[key] = stats
        rows.append(
            [label, stats["recv_footprint_mib"],
             stats["tput_mrps"], stats["p99_ns"], stats["stall_fraction"]]
        )
    table = format_table(
        ["provisioning", "recv buf (MiB)", "tput (MRPS)", "p99 (ns)", "stalls"],
        rows,
        title="HERD at 26 MRPS offered",
    )
    return ExperimentResult(
        "ext-dynamic-slots",
        "Dynamic (pooled) receive-slot provisioning (§4.2 future work)",
        data=data,
        tables=[table],
        findings=[
            "a pool sized to the bandwidth-delay product (hundreds of slots) "
            "matches static N×S performance at a fraction of the memory; "
            "undersized pools throttle via sender stalls"
        ],
    )


def run_validate(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Queueing-simulator self-validation against closed forms."""
    from ..queueing import run_validation

    prof = get_profile(profile)
    rows_data = run_validation(
        num_requests=max(prof.queueing_requests, 50_000), seed=seed
    )
    rows = [
        [row.system, row.metric, row.analytic, row.simulated,
         f"{row.relative_error * 100:.2f}%"]
        for row in rows_data
    ]
    worst = max(row.relative_error for row in rows_data)
    table = format_table(
        ["system", "metric", "analytic", "simulated", "error"],
        rows,
        title="FIFO simulator vs closed-form queueing results",
    )
    return ExperimentResult(
        "validate",
        "Simulator validation against M/M/1, M/M/c, M/G/1 closed forms",
        data={"rows": rows_data, "worst_error": worst},
        tables=[table],
        findings=[f"worst relative error across the grid: {worst * 100:.2f}%"],
    )


def _run_cluster_task(task) -> Dict[str, float]:
    """One cluster run of one per-node dispatch scheme (pool-safe).

    The task carries the experiment seed verbatim (not a spawned child
    seed): each scheme's cluster was always built from the same seed,
    so the historical ext-cluster numbers survive the fan-out.
    """
    scheme, num_nodes, per_node_mrps, requests_per_node, seed = task
    from ..balancing import Partitioned
    from ..cluster import Cluster

    factory = {"16x1/node": Partitioned, "1x16/node": SingleQueue}[scheme]
    cluster = Cluster(num_nodes=num_nodes, scheme_factory=factory, seed=seed)
    result = cluster.run(
        per_node_mrps=per_node_mrps, requests_per_node=requests_per_node
    )
    return {
        "p99_ns": result.p99_ns,
        "total_tput_mrps": result.total_throughput_mrps,
        "imbalance": result.imbalance(),
    }


def run_cluster(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Rack-scale: K fully simulated chips, all-to-all RPCs.

    Beyond the paper's single-chip methodology: every node is both
    client and server; send-slot credits cross the fabric. Compares
    per-node RPCValet (1x16) against RSS-style partitioning (16x1)
    cluster-wide, and reports cross-node balance. The two scheme runs
    are independent, so they fan through :func:`repro.runner.map_points`
    (``--workers`` / ``REPRO_WORKERS``) with bit-identical results at
    any worker count.
    """
    prof = get_profile(profile)
    num_nodes = 4
    requests_per_node = max(prof.arch_requests // 2, 2_000)
    per_node_mrps = 22.0  # ~76% of each node's HERD capacity

    names = ["16x1/node", "1x16/node"]
    outcome = map_points(
        _run_cluster_task,
        [(name, num_nodes, per_node_mrps, requests_per_node, seed)
         for name in names],
        workers=workers,
        labels=names,
        progress_label="ext-cluster",
    )
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, float]] = {}
    for name, row in zip(names, outcome.require("ext-cluster")):
        data[name] = row
        rows.append(
            [name, row["total_tput_mrps"], row["p99_ns"], row["imbalance"]]
        )
    table = format_table(
        ["scheme", "cluster tput (MRPS)", "p99 (ns)", "node imbalance"],
        rows,
        title=(
            f"{num_nodes} nodes x 16 cores, {per_node_mrps} MRPS each "
            "(HERD service times)"
        ),
    )
    speedup = data["16x1/node"]["p99_ns"] / data["1x16/node"]["p99_ns"]
    return ExperimentResult(
        "ext-cluster",
        "Multi-node cluster: per-node dispatch scheme at rack scale",
        data=data,
        tables=[table],
        findings=[
            f"per-node single-queue dispatch carries to rack scale: "
            f"{speedup:.1f}x lower cluster-wide p99 at identical throughput"
        ],
    )


def run_rss_spray(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """RSS's blind spot: skewed sender rates under per-source hashing.

    Real RSS hashes flow identifiers, so a sender's requests always
    land on the same core (§2.3: distribution decisions are "based on
    the RPC packets' header content ... no information pertaining to
    the system's current load"). With *uniform* sender rates that is
    statistically equivalent to the models' per-message spray — the
    superposition of Poisson sources is Poisson. The failure mode is
    **rate skew**: hot senders pin their load to fixed cores. This
    ablation sweeps a Zipf-like sender skew across three systems:
    per-message 16×1 (the queueing-model idealization), per-source
    16×1 (real RSS), and RPCValet's 1×16 (load-aware, immune).
    """
    from ..arch import ChipConfig
    from ..balancing import Partitioned

    prof = get_profile(profile)
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, float]] = {}
    configs = (
        ("16x1 per-message", Partitioned(spray="message")),
        ("16x1 per-source (RSS)", Partitioned(spray="source")),
        ("1x16 (RPCValet)", SingleQueue()),
    )
    tasks = []
    keys: List[str] = []
    for skew in (0.0, 1.2):
        for name, scheme in configs:
            system = RpcValetSystem(
                scheme=scheme,
                workload=HerdWorkload(),
                config=ChipConfig(num_nodes=65),  # 64 senders: skew bites
                costs=MicrobenchCosts.lean(),
                seed=seed,
                source_skew=skew,
            )
            keys.append(f"{name}/skew={skew:g}")
            tasks.append((system, 18.0, prof.arch_requests, 0.1, seed))
    outcome = map_points(run_point_task, tasks, workers=workers, labels=keys)
    for key, result in zip(keys, outcome.require("RSS-spray probe")):
        data[key] = {
            "p99_ns": result.p99,
            "tput_mrps": result.point.achieved_throughput,
            "stall_fraction": result.stall_fraction,
        }
        rows.append(
            [key, result.point.achieved_throughput, result.p99,
             result.stall_fraction]
        )
    table = format_table(
        ["system / sender skew", "tput (MRPS)", "p99 (ns)", "sender stalls"],
        rows,
        title="18 MRPS offered over 64 senders (HERD)",
    )
    return ExperimentResult(
        "ablation-rss-spray",
        "Sender-rate skew vs static RSS hashing (§2.3)",
        data={"by_config": data},
        tables=[table],
        findings=[
            "with uniform senders, per-source RSS matches the per-message "
            "model; under Zipf sender skew its hot cores saturate — tail "
            "explodes and flow control sheds throughput — while RPCValet's "
            "load-aware dispatch is unaffected, the §2.3 argument made "
            "quantitative"
        ],
    )


def run_bursts(
    profile: str = "quick", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Bursty (nonstationary) arrivals vs the Q×U models.

    The paper's arrivals are stationary Poisson. Real RPC traffic has
    flash bursts; this experiment re-runs the 1×16 vs 16×1 comparison
    under square-wave bursts at the same *average* rate and exposes two
    regimes: sub-capacity bursts widen the single-queue advantage
    (16×1's unlucky queues transiently overload while 1×16 absorbs),
    and far-past-capacity bursts compress the relative gap (both
    systems accumulate the same backlog while absolute tails explode).
    """
    from ..queueing import nonhomogeneous_poisson, square_wave_rate

    prof = get_profile(profile)
    rng = np.random.default_rng(seed)
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, float]] = {}

    def p99_ratio(arrivals: np.ndarray, services: np.ndarray) -> Dict[str, float]:
        warm = arrivals.size // 10
        spray = np.random.default_rng(seed + 1).integers(0, 16, arrivals.size)
        partitioned = np.empty(arrivals.size)
        for queue in range(16):
            mask = spray == queue
            partitioned[mask] = (
                simulate_fifo_queue(
                    arrivals[mask], services[mask], 1, validate=False
                )
                - arrivals[mask]
            )
        single = simulate_fifo_queue(arrivals, services, 16, validate=False) - arrivals
        single_p99 = float(np.percentile(single[warm:], 99))
        partitioned_p99 = float(np.percentile(partitioned[warm:], 99))
        return {
            "single_p99": single_p99,
            "partitioned_p99": partitioned_p99,
            "ratio": partitioned_p99 / single_p99,
        }

    horizon = max(prof.queueing_requests / 8.0, 10_000.0)
    scenarios = (
        ("stationary 0.6", None, 0.6 * 16),
        ("bursts to 0.95x capacity", (0.47 * 16, 0.95 * 16, 400.0, 0.25), None),
        ("bursts to 2.5x capacity", (0.4 * 16, 2.5 * 16, 400.0, 0.1), None),
    )
    for name, burst_params, constant_rate in scenarios:
        if burst_params is None:
            count = int(constant_rate * horizon)
            arrivals = np.cumsum(rng.exponential(1.0 / constant_rate, count))
        else:
            base, burst, period, fraction = burst_params
            rate_fn, rate_max = square_wave_rate(base, burst, period, fraction)
            arrivals = nonhomogeneous_poisson(rng, rate_fn, rate_max, horizon)
        services = rng.exponential(1.0, arrivals.size)
        stats = p99_ratio(arrivals, services)
        stats["mean_rate"] = arrivals.size / float(arrivals[-1])
        data[name] = stats
        rows.append(
            [name, stats["mean_rate"] / 16.0, stats["single_p99"],
             stats["partitioned_p99"], stats["ratio"]]
        )
    table = format_table(
        ["arrival process", "avg load", "1x16 p99", "16x1 p99", "gap"],
        rows,
        title="p99 in multiples of mean service (exponential service)",
    )
    return ExperimentResult(
        "ext-bursts",
        "Nonstationary (bursty) arrivals vs the Q x U models",
        data=data,
        tables=[table],
        findings=[
            "sub-capacity bursts widen the single-queue advantage; "
            "far-past-capacity bursts compress the relative gap while "
            "both tails explode — stationary Poisson (the paper's setup) "
            "is the conservative case for RPCValet's benefit"
        ],
    )
