"""The benchmark's five workloads, built on the library's public entry points.

Each workload is a :class:`Workload`: ``setup(seed, scale)`` runs the
cold calibrations a user pays before the first simulation and returns a
context; ``scenarios(ctx)`` lists the timed scenario calls; each call
returns a :class:`Outcome` whose invariants :func:`problems` checks;
``tier_gap(ctx, outcomes)`` is the untimed fast-vs-DES comparison.

Simulated arrivals are open-loop (Poisson, diurnal where stated) at
fractions of ``C = 16 / S̄``, the per-node HERD capacity, with S̄
measured by the same light-load probe the figure drivers use. Every
scenario seed derives from the benchmark ``--seed`` through
:func:`repro.runner.task_seed`, so one seed gives one set of inputs.
Why each workload exists is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Offered-load fractions of C for the des-chip sweep (fig7a's knee).
CHIP_LOADS = (0.5, 0.8, 0.95)
CHIP_SCHEMES = ("1x16", "4x4", "16x1")


@dataclass
class Outcome:
    """What one scenario call produced, reduced to checkable numbers."""

    #: "legacy" (completed == requested), "faulted-des" or "faulted-fast"
    #: (offered == completed + lost), or "sweep" (one point per load).
    kind: str
    #: Simulated RPCs the call completed (logical RPCs on faulted runs).
    rpcs: int
    #: Informational simulated outputs: p50/p99 in ns, throughput in MRPS.
    outputs: Dict[str, float]
    requested: int = 0
    completed: int = 0
    per_node_completed: List[int] = field(default_factory=list)
    offered: int = 0
    lost: int = 0
    #: Counters the per-layer metrics read (router decisions, retries, ...).
    counters: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of every simulated output; equal seeds must give equal hashes."""
        payload = repr(
            (
                self.kind,
                self.rpcs,
                sorted(self.outputs.items()),
                self.completed,
                self.per_node_completed,
                self.offered,
                self.lost,
                sorted(self.counters.items()),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def problems(outcome: Outcome) -> List[str]:
    """Broken invariants of one scenario outcome (empty when it is sound)."""
    found = []
    p50s = [v for k, v in outcome.outputs.items() if k.endswith("p50_ns")]
    p99s = [v for k, v in outcome.outputs.items() if k.endswith("p99_ns")]
    if not p50s or len(p50s) != len(p99s):
        found.append("missing latency outputs")
    for name, value in outcome.outputs.items():
        if not math.isfinite(value):
            found.append(f"{name} is not finite ({value!r})")
    for p50, p99 in zip(p50s, p99s):
        if p50 > p99:
            found.append(f"p50 {p50!r} exceeds p99 {p99!r}")
    if outcome.kind == "legacy":
        if outcome.completed != outcome.requested:
            found.append(
                f"completed {outcome.completed} != requested {outcome.requested}"
            )
        if sum(outcome.per_node_completed) != outcome.completed:
            found.append(
                f"per-node completions sum to {sum(outcome.per_node_completed)}, "
                f"not {outcome.completed}"
            )
    elif outcome.kind in ("faulted-des", "faulted-fast"):
        if outcome.offered != outcome.completed + outcome.lost:
            found.append(
                f"offered {outcome.offered} != completed {outcome.completed} "
                f"+ lost {outcome.lost}"
            )
    elif outcome.kind == "sweep":
        if len(p99s) != len(CHIP_LOADS):
            found.append(f"{len(p99s)} of {len(CHIP_LOADS)} sweep points survived")
    else:
        found.append(f"unknown outcome kind {outcome.kind!r}")
    if outcome.rpcs <= 0:
        found.append("no RPCs completed")
    return found


def _scaled(count: int, scale: float) -> int:
    return max(int(count * scale), 40)


def _seed(workload: str, key: str, seed: int) -> int:
    from repro.runner import task_seed

    return task_seed(f"bench/{workload}", key, 0, seed)


def _capacity_mrps(seed: int) -> float:
    """C = 16 / S̄ in MRPS, S̄ from the figure drivers' cold probe."""
    from repro.experiments.common import calibrate_mean_service_ns

    return 16.0 / calibrate_mean_service_ns("herd", "16x1", seed) * 1e3


def _cluster_outcome(result, requested: int, faulted: bool) -> Outcome:
    agg = result.aggregate
    stats = result.router_stats
    counters = {"rack.decisions": stats.decisions if stats is not None else 0}
    outputs = {
        "p50_ns": agg.p50,
        "p99_ns": agg.p99,
        "tput_mrps": result.total_throughput_mrps,
    }
    if not faulted:
        return Outcome(
            "legacy",
            result.completed,
            outputs,
            requested=requested,
            completed=result.completed,
            per_node_completed=list(result.per_node_completed),
            counters=counters,
        )
    fstats = result.fault_stats
    des = result.e2e is not None
    # The DES counts logical completions in its fault stats; the fast
    # tier completes each logical RPC at most once.
    logical = fstats.completed if des else result.completed
    counters.update(
        {
            "faults.retries": fstats.retries,
            "faults.timeouts": fstats.timeouts,
            "faults.lost": result.lost,
            "faults.offered": result.offered,
            "faults.server_completions": result.completed,
        }
    )
    return Outcome(
        "faulted-des" if des else "faulted-fast",
        logical,
        outputs,
        completed=logical,
        offered=result.offered,
        lost=result.lost,
        counters=counters,
    )


# -- des-chip ---------------------------------------------------------------


def _chip_setup(seed: int, scale: float) -> Dict[str, Any]:
    from repro.core import make_system

    capacity = _capacity_mrps(seed)
    return {
        "seed": seed,
        "requests": _scaled(8_000, scale),
        "loads": [f * capacity for f in CHIP_LOADS],
        "systems": {s: make_system(s, "herd", seed=seed) for s in CHIP_SCHEMES},
    }


def _chip_scenarios(ctx) -> List[Tuple[str, Callable[[], Outcome]]]:
    from repro.core import sweep_many

    def call(scheme: str) -> Outcome:
        failures: List[str] = []
        sweeps = sweep_many(
            {scheme: ctx["systems"][scheme]},
            ctx["loads"],
            num_requests=ctx["requests"],
            workers=1,
            experiment="bench/des-chip",
            failures=failures,
        )
        if failures:
            raise RuntimeError("; ".join(failures))
        outputs: Dict[str, float] = {}
        for fraction, point in zip(CHIP_LOADS, sweeps[scheme].points):
            outputs[f"{fraction}C.p50_ns"] = point.summary.p50
            outputs[f"{fraction}C.p99_ns"] = point.summary.p99
            outputs[f"{fraction}C.tput_mrps"] = point.achieved_throughput
        # Every point drains its generator, so each completes all requests.
        rpcs = ctx["requests"] * len(sweeps[scheme].points)
        return Outcome("sweep", rpcs, outputs)

    return [(scheme, lambda s=scheme: call(s)) for scheme in CHIP_SCHEMES]


def _chip_tier_gap(ctx, outcomes: Dict[str, Outcome]) -> float:
    """Worst |fast - DES| / DES p99 at the 0.95·C points, same point seeds."""
    from repro.fastpath import calibrated_chip_profile, fast_chip_point
    from repro.runner import spawn_point_seeds
    from repro.workloads import HerdWorkload

    index = len(CHIP_LOADS) - 1
    worst = 0.0
    for scheme in CHIP_SCHEMES:
        point_seed = spawn_point_seeds(
            "bench/des-chip", scheme, ctx["seed"], len(CHIP_LOADS)
        )[index]
        fast = fast_chip_point(
            scheme,
            HerdWorkload(),
            ctx["loads"][index],
            ctx["requests"],
            point_seed,
            calibrated_chip_profile(scheme),
        )
        des = outcomes[scheme].outputs[f"{CHIP_LOADS[index]}C.p99_ns"]
        worst = max(worst, abs(fast.summary.p99 - des) / des)
    return worst


# -- des-rack / des-faults --------------------------------------------------

RACK_NODES = 16
RACK_ROUTERS = (("jsq2", "piggyback"), ("random", "fresh"))


def _cluster_setup(load: float, requests: int) -> Callable[[int, float], Dict[str, Any]]:
    """Set-up of a DES cluster workload at ``load``·C, ``requests`` per node."""

    def setup(seed: int, scale: float) -> Dict[str, Any]:
        return {
            "seed": seed,
            "mrps": load * _capacity_mrps(seed),
            "requests": _scaled(requests, scale),
        }

    return setup


def _rack_scenarios(ctx) -> List[Tuple[str, Callable[[], Outcome]]]:
    from repro.balancing import SingleQueue
    from repro.cluster import Cluster
    from repro.rack import RackRouter

    def call(policy: str, signal: str) -> Outcome:
        cluster = Cluster(
            num_nodes=RACK_NODES,
            scheme_factory=SingleQueue,
            seed=_seed("des-rack", f"{policy}/{signal}", ctx["seed"]),
            router=RackRouter(policy, signal),
        )
        result = cluster.run(ctx["mrps"], ctx["requests"])
        return _cluster_outcome(result, RACK_NODES * ctx["requests"], faulted=False)

    return [
        (f"{policy}/{signal}", lambda p=policy, s=signal: call(p, s))
        for policy, signal in RACK_ROUTERS
    ]


def _rack_tier_gap(ctx, outcomes: Dict[str, Outcome]) -> float:
    """Worst |fast - DES| / DES p99 on the identical rack configs and seeds."""
    from repro.fastpath import simulate_rack_fast

    worst = 0.0
    for policy, signal in RACK_ROUTERS:
        key = f"{policy}/{signal}"
        fast = simulate_rack_fast(
            RACK_NODES,
            policy=policy,
            signal=signal,
            scheme="1x16",
            per_node_mrps=ctx["mrps"],
            requests_per_node=ctx["requests"],
            seed=_seed("des-rack", key, ctx["seed"]),
        )
        des = outcomes[key].outputs["p99_ns"]
        worst = max(worst, abs(fast.p99_ns - des) / des)
    return worst


def _faults_scenarios(ctx) -> List[Tuple[str, Callable[[], Outcome]]]:
    from repro.balancing import SingleQueue
    from repro.cluster import Cluster
    from repro.faults import FaultPlan, NodeCrash, RetryConfig
    from repro.rack import RackRouter

    def call() -> Outcome:
        cluster = Cluster(
            num_nodes=RACK_NODES,
            scheme_factory=SingleQueue,
            seed=_seed("des-faults", "jsq2/piggyback", ctx["seed"]),
            router=RackRouter("jsq2", "piggyback", suspect_after_ns=5_000),
            faults=FaultPlan(
                events=(NodeCrash(3, at_ns=3e4, outage_ns=6e4),), drop_prob=0.01
            ),
            retry=RetryConfig(timeout_ns=1e4, max_retries=2, backoff_ns=2e3),
        )
        result = cluster.run(ctx["mrps"], ctx["requests"])
        return _cluster_outcome(result, RACK_NODES * ctx["requests"], faulted=True)

    return [("jsq2/piggyback/crash", call)]


# -- fast-rack --------------------------------------------------------------

FAST_RACK_NODES = 64
FAST_RACK_SCENARIOS = (
    ("jsq2", "piggyback", "1x16"),
    ("random", "fresh", "16x1"),
    ("sed", "broadcast:2000", "1x16"),
)


def _fast_rack_setup(seed: int, scale: float) -> Dict[str, Any]:
    from repro.fastpath import calibrated_scheme_profile

    capacity = _capacity_mrps(seed)
    # Both DES-anchored probes, the 16x1 bisection included, run cold here.
    for scheme in ("1x16", "16x1"):
        calibrated_scheme_profile(scheme, 16)
    return {
        "seed": seed,
        "capacity": capacity,
        "requests": _scaled(1_500, scale),
    }


def _fast_rack_scenarios(ctx) -> List[Tuple[str, Callable[[], Outcome]]]:
    from repro.faults import FaultPlan
    from repro.fastpath import simulate_rack_fast
    from repro.popload import DiurnalRate, NonhomogeneousPoisson

    requested = FAST_RACK_NODES * ctx["requests"]

    def call(policy: str, signal: str, scheme: str) -> Outcome:
        result = simulate_rack_fast(
            FAST_RACK_NODES,
            policy=policy,
            signal=signal,
            scheme=scheme,
            per_node_mrps=0.85 * ctx["capacity"],
            requests_per_node=ctx["requests"],
            seed=_seed("fast-rack", f"{policy}/{signal}/{scheme}", ctx["seed"]),
        )
        return _cluster_outcome(result, requested, faulted=False)

    def shaped() -> Outcome:
        arrivals = NonhomogeneousPoisson(
            DiurnalRate(0.7 * ctx["capacity"] * 1e6, 0.5, 2e5)
        )
        result = simulate_rack_fast(
            FAST_RACK_NODES,
            policy="jsq2",
            signal="piggyback",
            scheme="1x16",
            per_node_mrps=0.7 * ctx["capacity"],
            requests_per_node=ctx["requests"],
            seed=_seed("fast-rack", "diurnal+faults", ctx["seed"]),
            arrival_process=arrivals,
            faults=FaultPlan(crash_rate_hz=6e3, drop_prob=0.01),
        )
        return _cluster_outcome(result, requested, faulted=True)

    calls = [
        (f"{p}/{s}/{scheme}", lambda p=p, s=s, scheme=scheme: call(p, s, scheme))
        for p, s, scheme in FAST_RACK_SCENARIOS
    ]
    return calls + [("jsq2/diurnal+faults", shaped)]


# -- fast-dc ----------------------------------------------------------------

DC_HIERARCHIES = ("flat", "racksched", "jbsq")


def _fast_dc_setup(seed: int, scale: float) -> Dict[str, Any]:
    from repro.datacenter import DatacenterTopology, calibrated_profile_overhead_ns

    capacity = _capacity_mrps(seed)
    calibrated_profile_overhead_ns("baseline", 16)
    return {
        "seed": seed,
        "mrps": 0.8 * capacity,
        "requests": _scaled(400, scale),
        "topology": DatacenterTopology(16, 16),
    }


def _fast_dc_scenarios(ctx) -> List[Tuple[str, Callable[[], Outcome]]]:
    from repro.datacenter import simulate_datacenter_fast

    topology = ctx["topology"]

    def call(hierarchy: str) -> Outcome:
        result = simulate_datacenter_fast(
            topology,
            hierarchy=hierarchy,
            policy="jsq2",
            skew=0.6,
            per_node_mrps=ctx["mrps"],
            requests_per_node=ctx["requests"],
            seed=_seed("fast-dc", hierarchy, ctx["seed"]),
        )
        return _cluster_outcome(
            result, topology.num_nodes * ctx["requests"], faulted=False
        )

    return [(h, lambda h=h: call(h)) for h in DC_HIERARCHIES]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, float], Dict[str, Any]]
    scenarios: Callable[[Dict[str, Any]], List[Tuple[str, Callable[[], Outcome]]]]
    tier_gap: Optional[Callable[[Dict[str, Any], Dict[str, Outcome]], float]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("des-chip", _chip_setup, _chip_scenarios, _chip_tier_gap),
        Workload("des-rack", _cluster_setup(0.9, 800), _rack_scenarios, _rack_tier_gap),
        Workload("des-faults", _cluster_setup(0.8, 1_500), _faults_scenarios),
        Workload("fast-rack", _fast_rack_setup, _fast_rack_scenarios),
        Workload("fast-dc", _fast_dc_setup, _fast_dc_scenarios),
    )
}
