"""DES golden values: exact outputs of fixed chip and cluster runs.

Every value below was recorded from the simulator and is compared with
``==``, not a tolerance. The DES is deterministic per seed, so any
change to event ordering, RNG draw order or per-stage arithmetic shows
up here as a changed percentile, core count, busy time or message
digest. A change that means to alter simulated behaviour re-records the
table; a refactor of the kernel, the NI model or the traffic sources
must leave it untouched.

The grid covers every per-RPC path: fixed (exact ties between
independent chains), exponential and HERD service under the paper's
five schemes, each at a sub-critical and a saturated load; interference
stalls; rendezvous requests; pooled send slots with stalls; closed-loop
clients; interleaved one-sided traffic, also under fixed service past
saturation with telemetry on; a telemetry-instrumented point;
and 16-node clusters: fault-free (JSQ(2) with piggybacked reports, a
Zipf-skewed random spray whose senders stall for credits, a traced
broadcast run), retry-only on heterogeneous nodes, and faulted.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from repro.arch import OneSidedEngine, RandomStalls
from repro.balancing import Partitioned, SingleQueue
from repro.cluster import Cluster
from repro.core import RpcValetSystem, make_scheme, make_workload
from repro.dists import synthetic
from repro.faults import FaultPlan, NodeCrash, RetryConfig
from repro.rack import RackRouter
from repro.sim import RngRegistry
from repro.telemetry import TelemetryHub, instrument_chip
from repro.telemetry.probes import BACKEND_DEPTH, PRIVATE_CQ_DEPTH
from repro.tracing import TraceConfig
from repro.workloads import (
    ClosedLoopClients,
    DistributionWorkload,
    MicrobenchCosts,
    TrafficGenerator,
)

SCHEMES = ("1x16", "4x4", "16x1", "16x1-source", "sw-1x16")
SERVICES = ("synthetic-fixed", "synthetic-exponential", "herd")

#: (sub-critical, saturated) offered MRPS. Synthetic services run at
#: S̄ ≈ 1.2 µs (C ≈ 13 MRPS), HERD at S̄ ≈ 554 ns (C ≈ 29 MRPS); the
#: software queue saturates near its 5 M/s dequeue ceiling.
LOADS = {
    ("synthetic", False): (9.0, 16.0),
    ("herd", False): (20.0, 34.0),
    ("synthetic", True): (3.0, 7.0),
    ("herd", True): (3.0, 7.0),
}
REQUESTS = 1_500


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:20]


def _histogram(hist):
    return (
        hist.count,
        hist.zero_count,
        hist.total,
        hist.max,
        tuple(sorted(hist.counts.items())),
    )


def _build_chip(scheme: str, service: str, seed: int = 0, workload=None, interference=None):
    """A chip assembled the way ``RpcValetSystem.run_point`` builds one."""
    system = RpcValetSystem(
        scheme=(
            Partitioned(spray="source") if scheme == "16x1-source" else make_scheme(scheme)
        ),
        workload=workload or make_workload(service),
        costs=(
            MicrobenchCosts.paper_synthetic()
            if service.startswith("synthetic-")
            else MicrobenchCosts.lean()
        ),
        interference=interference,
    )
    rngs = RngRegistry(seed)
    chip = system._build(rngs)
    chip.completed_messages = []
    return chip, rngs, system.workload


def _observe_chip(chip, extra=None):
    recorder = chip.recorder
    summary = recorder.summary(warmup_fraction=0.1)
    messages = sorted(
        (m.msg_id, m.core_id, m.t_cqe, m.t_start, m.t_replenish)
        for m in chip.completed_messages
    )
    observed = {
        "p50": summary.p50,
        "p99": summary.p99,
        "completed": chip.stats.completed,
        "max_private_cq_depth": chip.total_cqe_depth_high_water,
        "max_shared_cq_depth": max(
            d.max_shared_cq_depth for d in chip.dispatchers
        ),
        "processed": tuple(core.processed for core in chip.cores),
        "backend_busy_ns": tuple(b.busy_ns for b in chip.backends),
        "messages": _sha(messages),
    }
    observed.update(extra or {})
    return observed


def _open_loop(
    scheme,
    service,
    mrps,
    requests=REQUESTS,
    seed=0,
    workload=None,
    interference=None,
    slot_policy="static",
    pool_size=None,
    onesided_every_ns=None,
    telemetry=False,
):
    chip, rngs, workload = _build_chip(scheme, service, seed, workload, interference)
    hub = None
    if telemetry:
        hub = TelemetryHub(sample_interval=requests / (mrps * 1e6) * 1e9 / 50)
        instrument_chip(chip, hub)
        chip.env.attach_sampler(hub.make_sampler())
    traffic = TrafficGenerator(
        chip,
        workload,
        arrival_rate_rps=mrps * 1e6,
        num_requests=requests,
        rngs=rngs,
        slot_policy=slot_policy,
        pool_size=pool_size,
    )
    if onesided_every_ns is not None:
        _interleave_onesided(chip, onesided_every_ns, count=requests // 4)
    chip.env.run()
    extra = {"stalled": traffic.stalled}
    if onesided_every_ns is not None:
        extra["onesided"] = tuple(b.onesided_handled for b in chip.backends)
    if hub is not None:
        snap = hub.snapshot()
        extra["backend_depth_hist"] = _histogram(snap.histograms[BACKEND_DEPTH])
        extra["private_cq_hist"] = _histogram(snap.histograms[PRIVATE_CQ_DEPTH])
        extra["series"] = _sha(
            sorted((n, s.times, s.values) for n, s in snap.series.items())
        )
    return _observe_chip(chip, extra)


def _interleave_onesided(chip, every_ns, count):
    """Plain incoming writes plus outbound writes, every ``every_ns``."""
    env = chip.env
    engine = OneSidedEngine(chip)

    def fire(index):
        chip.submit_onesided(size_bytes=1024, src_node=index % 7)
        engine.issue("write", 512, core_id=index % chip.config.num_cores)
        if index + 1 < count:
            env.schedule_call(every_ns, fire, index + 1)

    env.schedule_call(every_ns, fire, 0)


def _closed_loop(seed=0):
    chip, rngs, workload = _build_chip("1x16", "synthetic-exponential", seed)
    ClosedLoopClients(
        chip,
        workload,
        num_clients=40,
        requests_per_client=40,
        rngs=rngs,
        think_time_ns=800.0,
    )
    chip.env.run()
    return _observe_chip(chip, {"now": chip.env.now})


def _cluster_digest(cluster):
    return _sha(
        [
            (
                tuple(core.processed for core in node.chip.cores),
                tuple(b.busy_ns for b in node.chip.backends),
                node.chip.total_cqe_depth_high_water,
                node.chip.recorder._times,
                node.chip.recorder._latencies,
            )
            for node in cluster.nodes
        ]
    )


def _cluster_legacy(seed=0):
    cluster = Cluster(
        num_nodes=16,
        scheme_factory=SingleQueue,
        seed=seed,
        router=RackRouter("jsq2", "piggyback"),
    )
    result = cluster.run(26.0, 150)
    return {
        "p50": result.aggregate.p50,
        "p99": result.aggregate.p99,
        "throughput": result.total_throughput_mrps,
        "per_node_completed": tuple(result.per_node_completed),
        "decisions": result.router_stats.decisions,
        "nodes": _cluster_digest(cluster),
    }


def _cluster_faulted(seed=0):
    cluster = Cluster(
        num_nodes=16,
        scheme_factory=SingleQueue,
        seed=seed,
        router=RackRouter("jsq2", "piggyback", suspect_after_ns=5_000),
        faults=FaultPlan(
            events=(NodeCrash(3, at_ns=1e4, outage_ns=2e4),), drop_prob=0.02
        ),
        retry=RetryConfig(
            timeout_ns=1e4, max_retries=2, backoff_ns=2e3, hedge_ns=3e3
        ),
    )
    result = cluster.run(23.0, 600)
    stats = result.fault_stats
    return {
        "e2e_p50": result.e2e.p50,
        "e2e_p99": result.e2e.p99,
        "p99": result.aggregate.p99,
        "completed": result.completed,
        "lost": result.lost,
        "faults": tuple(sorted(asdict(stats).items())),
        "nodes": _cluster_digest(cluster),
    }


def _cluster_stalls(seed=0):
    cluster = Cluster(
        num_nodes=16,
        scheme_factory=SingleQueue,
        seed=seed,
        router=RackRouter("random", "fresh", skew=1.2),
    )
    result = cluster.run(20.0, 300)
    stalled = sum(node.stalled for node in cluster.nodes)
    # Stalled sends take their message ids when a credit frees, which
    # picks their NI backend: the case must exercise that numbering.
    assert stalled > 0
    return {
        "p50": result.aggregate.p50,
        "p99": result.aggregate.p99,
        "throughput": result.total_throughput_mrps,
        "stalled": stalled,
        "per_node_completed": tuple(result.per_node_completed),
        "nodes": _cluster_digest(cluster),
    }


def _cluster_broadcast_traced(seed=0):
    cluster = Cluster(
        num_nodes=16,
        scheme_factory=SingleQueue,
        seed=seed,
        router=RackRouter("jsq2", "broadcast:2000"),
        trace=TraceConfig(sample_period=3),
    )
    result = cluster.run(24.0, 200)
    spans = result.spans
    return {
        # Broadcast ticks poll the drain rule, so env.now pins it.
        "now": cluster.env.now,
        "throughput": result.total_throughput_mrps,
        "p99": result.aggregate.p99,
        "traces": (len(spans), spans.offered, spans.sampled),
        "spans": _sha(
            [
                (trace.client, trace.index, trace.label, trace.t_end, trace.phases())
                for trace in spans.traces
            ]
        ),
        "nodes": _cluster_digest(cluster),
    }


def _cluster_retry_only(seed=0):
    cluster = Cluster(
        num_nodes=16,
        scheme_factory=SingleQueue,
        seed=seed,
        router=RackRouter("jsq2", "piggyback", skew=1.0),
        speed_factors=[(1.0, 0.5, 1.5, 1.0)[node % 4] for node in range(16)],
        retry=RetryConfig(
            timeout_ns=4e3, max_retries=1, backoff_ns=1e3, hedge_ns=2e3
        ),
    )
    result = cluster.run(20.0, 300)
    return {
        "now": cluster.env.now,
        "e2e_p50": result.e2e.p50,
        "e2e_p99": result.e2e.p99,
        "p99": result.aggregate.p99,
        "throughput": result.total_throughput_mrps,
        "completed": result.completed,
        "stalled": sum(node.stalled for node in cluster.nodes),
        "faults": tuple(sorted(asdict(result.fault_stats).items())),
        "nodes": _cluster_digest(cluster),
    }


def _grid_cases():
    for service in SERVICES:
        kind = "herd" if service == "herd" else "synthetic"
        for scheme in SCHEMES:
            sub, sat = LOADS[(kind, scheme.startswith("sw"))]
            for label, mrps in (("sub", sub), ("sat", sat)):
                yield f"{service}/{scheme}/{label}", (
                    lambda s=scheme, v=service, m=mrps: _open_loop(s, v, m)
                )


CASES = dict(_grid_cases())
CASES.update(
    {
        "interference": lambda: _open_loop(
            "1x16",
            "herd",
            24.0,
            interference=RandomStalls(probability=0.05, mean_pause_ns=2_000.0),
        ),
        "rendezvous": lambda: _open_loop(
            "4x4",
            "synthetic-exponential",
            8.0,
            workload=DistributionWorkload(
                synthetic("exponential"), request_size_bytes=4096
            ),
        ),
        "dynamic-slots": lambda: _open_loop(
            "1x16",
            "herd",
            34.0,
            requests=2_000,
            slot_policy="dynamic",
            pool_size=24,
        ),
        "closed-loop": _closed_loop,
        "onesided": lambda: _open_loop(
            "1x16", "herd", 22.0, onesided_every_ns=150.0
        ),
        # Fixed service past saturation with ingress queued behind
        # one-sided payloads and reply egress at every backend.
        "onesided-fixed-telemetry": lambda: _open_loop(
            "1x16",
            "synthetic-fixed",
            16.0,
            onesided_every_ns=50.0,
            telemetry=True,
        ),
        "telemetry": lambda: _open_loop(
            "16x1", "synthetic-exponential", 12.0, telemetry=True
        ),
        "cluster-jsq2": _cluster_legacy,
        "cluster-faulted": _cluster_faulted,
        "cluster-stalls": _cluster_stalls,
        "cluster-broadcast-traced": _cluster_broadcast_traced,
        "cluster-retry-only": _cluster_retry_only,
    }
)

#: Recorded values; see the module docstring before editing.
GOLDEN = {'closed-loop': {'backend_busy_ns': (16950.0, 16560.0, 17040.0, 16650.0),
                          'completed': 1600,
                          'max_private_cq_depth': 0,
                          'max_shared_cq_depth': 24,
                          'messages': 'a10224d137e02b044846',
                          'now': 132415.4641274358,
                          'p50': 2094.094827978366,
                          'p99': 3236.35335609087,
                          'processed': (102, 100, 102, 101, 101, 97, 99, 95, 103, 102, 101, 102, 97,
                                        104, 101, 93)},
          'cluster-broadcast-traced': {'nodes': 'c3cb93b0957ca8b3531b',
                                       'now': 12100.0,
                                       'p99': 2019.8239706525646,
                                       'spans': 'bf7f414842c9fb73adf4',
                                       'throughput': 264.4628099173554,
                                       'traces': (1072, 3200, 1072)},
          'cluster-faulted': {'completed': 9779,
                              'e2e_p50': 822.7458444085719,
                              'e2e_p99': 4017.2993340513685,
                              'faults': (('completed', 9600), ('crash_drops', 105), ('crashes', 1),
                                         ('delay_spikes', 0), ('detection_latency_ns', [5000.0]),
                                         ('duplicate_completions', 0), ('false_suspicions', 0),
                                         ('hedges', 456), ('late_completions', 0), ('lost', 0),
                                         ('msg_drops', 377), ('msg_dups', 0), ('offered', 9600),
                                         ('readmissions', 1), ('reclaimed_slots', 482),
                                         ('recoveries', 1), ('reply_suppressed', 11),
                                         ('retries', 32), ('slowdowns', 0), ('suspicions', 1),
                                         ('timeouts', 482)),
                              'lost': 0,
                              'nodes': 'b913517ba39dc7907895',
                              'p99': 1214.2436327065939},
          'cluster-jsq2': {'decisions': 2400,
                           'nodes': '44ddae6009986ac5c9e6',
                           'p50': 633.119579266992,
                           'p99': 1282.360057102986,
                           'per_node_completed': (162, 150, 150, 156, 133, 153, 146, 153, 156, 140,
                                                  145, 151, 152, 152, 151, 150),
                           'throughput': 313.92348508989846},
          'cluster-retry-only': {'completed': 6640,
                                 'e2e_p50': 1325.7630295269573,
                                 'e2e_p99': 5850.015803753773,
                                 'faults': (('completed', 4800), ('crash_drops', 0),
                                            ('crashes', 0), ('delay_spikes', 0),
                                            ('detection_latency_ns', []),
                                            ('duplicate_completions', 1840),
                                            ('false_suspicions', 0), ('hedges', 1700),
                                            ('late_completions', 956), ('lost', 0),
                                            ('msg_drops', 0), ('msg_dups', 0), ('offered', 4800),
                                            ('readmissions', 0), ('reclaimed_slots', 0),
                                            ('recoveries', 0), ('reply_suppressed', 0),
                                            ('retries', 289), ('slowdowns', 0), ('suspicions', 0),
                                            ('timeouts', 956)),
                                 'nodes': '67d03fbdd9492bcfc683',
                                 'now': 29317.921410240622,
                                 'p99': 10372.542412530009,
                                 'stalled': 10,
                                 'throughput': 226.48263180351785},
          'cluster-stalls': {'nodes': '499ff62ab6e66ffacca4',
                             'p50': 2881.834003864374,
                             'p99': 17459.356189858805,
                             'per_node_completed': (1766, 738, 494, 341, 226, 227, 177, 146, 115,
                                                    124, 95, 99, 66, 71, 56, 59),
                             'stalled': 1151,
                             'throughput': 74.92009318217731},
          'dynamic-slots': {'backend_busy_ns': (21090.0, 21150.0, 21030.0, 20730.0),
                            'completed': 2000,
                            'max_private_cq_depth': 0,
                            'max_shared_cq_depth': 8,
                            'messages': '43ad0de52f793e0733e3',
                            'p50': 742.517011083195,
                            'p99': 1269.2758492841651,
                            'processed': (121, 127, 131, 124, 127, 125, 130, 123, 126, 124, 123, 128,
                                          127, 119, 118, 127),
                            'stalled': 1975},
          'herd/16x1-source/sat': {'backend_busy_ns': (15840.0, 14310.0, 16650.0, 16200.0),
                                   'completed': 1500,
                                   'max_private_cq_depth': 30,
                                   'max_shared_cq_depth': 1,
                                   'messages': '91cedca91ba013614f87',
                                   'p50': 5522.349897723957,
                                   'p99': 15617.681946324392,
                                   'processed': (85, 100, 91, 102, 75, 85, 80, 87, 99, 103, 95, 108,
                                                 93, 106, 94, 97),
                                   'stalled': 0},
          'herd/16x1-source/sub': {'backend_busy_ns': (15840.0, 14310.0, 16650.0, 16200.0),
                                   'completed': 1500,
                                   'max_private_cq_depth': 8,
                                   'max_shared_cq_depth': 1,
                                   'messages': '80164c5e277c92a9505e',
                                   'p50': 1076.9684348564024,
                                   'p99': 4005.9389599122906,
                                   'processed': (85, 100, 91, 102, 75, 85, 80, 87, 99, 103, 95, 108,
                                                 93, 106, 94, 97),
                                   'stalled': 0},
          'herd/16x1/sat': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                            'completed': 1500,
                            'max_private_cq_depth': 31,
                            'max_shared_cq_depth': 1,
                            'messages': '57daaa30d79d3ceb1937',
                            'p50': 5458.357379096732,
                            'p99': 15482.72808846296,
                            'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96, 84, 96, 108, 91,
                                          103, 101),
                            'stalled': 0},
          'herd/16x1/sub': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                            'completed': 1500,
                            'max_private_cq_depth': 10,
                            'max_shared_cq_depth': 1,
                            'messages': '0228bff6f44074e42efa',
                            'p50': 1009.4971636209848,
                            'p99': 5303.599946547375,
                            'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96, 84, 96, 108, 91,
                                          103, 101),
                            'stalled': 0},
          'herd/1x16/sat': {'backend_busy_ns': (15870.0, 15870.0, 15720.0, 15540.0),
                            'completed': 1500,
                            'max_private_cq_depth': 0,
                            'max_shared_cq_depth': 263,
                            'messages': 'd9e5607cfff053791295',
                            'p50': 5163.19362406023,
                            'p99': 9594.47331255243,
                            'processed': (94, 97, 96, 92, 92, 92, 99, 96, 96, 97, 90, 91, 93, 93, 91,
                                          91),
                            'stalled': 0},
          'herd/1x16/sub': {'backend_busy_ns': (15810.0, 15840.0, 15720.0, 15630.0),
                            'completed': 1500,
                            'max_private_cq_depth': 0,
                            'max_shared_cq_depth': 10,
                            'messages': 'bd1143c786ca54886318',
                            'p50': 577.48934084127,
                            'p99': 1144.0730043408523,
                            'processed': (93, 94, 95, 95, 94, 95, 93, 96, 94, 93, 93, 94, 92, 93, 92,
                                          94),
                            'stalled': 0},
          'herd/4x4/sat': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                           'completed': 1500,
                           'max_private_cq_depth': 0,
                           'max_shared_cq_depth': 85,
                           'messages': 'cdf58563c22ca59fdf8f',
                           'p50': 4951.838042184381,
                           'p99': 11581.310834900367,
                           'processed': (99, 93, 97, 94, 89, 92, 90, 94, 84, 87, 88, 90, 102, 101,
                                         101, 99),
                           'stalled': 0},
          'herd/4x4/sub': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                           'completed': 1500,
                           'max_private_cq_depth': 0,
                           'max_shared_cq_depth': 11,
                           'messages': '5c505d4955c2f5e584d3',
                           'p50': 660.8438451877337,
                           'p99': 1844.1519935808892,
                           'processed': (96, 100, 96, 91, 93, 91, 89, 92, 85, 88, 90, 86, 101, 100,
                                         101, 101),
                           'stalled': 0},
          'herd/sw-1x16/sat': {'backend_busy_ns': (15780.0, 15750.0, 15780.0, 15690.0),
                               'completed': 1500,
                               'max_private_cq_depth': 0,
                               'max_shared_cq_depth': 408,
                               'messages': '760dd51815b829fc38fb',
                               'p50': 45766.22158750971,
                               'p99': 83341.4543590901,
                               'processed': (94, 94, 94, 94, 94, 94, 93, 94, 95, 93, 94, 94, 93, 94,
                                             93, 93),
                               'stalled': 0},
          'herd/sw-1x16/sub': {'backend_busy_ns': (15780.0, 15780.0, 15780.0, 15660.0),
                               'completed': 1500,
                               'max_private_cq_depth': 0,
                               'max_shared_cq_depth': 1,
                               'messages': 'f8e98b38cab8e6919942',
                               'p50': 930.6664318195326,
                               'p99': 1974.366823991726,
                               'processed': (94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 93, 93,
                                             93, 93),
                               'stalled': 0},
          'interference': {'backend_busy_ns': (16020.0, 16170.0, 15600.0, 15210.0),
                           'completed': 1500,
                           'max_private_cq_depth': 0,
                           'max_shared_cq_depth': 43,
                           'messages': '569592156d2455491551',
                           'p50': 1320.8331895945466,
                           'p99': 4728.2206441039125,
                           'processed': (90, 102, 98, 94, 105, 102, 90, 92, 96, 85, 100, 89, 90, 82,
                                         89, 96),
                           'stalled': 0},
          'onesided': {'backend_busy_ns': (23766.0, 23736.0, 23556.0, 23442.0),
                       'completed': 1500,
                       'max_private_cq_depth': 0,
                       'max_shared_cq_depth': 12,
                       'messages': '62a24262a2215e6c9f3b',
                       'onesided': (94, 94, 94, 93),
                       'p50': 603.778558099646,
                       'p99': 1163.8188442100616,
                       'processed': (93, 97, 95, 92, 94, 96, 93, 94, 93, 92, 94, 95, 95, 93, 93, 91),
                       'stalled': 0},
          'onesided-fixed-telemetry': {'backend_busy_ns': (23766.0, 23706.0, 23556.0, 23472.0),
                                       'backend_depth_hist': (1500, 1213, 358.0, 4,
                                                              ((0, 234), (7, 41), (12, 6), (15, 6))),
                                       'completed': 1500,
                                       'max_private_cq_depth': 0,
                                       'max_shared_cq_depth': 257,
                                       'messages': '3afca85621a41a245a81',
                                       'onesided': (94, 94, 94, 93),
                                       'p50': 11333.494314805135,
                                       'p99': 20345.879356805395,
                                       'private_cq_hist': (1500, 1500, 0.0, 0, ()),
                                       'processed': (95, 94, 94, 94, 94, 94, 94, 94, 94, 94, 93, 93,
                                                     94, 93, 93, 93),
                                       'series': '053252421cc97a7c3076',
                                       'stalled': 0},
          'rendezvous': {'backend_busy_ns': (14865.0, 14325.0, 13845.0, 15465.0),
                         'completed': 1500,
                         'max_private_cq_depth': 0,
                         'max_shared_cq_depth': 12,
                         'messages': '5ee71fb233ea0df40f3e',
                         'p50': 2043.5713900427363,
                         'p99': 5146.752830379509,
                         'processed': (94, 98, 95, 96, 91, 91, 92, 91, 89, 86, 88, 86, 100, 100, 104,
                                       99),
                         'stalled': 0},
          'synthetic-exponential/16x1-source/sat': {'backend_busy_ns': (15840.0, 14310.0, 16650.0,
                                                                        16200.0),
                                                    'completed': 1500,
                                                    'max_private_cq_depth': 29,
                                                    'max_shared_cq_depth': 1,
                                                    'messages': '6418117c6104d48e8548',
                                                    'p50': 12454.162577198458,
                                                    'p99': 34465.90586842397,
                                                    'processed': (85, 100, 91, 102, 75, 85, 80, 87,
                                                                  99, 103, 95, 108, 93, 106, 94,
                                                                  97),
                                                    'stalled': 0},
          'synthetic-exponential/16x1-source/sub': {'backend_busy_ns': (15840.0, 14310.0, 16650.0,
                                                                        16200.0),
                                                    'completed': 1500,
                                                    'max_private_cq_depth': 8,
                                                    'max_shared_cq_depth': 1,
                                                    'messages': 'eb889544bf235814d37c',
                                                    'p50': 2083.5830991191597,
                                                    'p99': 8504.555067954903,
                                                    'processed': (85, 100, 91, 102, 75, 85, 80, 87,
                                                                  99, 103, 95, 108, 93, 106, 94,
                                                                  97),
                                                    'stalled': 0},
          'synthetic-exponential/16x1/sat': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                             'completed': 1500,
                                             'max_private_cq_depth': 34,
                                             'max_shared_cq_depth': 1,
                                             'messages': 'af9b16d8cac65187c14c',
                                             'p50': 12840.611909079962,
                                             'p99': 34107.09240493016,
                                             'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96,
                                                           84, 96, 108, 91, 103, 101),
                                             'stalled': 0},
          'synthetic-exponential/16x1/sub': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                             'completed': 1500,
                                             'max_private_cq_depth': 9,
                                             'max_shared_cq_depth': 1,
                                             'messages': '80064de05aa57f3d70be',
                                             'p50': 2036.403402091266,
                                             'p99': 8972.188145035087,
                                             'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96,
                                                           84, 96, 108, 91, 103, 101),
                                             'stalled': 0},
          'synthetic-exponential/1x16/sat': {'backend_busy_ns': (15960.0, 15720.0, 15930.0, 15390.0),
                                             'completed': 1500,
                                             'max_private_cq_depth': 0,
                                             'max_shared_cq_depth': 264,
                                             'messages': '9597d2cf9de0c85f9ba4',
                                             'p50': 12122.958906423282,
                                             'p99': 20798.504516515426,
                                             'processed': (97, 95, 94, 96, 94, 90, 96, 94, 95, 95,
                                                           94, 97, 85, 94, 92, 92),
                                             'stalled': 0},
          'synthetic-exponential/1x16/sub': {'backend_busy_ns': (15870.0, 15660.0, 15720.0, 15750.0),
                                             'completed': 1500,
                                             'max_private_cq_depth': 0,
                                             'max_shared_cq_depth': 8,
                                             'messages': '6d9651bffbd50fc5fa01',
                                             'p50': 1181.7507851617047,
                                             'p99': 2363.3070520151873,
                                             'processed': (93, 96, 95, 95, 92, 94, 94, 92, 94, 93,
                                                           94, 93, 94, 96, 95, 90),
                                             'stalled': 0},
          'synthetic-exponential/4x4/sat': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                            'completed': 1500,
                                            'max_private_cq_depth': 0,
                                            'max_shared_cq_depth': 92,
                                            'messages': '39e1c8674b1de6d69172',
                                            'p50': 11851.537382154816,
                                            'p99': 27120.987001596142,
                                            'processed': (96, 96, 97, 94, 92, 90, 92, 91, 89, 85, 89,
                                                          86, 99, 102, 99, 103),
                                            'stalled': 0},
          'synthetic-exponential/4x4/sub': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                            'completed': 1500,
                                            'max_private_cq_depth': 0,
                                            'max_shared_cq_depth': 9,
                                            'messages': '0c8e9f726ee1ff33f9b0',
                                            'p50': 1331.8161904214976,
                                            'p99': 3345.780817452172,
                                            'processed': (95, 95, 96, 97, 93, 92, 87, 93, 88, 87, 86,
                                                          88, 101, 100, 102, 100),
                                            'stalled': 0},
          'synthetic-exponential/sw-1x16/sat': {'backend_busy_ns': (15840.0, 15750.0, 15660.0,
                                                                    15750.0),
                                                'completed': 1500,
                                                'max_private_cq_depth': 0,
                                                'max_shared_cq_depth': 412,
                                                'messages': '2f07f05936a88a6c0ed9',
                                                'p50': 46509.098609712644,
                                                'p99': 84006.44706231268,
                                                'processed': (95, 95, 94, 94, 94, 95, 94, 92, 93, 93,
                                                              93, 93, 95, 93, 93, 94),
                                                'stalled': 0},
          'synthetic-exponential/sw-1x16/sub': {'backend_busy_ns': (15750.0, 15750.0, 15780.0,
                                                                    15720.0),
                                                'completed': 1500,
                                                'max_private_cq_depth': 0,
                                                'max_shared_cq_depth': 1,
                                                'messages': '099102dff6a8329e93e4',
                                                'p50': 1548.5560533902608,
                                                'p99': 2888.592631771965,
                                                'processed': (93, 94, 94, 94, 94, 94, 93, 94, 94, 94,
                                                              94, 94, 94, 94, 94, 92),
                                                'stalled': 0},
          'synthetic-fixed/16x1-source/sat': {'backend_busy_ns': (15840.0, 14310.0, 16650.0,
                                                                  16200.0),
                                              'completed': 1500,
                                              'max_private_cq_depth': 31,
                                              'max_shared_cq_depth': 1,
                                              'messages': '10fb1e744a124293ab5e',
                                              'p50': 11969.077127959568,
                                              'p99': 34386.00648295172,
                                              'processed': (85, 100, 91, 102, 75, 85, 80, 87, 99,
                                                            103, 95, 108, 93, 106, 94, 97),
                                              'stalled': 0},
          'synthetic-fixed/16x1-source/sub': {'backend_busy_ns': (15840.0, 14310.0, 16650.0,
                                                                  16200.0),
                                              'completed': 1500,
                                              'max_private_cq_depth': 8,
                                              'max_shared_cq_depth': 1,
                                              'messages': 'e8fcaeeed52f44bcc06e',
                                              'p50': 2087.4370002124997,
                                              'p99': 7797.118822348797,
                                              'processed': (85, 100, 91, 102, 75, 85, 80, 87, 99,
                                                            103, 95, 108, 93, 106, 94, 97),
                                              'stalled': 0},
          'synthetic-fixed/16x1/sat': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                       'completed': 1500,
                                       'max_private_cq_depth': 30,
                                       'max_shared_cq_depth': 1,
                                       'messages': '84a538efafaea3cd498c',
                                       'p50': 12599.925825657854,
                                       'p99': 33633.828563953066,
                                       'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96, 84, 96,
                                                     108, 91, 103, 101),
                                       'stalled': 0},
          'synthetic-fixed/16x1/sub': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                       'completed': 1500,
                                       'max_private_cq_depth': 8,
                                       'max_shared_cq_depth': 1,
                                       'messages': '6894cf4c9dc52a581c92',
                                       'p50': 2058.907620335194,
                                       'p99': 8556.911659562824,
                                       'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96, 84, 96,
                                                     108, 91, 103, 101),
                                       'stalled': 0},
          'synthetic-fixed/1x16/sat': {'backend_busy_ns': (15810.0, 15780.0, 15720.0, 15690.0),
                                       'completed': 1500,
                                       'max_private_cq_depth': 0,
                                       'max_shared_cq_depth': 257,
                                       'messages': '1d4888403deb1c7319ed',
                                       'p50': 11311.304793815907,
                                       'p99': 20311.01134555121,
                                       'processed': (95, 94, 94, 94, 94, 94, 94, 94, 94, 94, 93, 93,
                                                     94, 93, 93, 93),
                                       'stalled': 0},
          'synthetic-fixed/1x16/sub': {'backend_busy_ns': (15780.0, 15780.0, 15750.0, 15690.0),
                                       'completed': 1500,
                                       'max_private_cq_depth': 0,
                                       'max_shared_cq_depth': 8,
                                       'messages': '2559df47bdb73f2fa0d5',
                                       'p50': 1229.0,
                                       'p99': 1660.918420436867,
                                       'processed': (94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 93,
                                                     94, 93, 93, 93),
                                       'stalled': 0},
          'synthetic-fixed/4x4/sat': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                      'completed': 1500,
                                      'max_private_cq_depth': 0,
                                      'max_shared_cq_depth': 91,
                                      'messages': '19fe98bae6468bd40649',
                                      'p50': 11505.975764960805,
                                      'p99': 26822.176875256817,
                                      'processed': (96, 96, 96, 95, 92, 91, 91, 91, 89, 87, 87, 86,
                                                    101, 101, 101, 100),
                                      'stalled': 0},
          'synthetic-fixed/4x4/sub': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                                      'completed': 1500,
                                      'max_private_cq_depth': 0,
                                      'max_shared_cq_depth': 9,
                                      'messages': '2019809d627e3d2a85c1',
                                      'p50': 1229.0,
                                      'p99': 2990.3318856913475,
                                      'processed': (96, 96, 96, 95, 92, 91, 91, 91, 88, 87, 87, 87,
                                                    101, 101, 101, 100),
                                      'stalled': 0},
          'synthetic-fixed/sw-1x16/sat': {'backend_busy_ns': (15780.0, 15780.0, 15780.0, 15660.0),
                                          'completed': 1500,
                                          'max_private_cq_depth': 0,
                                          'max_shared_cq_depth': 411,
                                          'messages': 'a4d1081ff14c2b67e6ae',
                                          'p50': 46361.79893418756,
                                          'p99': 84051.9990867348,
                                          'processed': (94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 94,
                                                        94, 93, 93, 93, 93),
                                          'stalled': 0},
          'synthetic-fixed/sw-1x16/sub': {'backend_busy_ns': (15780.0, 15780.0, 15780.0, 15660.0),
                                          'completed': 1500,
                                          'max_private_cq_depth': 0,
                                          'max_shared_cq_depth': 1,
                                          'messages': '523475aa5a3ddcaacf7d',
                                          'p50': 1551.6603789439541,
                                          'p99': 2426.2904540476775,
                                          'processed': (94, 94, 94, 94, 94, 94, 94, 94, 94, 94, 94,
                                                        94, 93, 93, 93, 93),
                                          'stalled': 0},
          'telemetry': {'backend_busy_ns': (15990.0, 15450.0, 14970.0, 16590.0),
                        'backend_depth_hist': (1500, 1379, 126.0, 2, ((0, 116), (7, 5))),
                        'completed': 1500,
                        'max_private_cq_depth': 18,
                        'max_shared_cq_depth': 1,
                        'messages': '38ab548472894802a063',
                        'p50': 3837.159323211308,
                        'p99': 17568.75882390178,
                        'private_cq_hist': (1500, 198, 4634.0, 18,
                                            ((0, 309), (7, 268), (12, 210), (15, 176), (18, 110),
                                             (20, 71), (22, 62), (23, 27), (25, 16), (26, 13),
                                             (27, 7), (28, 10), (29, 2), (30, 5), (31, 9), (32, 3),
                                             (33, 4))),
                        'processed': (101, 92, 97, 93, 71, 99, 98, 97, 73, 96, 84, 96, 108, 91, 103,
                                      101),
                        'series': '146335870c1262b4a5ab',
                        'stalled': 0}}


@pytest.mark.parametrize("case", sorted(CASES))
def test_des_golden(case):
    observed = CASES[case]()
    assert observed == GOLDEN[case]
