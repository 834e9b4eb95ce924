"""The fast tier's one sequential loop, and what its front-ends share.

Load-aware routing is state-dependent, so every sequential fast run — a
rack under JSQ(d)/SED, binding send slots or faults, and every
datacenter hierarchy — routes RPCs one at a time through
:func:`run_loop`. Only routing differs between a rack and a
datacenter, so a routing front-end is three callbacks:

* ``route(index, client, now) -> dst`` picks the destination;
* ``admit(index, client, dst, entered_at) -> bool`` books the RPC and
  says whether it starts service now; ``False`` means the front-end
  queued it (a send blocked on its slot pool, a JBSQ ToR hold);
* ``release(when, dst, client) -> (index, entered_at) | None`` books
  one departure and may hand back a queued RPC, which starts service
  on ``dst`` at ``when`` with its sojourn clock running from
  ``entered_at``.

The rack front-end lives in :mod:`repro.fastpath.fastcluster`, the
datacenter one in :mod:`repro.datacenter.fastdc`; both also share this
module's validation, batching, fault timeline and result assembly.

Every routing variate of a sequential run — candidate samples, tie
breaks, the 16x1 lane draws — comes from one :class:`RoutingStream`.
It reads the routing generator's raw words in chunks and hands out
exactly the values ``Generator.random()`` and
``Generator.integers(low, high)`` would, in the same order, at a
fraction of numpy's per-call cost. A front-end wraps the generator
once, after its vectorized draws; from then on the stream is the
generator's only consumer, because it has read words ahead of use.
"""

from __future__ import annotations

import itertools
import math
from array import array
from heapq import heappop, heappush, heapreplace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.cluster import ClusterResult, check_load, check_speed_factors
from ..metrics import LatencySummary
from ..rack.router import RouterStats

__all__ = [
    "FaultTimeline", "RoutingStream", "build_result", "check_scenario", "run_loop",
    "sample_requests",
]


def check_scenario(
    num_nodes: int, per_node_mrps: float, requests_per_node: int, warmup_fraction: float,
    cores: Sequence[int], speeds: Sequence[float],
) -> None:
    """Reject a scenario the fast engines cannot run, before any probe.

    The load and speed checks are the DES cluster's own, word for word.
    """
    check_load(per_node_mrps, requests_per_node, warmup_fraction)
    if len(cores) != num_nodes:
        raise ValueError(f"core_counts has {len(cores)} entries for {num_nodes} nodes")
    check_speed_factors(speeds, num_nodes)
    if any(count < 1 for count in cores):
        raise ValueError(f"core counts must be >= 1, got {list(cores)!r}")


def sample_requests(
    num_clients: int, per_client: int, per_node_mrps: float, arrival_process, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.random.Generator]:
    """Arrival times, clients and processing times, merged in time order.

    One exponential batch per client stream (or one ``sample_gaps``
    sweep of ``arrival_process`` per client, mirroring how each DES
    node draws its own gap batch) and one vectorized workload draw per
    client, merged by a single stable argsort. The fourth element is
    the routing generator; a sequential run wraps it in a
    :class:`RoutingStream` once its vectorized draws are done.
    """
    from ..workloads import HerdWorkload

    arrival_rng, service_rng, route_rng = (
        np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)
    )
    if arrival_process is not None:
        gaps = np.stack(
            [arrival_process.sample_gaps(arrival_rng, per_client) for _ in range(num_clients)]
        )
    else:
        gaps = arrival_rng.exponential(1e3 / per_node_mrps, size=(num_clients, per_client))
    flat_times = np.cumsum(gaps, axis=1).ravel()
    order = np.argsort(flat_times, kind="stable")
    workload = HerdWorkload()
    processing = np.concatenate(
        [workload.sample_batch(service_rng, per_client)[0] for _ in range(num_clients)]
    )
    clients = np.repeat(np.arange(num_clients), per_client)
    return flat_times[order], clients[order], processing[order], route_rng


#: Raw 64-bit words a :class:`RoutingStream` converts per refill.
_CHUNK = 4096
_LOW32 = 0xFFFFFFFF
_SPAN32 = 1 << 32


class RoutingStream:
    """A PCG64 generator's ``random()``/``integers()`` draws, bit for bit.

    A scalar numpy call costs microseconds (about 0.5 µs for
    ``random()`` and 2 µs for ``integers(0, 16)`` on a 2-vCPU VM); this
    stream converts a chunk of raw words with vectorized numpy and then
    costs one method call and a list index per draw (about 0.2 and
    0.45 µs there). It reproduces numpy's scalar paths:

    * ``random()`` is ``(word >> 11) * 2**-53`` (``next_double``);
    * ``integers(low, high)`` with ``n = high - low`` in ``[2, 2**32]``
      is the 32-bit Lemire path: ``m = next32() * n``, redrawn while
      ``m mod 2**32 < (2**32 - n) % n`` (checked only when it is below
      ``n``), returning ``low + (m >> 32)``; ``n == 1`` returns ``low``
      and draws nothing;
    * ``next32()`` keeps PCG64's half-word buffer: a fresh word yields
      its low 32 bits and parks the high 32 bits for the next
      ``next32()``; ``random()`` leaves the buffer alone. A half-word
      pending in the generator at construction is picked up.

    Anything else — a non-PCG64 bit generator (``TypeError``), or
    ``n < 1`` / ``n > 2**32``, numpy's 64-bit path (``ValueError``) —
    is rejected rather than approximated. The stream reads words ahead
    of use, so once built it must be the generator's only consumer.
    """

    __slots__ = ("_bit_generator", "_doubles", "_low", "_high", "_pos", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"RoutingStream reproduces PCG64 only, got {type(bit_generator).__name__}"
            )
        state = bit_generator.state
        self._bit_generator = bit_generator
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._doubles: List[float] = []
        self._low: List[int] = []
        self._high: List[int] = []
        self._pos = _CHUNK

    def _refill(self) -> None:
        words = self._bit_generator.random_raw(_CHUNK)
        # words >> 11 < 2**53 converts to float64 exactly.
        self._doubles = ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()
        self._low = (words & np.uint64(_LOW32)).tolist()
        self._high = (words >> np.uint64(32)).tolist()
        self._pos = 0

    def random(self) -> float:
        pos = self._pos
        if pos == _CHUNK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._doubles[pos]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        pos = self._pos
        if pos == _CHUNK:
            self._refill()
            pos = 0
        self._pos = pos + 1
        self._half = self._high[pos]
        return self._low[pos]

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if not 1 < n <= _SPAN32:
            if n == 1:
                return low
            raise ValueError(f"RoutingStream draws ranges of 1 to 2**32 values, got {n}")
        m = self._next32() * n
        if m & _LOW32 < n:
            threshold = (_SPAN32 - n) % n
            while m & _LOW32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)


class FaultTimeline:
    """One materialized :class:`~repro.faults.FaultPlan`, as flat windows.

    The DES injector executes the plan as scheduled callbacks; the fast
    tier has no event kernel, so the same materialized events become
    per-node window lists the loop probes by containment (plans hold a
    handful of events — linear scans beat any index). The fabric stream
    reuses the DES's ``"faults.fabric"`` name from a
    :class:`~repro.sim.RngRegistry`, so fault-free runs draw nothing.
    """

    def __init__(self, plan, num_nodes: int, horizon_ns: float, seed: int) -> None:
        from ..faults import FaultStats
        from ..faults.plan import FabricDegradation, NodeCrash, NodeSlowdown
        from ..sim import RngRegistry

        self.plan = plan
        self.stats = FaultStats()
        self.crash_windows: List[List[tuple]] = [[] for _ in range(num_nodes)]
        self.slow_windows: List[List[tuple]] = [[] for _ in range(num_nodes)]
        self.fabric_windows: List[tuple] = []
        for event in plan.materialize(num_nodes, horizon_ns, seed):
            if isinstance(event, NodeCrash):
                outage = event.outage_ns if event.outage_ns is not None else math.inf
                self.crash_windows[event.node].append((event.at_ns, event.at_ns + outage))
            elif isinstance(event, NodeSlowdown):
                self.slow_windows[event.node].append(
                    (event.at_ns, event.at_ns + event.duration_ns, event.factor)
                )
            elif isinstance(event, FabricDegradation):
                self.fabric_windows.append((event.at_ns, event.at_ns + event.duration_ns, event))
            # SignalBlackout: the fast tier's load signals are synchronous
            # state reads with nothing to go dark; a blackout is a no-op.
        for windows in self.crash_windows:
            windows.sort()
        self.fabric_windows.sort(key=lambda window: window[0])
        #: (recovery_time, node) boundaries for server-free-time surgery.
        self.recoveries = sorted(
            (end, node)
            for node, windows in enumerate(self.crash_windows)
            for (_start, end) in windows
            if end != math.inf
        )
        self.fabric_rng = (
            RngRegistry(seed).stream("faults.fabric")
            if plan.has_fabric_noise or self.fabric_windows
            else None
        )

    @classmethod
    def of(cls, plan, num_nodes: int, times: np.ndarray, seed: int):
        """The run's timeline, or None for no (or a trivial) plan.

        The same (plan, node count, horizon, seed) materialization the
        DES injector schedules from, so both tiers see one timeline.
        """
        if plan is None or getattr(plan, "is_trivial", False):
            return None
        return cls(plan, num_nodes, float(times[-1]), seed)

    def node_down(self, node: int, t_ns: float) -> bool:
        return any(start <= t_ns < end for start, end in self.crash_windows[node])

    def speed_factor(self, node: int, t_ns: float) -> float:
        factor = 1.0
        # Overlapping windows compound, like the DES injector.
        for start, end, window_factor in self.slow_windows[node]:
            if start <= t_ns < end:
                factor *= window_factor
        return factor

    def fabric_fate(self, t_ns: float) -> tuple:
        """(dropped, extra_delay_ns) for one request's fabric traversal.

        Mirrors ``FaultInjector.transmit``'s draw order — drop, then
        spike, then dup. Draws only while fabric faults are live, so
        the stream stays aligned with configured windows.
        """
        active = [window for start, end, window in self.fabric_windows if start <= t_ns < end]
        if self.fabric_rng is None or not (active or self.plan.has_fabric_noise):
            return False, 0.0
        drop, dup, spike, spike_ns = self.plan.fabric_probs(active)
        rng = self.fabric_rng
        if rng.random() < drop:
            self.stats.msg_drops += 1
            return True, 0.0
        delay = 0.0
        if spike > 0 and rng.random() < spike:
            self.stats.delay_spikes += 1
            delay = spike_ns
        if dup > 0 and rng.random() < dup:
            # Counted only: the receiver dedups, so the duplicate costs
            # fabric accounting but no second service.
            self.stats.msg_dups += 1
        return False, delay

    def finalize(self, elapsed_ns: float, total: int, lost: int) -> list:
        """Fill timeline stats and return per-node availability."""
        stats = self.stats
        stats.offered = total
        stats.completed = total - lost
        stats.lost = lost
        availability = []
        for windows in self.crash_windows:
            down_ns = 0.0
            for start, end in windows:
                if start <= elapsed_ns:
                    stats.crashes += 1
                    down_ns += min(end, elapsed_ns) - start
                    if end <= elapsed_ns:
                        stats.recoveries += 1
            availability.append(
                max(0.0, 1.0 - down_ns / elapsed_ns) if elapsed_ns > 0 else 1.0
            )
        for windows in self.slow_windows:
            stats.slowdowns += sum(1 for start, _end, _factor in windows if start <= elapsed_ns)
        return availability


def run_loop(
    requests: tuple,
    route: Callable[[int, int, float], int],
    admit: Callable[[int, int, int, float], bool],
    release: Callable[[float, int, int], Optional[tuple]],
    cores: Sequence[int], speeds: Sequence[float],
    occupancy: Sequence[float], shift: Sequence[float],
    one_queue: bool = True, timeline: Optional[FaultTimeline] = None,
):
    """Route and serve :func:`sample_requests`' requests in arrival order.

    Node ``n`` runs ``cores[n]`` servers — one shared FIFO
    (``one_queue``, the 1x16 scheme) or per-core FIFOs picked uniformly
    from the routing stream (16x1) — at ``speeds[n]`` times nominal;
    every RPC occupies its server for ``processing / speed +
    occupancy[n]`` and pays ``shift[n]`` of pipelined latency on its
    sojourn. Departures drain through one ``heapq`` keyed ``(time,
    seq)``, so simultaneous departures leave in submission order.

    With a fault ``timeline``, each request rolls its fabric fate after
    routing (drop / delay spike / counted dup), requests routed to a
    node inside a crash window are dropped as ``crash_drops``, a
    recovery boundary floors the node's server-free times (the outage
    froze its servers), and slowdown windows scale the speed of
    requests that start service inside them. Dropped requests never
    reach ``admit``.

    ``requests`` is :func:`sample_requests`' tuple with the routing
    generator swapped for the :class:`RoutingStream` the front-end's
    ``route`` draws from, so lane and routing draws interleave on one
    stream. Returns ``(dsts, sojourns, departures, dropped)``;
    ``dropped`` is None without a timeline.
    """
    times, clients, processing, stream = requests
    total = times.size
    # Per-request state lives in ``array`` buffers: 8 bytes an entry
    # like numpy, but indexing yields plain Python numbers, which keeps
    # the per-RPC arithmetic off numpy scalars.
    clients = array("q", clients.astype(np.int64).tobytes())
    processing = array("d", processing.tobytes())
    speeds = [float(speed) for speed in speeds]
    occupancy = [float(value) for value in occupancy]
    shift = [float(value) for value in shift]
    dsts = array("q", bytes(8 * total))
    sojourns = array("d", bytes(8 * total))
    departures = array("d", bytes(8 * total))
    dropped = np.zeros(total, dtype=bool) if timeline is not None else None

    # All-zero free times are already a valid heap.
    servers = [[0.0] * node_cores for node_cores in cores]
    heap: List[tuple] = []
    seq = itertools.count()
    integers = stream.integers

    def submit(index: int, start_at: float, dst: int, entered_at: float) -> None:
        speed = speeds[dst]
        if timeline is not None:
            speed *= timeline.speed_factor(dst, start_at)
        service = processing[index] / speed + occupancy[dst]
        free_times = servers[dst]
        if one_queue:
            free = free_times[0]
            depart = (start_at if start_at > free else free) + service
            heapreplace(free_times, depart)
        else:
            lane = integers(0, len(free_times))
            free = free_times[lane]
            depart = (start_at if start_at > free else free) + service
            free_times[lane] = depart
        dsts[index] = dst
        departures[index] = depart
        sojourns[index] = depart - entered_at + shift[dst]
        heappush(heap, (depart, next(seq), dst, clients[index]))

    def drain(upto: float) -> None:
        while heap and heap[0][0] <= upto:
            when, _seq, dst, client = heappop(heap)
            queued = release(when, dst, client)
            if queued is not None:
                submit(queued[0], when, dst, queued[1])

    recoveries = (timeline.recoveries if timeline is not None else []) + [(math.inf, -1)]
    cursor = 0
    for index, now in enumerate(array("d", times.tobytes())):
        while recoveries[cursor][0] <= now:
            # Recovery boundary: the outage froze the node's servers, so
            # nothing starts before this instant. Flooring is monotone,
            # so a server-free heap stays a heap.
            rec_time, rec_node = recoveries[cursor]
            cursor += 1
            free_times = servers[rec_node]
            for lane, free in enumerate(free_times):
                if free < rec_time:
                    free_times[lane] = rec_time
        drain(now)
        client = clients[index]
        dst = route(index, client, now)

        entered_at = now
        if timeline is not None:
            # Fabric traversal first, then delivery-time liveness — the
            # DES injector's order.
            fabric_drop, spike_delay = timeline.fabric_fate(now)
            entered_at = now + spike_delay
            if fabric_drop or timeline.node_down(dst, entered_at):
                if not fabric_drop:
                    timeline.stats.crash_drops += 1
                dropped[index] = True
                dsts[index] = dst
                departures[index] = now
                sojourns[index] = math.nan
                continue
        if admit(index, client, dst, entered_at):
            submit(index, entered_at, dst, entered_at)
    drain(math.inf)
    return (
        np.frombuffer(dsts, dtype=np.int64),
        np.frombuffer(sojourns),
        np.frombuffer(departures),
        dropped,
    )


def build_result(
    num_nodes: int, dsts: np.ndarray, sojourns: np.ndarray, departures: np.ndarray,
    dropped: Optional[np.ndarray], stalled: Sequence[int], per_client: int,
    warmup_fraction: float, timeline: Optional[FaultTimeline], stats: RouterStats,
    errors: Optional[np.ndarray] = None, telemetry: bool = False,
) -> ClusterResult:
    """Assemble one fast run's :class:`~repro.cluster.cluster.ClusterResult`.

    ``stats`` arrives with its labels set; routed counts, decisions and
    signal-error totals are filled here. The first ``warmup_fraction``
    of requests (arrival order) and every dropped request are left out
    of the latency summaries.
    """
    total = dsts.size
    skip = int(total * warmup_fraction)
    kept_sojourns = sojourns[skip:]
    kept_dsts = dsts[skip:]
    if dropped is not None:
        kept_ok = ~dropped[skip:]
        kept_sojourns = kept_sojourns[kept_ok]
        kept_dsts = kept_dsts[kept_ok]
    per_node = [
        LatencySummary.from_values(kept_sojourns[kept_dsts == node])
        if np.any(kept_dsts == node)
        else LatencySummary.empty()
        for node in range(num_nodes)
    ]

    elapsed_ns = float(departures.max())
    routed_counts = np.bincount(dsts, minlength=num_nodes)
    stats.routed = [int(count) for count in routed_counts]
    stats.decisions = total
    if errors is not None:
        stats.signal_error_sum = float(errors.sum())
        stats.signal_error_count = int(errors.size)

    lost = int(np.count_nonzero(dropped)) if dropped is not None else 0
    completed = total - lost
    throughput = completed / elapsed_ns * 1e3 if elapsed_ns > 0 else 0.0
    faulted = timeline is not None
    completed_counts = (
        np.bincount(dsts[~dropped], minlength=num_nodes) if faulted else routed_counts
    )
    return ClusterResult(
        num_nodes=num_nodes,
        aggregate=LatencySummary.from_values(kept_sojourns),
        per_node=per_node,
        total_throughput_mrps=throughput,
        stall_fractions=[int(count) / per_client for count in stalled],
        completed=completed,
        per_node_completed=[int(count) for count in completed_counts],
        router_stats=stats,
        telemetry=_build_snapshot(routed_counts, errors) if telemetry else None,
        offered=total if faulted else 0,
        lost=lost,
        goodput_mrps=throughput if faulted else 0.0,
        availability=timeline.finalize(elapsed_ns, total, lost) if faulted else None,
        fault_stats=timeline.stats if faulted else None,
    )


def _build_snapshot(routed_counts: np.ndarray, errors: Optional[np.ndarray]):
    """A minimal telemetry snapshot matching the DES router's metrics."""
    from ..telemetry import TelemetrySnapshot
    from ..telemetry.primitives import Counter, Histogram

    counters = {}
    for node, routed in enumerate(routed_counts):
        name = f"rack.routed[node{node}]"
        counter = Counter(name)
        counter.inc(int(routed))
        counters[name] = counter
    histograms = {}
    if errors is not None and errors.size:
        histogram = Histogram("rack.signal_error")
        histogram.record_many(errors[errors > 0])
        histograms["rack.signal_error"] = histogram
    return TelemetrySnapshot(counters=counters, histograms=histograms)
