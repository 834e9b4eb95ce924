"""Periodic call chains: heartbeats, the failure detector, broadcasts.

Each chain starts with one zero-delay hop and then costs exactly one
kernel call per tick; everything else a tick schedules is a delivery.
One final tick fires after the traffic drains, and a drained run
leaves the schedule empty.
"""

from collections import Counter

from repro.cluster import Cluster
from repro.faults import FaultPlan, NodeCrash, RetryConfig
from repro.rack import RackRouter
from repro.sim import Environment

HOP = "Cluster.repeat_until_drained.<locals>.check"
TICK = "Cluster.repeat_until_drained.<locals>.tick"


def _ids_drawn(env):
    """Calls scheduled so far (reads the counter without consuming it)."""
    return int(repr(env._eid)[len("count(") : -1])


class ChainRecorder:
    """Counts scheduled calls by target, and ids drawn inside tick bodies."""

    def __init__(self, monkeypatch):
        self.scheduled = Counter()
        self.ticks = Counter()
        self.drawn = Counter()
        self.after_drain = Counter()
        original = Environment.schedule_call
        scheduled = self.scheduled

        def counting(env, delay, fn, *args):
            scheduled[fn.__qualname__] += 1
            original(env, delay, fn, *args)

        monkeypatch.setattr(Environment, "schedule_call", counting)

    def wrap(self, owner, name, cluster):
        body = getattr(owner, name)

        def counted(*args):
            self.after_drain[name] += cluster.traffic_drained()
            before = _ids_drawn(cluster.env)
            body(*args)
            self.drawn[name] += _ids_drawn(cluster.env) - before
            self.ticks[name] += 1

        setattr(owner, name, counted)


def test_heartbeat_and_detector_ticks_cost_one_call_each(monkeypatch):
    recorder = ChainRecorder(monkeypatch)
    router = RackRouter("jsq2", "piggyback", suspect_after_ns=4_000.0)
    cluster = Cluster(
        num_nodes=4,
        seed=0,
        router=router,
        faults=FaultPlan(
            events=(NodeCrash(node=2, at_ns=20_000.0, outage_ns=25_000.0),),
            drop_prob=0.05,
        ),
        retry=RetryConfig(timeout_ns=8_000.0),
    )
    recorder.wrap(router, "_heartbeat", cluster)
    recorder.wrap(router, "_detect", cluster)
    result = cluster.run(per_node_mrps=16.0, requests_per_node=1_200)

    ticks = recorder.ticks["_heartbeat"] + recorder.ticks["_detect"]
    assert recorder.ticks["_detect"] > 10
    assert result.fault_stats.suspicions >= 1  # the detector did work
    # One start hop per chain (four heartbeats, one detector), then
    # one kernel call per tick.
    assert recorder.scheduled[HOP] == 5
    assert recorder.scheduled[TICK] == ticks
    # A heartbeat tick schedules only its (possibly dropped or
    # duplicated) delivery; a detector sweep schedules nothing.
    assert recorder.drawn["_heartbeat"] == recorder.scheduled[
        "RackRouter._heartbeat_received"
    ]
    assert recorder.drawn["_detect"] == 0
    # Each chain's last tick fires after the drain, then the chain stops.
    assert recorder.after_drain == Counter(_heartbeat=4, _detect=1)
    assert cluster.env.peek() == float("inf")


def test_broadcast_ticks_cost_one_call_each(monkeypatch):
    recorder = ChainRecorder(monkeypatch)
    router = RackRouter("jsq2", "broadcast:2000")
    cluster = Cluster(num_nodes=4, seed=0, router=router)
    recorder.wrap(router.signal, "_broadcast", cluster)
    cluster.run(per_node_mrps=16.0, requests_per_node=600)

    ticks = recorder.ticks["_broadcast"]
    assert ticks > 4 * 10
    assert recorder.scheduled[HOP] == 4
    assert recorder.scheduled[TICK] == ticks
    # Fault-free: every broadcast reaches the three other nodes.
    deliveries = recorder.scheduled["BroadcastSignal._deliver"]
    assert recorder.drawn["_broadcast"] == deliveries == 3 * ticks
    assert recorder.after_drain == Counter(_broadcast=4)
    assert cluster.env.peek() == float("inf")
