"""Conservation as a property over random rack scenarios on both per-RPC tiers.

Every logical RPC a client offers either completes or is lost, counted
client-side, whatever the tier, policy, load, fleet size or crash
timing. A fault-free run has no fault accounting and completes every
request it generates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.fastpath import simulate_rack_fast
from repro.faults import FaultPlan, NodeCrash
from repro.rack import RackRouter

scenarios = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["random", "rr", "jsq2", "sed"]),
        "signal": st.sampled_from(["fresh", "piggyback"]),
        "skew": st.sampled_from([0.0, 0.8]),
        "per_node_mrps": st.floats(min_value=4.0, max_value=24.0),
        "requests_per_node": st.integers(min_value=20, max_value=80),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)

crashes = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.0, max_value=0.9),
        st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.5)),
    ),
)


def _run(tier, num_nodes, scenario, faults):
    if tier == "fast":
        return simulate_rack_fast(num_nodes, faults=faults, **scenario)
    router = RackRouter(
        scenario["policy"], scenario["signal"], skew=scenario["skew"]
    )
    cluster = Cluster(
        num_nodes=num_nodes, seed=scenario["seed"], router=router, faults=faults
    )
    return cluster.run(
        per_node_mrps=scenario["per_node_mrps"],
        requests_per_node=scenario["requests_per_node"],
    )


def _plan(num_nodes, scenario, crash):
    """A one-node crash at a fraction of the nominal horizon, or None."""
    if crash is None:
        return None
    node, at, outage = crash
    horizon_ns = scenario["requests_per_node"] / scenario["per_node_mrps"] * 1e3
    return FaultPlan(events=(NodeCrash(
        node=node % num_nodes,
        at_ns=at * horizon_ns,
        outage_ns=None if outage is None else outage * horizon_ns,
    ),))


@given(
    tier=st.sampled_from(["des", "fast"]),
    num_nodes=st.integers(min_value=2, max_value=5),
    scenario=scenarios,
    crash=crashes,
)
@settings(max_examples=100, deadline=None)
def test_offered_equals_completed_plus_lost(tier, num_nodes, scenario, crash):
    faults = _plan(num_nodes, scenario, crash)
    result = _run(tier, num_nodes, scenario, faults)
    generated = num_nodes * scenario["requests_per_node"]
    if faults is None:
        assert result.fault_stats is None
        assert result.completed == generated
        return
    stats = result.fault_stats
    assert stats.offered == result.offered == generated
    assert stats.offered == stats.completed + result.lost
