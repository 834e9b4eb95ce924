"""Fast-tier golden values: exact outputs of fixed rack and datacenter runs.

Like ``tests/test_des_golden.py``, every value below was recorded from
the engine and is compared with ``==``. The fast tier is deterministic
per seed, so a change to the routing draw order, the lane draws of a
16x1 node, the scheduler tie-breaks or the departure arithmetic shows up
as a changed percentile or per-node digest. A refactor of the routing
stream or the scheduler scoring must leave the table untouched.

The grid covers every datacenter hierarchy under each spine policy at
uniform and Zipf-1.2 rack popularity on a mixed-generation topology
(JBSQ at a binding bound), one faulted datacenter run, the sequential
rack paths (piggybacked JSQ(2), broadcast SED, 16x1 lanes, send-slot
stalls under Zipf 1.2, faults), and two DES clusters routed by
:class:`~repro.datacenter.DatacenterRouter`, which share the
schedulers' scoring with the fast tier.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.balancing import SingleQueue
from repro.cluster import Cluster
from repro.datacenter import (
    DatacenterRouter,
    DatacenterTopology,
    node_profile,
    simulate_datacenter_fast,
)
from repro.faults import FaultPlan
from repro.fastpath import simulate_rack_fast


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:20]


def _key(result, holds=None):
    """(p50, p99, lost, signal_error_sum, holds, per-node digest)."""
    stats = result.router_stats
    return (
        result.aggregate.p50,
        result.aggregate.p99,
        result.lost,
        stats.signal_error_sum,
        holds,
        _sha((list(stats.routed), list(result.per_node_completed),
              list(result.stall_fractions))),
    )


MIXED = DatacenterTopology.mixed_generations(4, 4, old_racks=1)


def _dc(**kwargs):
    base = dict(per_node_mrps=20.0, requests_per_node=200, seed=5)
    base.update(kwargs)

    def run():
        audit = {}
        result = simulate_datacenter_fast(MIXED, _audit=audit, **base)
        return _key(result, audit["holds"])

    return run


def _rack(**kwargs):
    base = dict(num_nodes=6, per_node_mrps=24.0, requests_per_node=250, seed=3)
    base.update(kwargs)
    return lambda: _key(simulate_rack_fast(**base))


def _des(hierarchy, policy, skew):
    topo = DatacenterTopology(2, 4)

    def run():
        profile = node_profile(topo.profile.name)
        cluster = Cluster(
            num_nodes=topo.num_nodes,
            scheme_factory=SingleQueue,
            config=profile.chip_config(),
            costs=profile.costs(),
            seed=9,
            router=DatacenterRouter(topo, hierarchy=hierarchy, policy=policy, skew=skew),
            fabric=topo.fabric(),
        )
        return _key(cluster.run(per_node_mrps=20.0, requests_per_node=150))

    return run


FAULTS = FaultPlan(crash_rate_hz=2e4, drop_prob=0.01, spike_prob=0.02, spike_ns=1_500.0)


def _golden_cases():
    cases = {}
    for hierarchy in ("flat", "racksched", "jbsq", "nanopu"):
        for policy in ("random", "jsq2", "sed"):
            for skew in (0.0, 1.2):
                cases[f"dc/{hierarchy}/{policy}/skew{skew}"] = _dc(
                    hierarchy=hierarchy, policy=policy, skew=skew, jbsq_k=4
                )
    cases["dc/racksched/jsq2/faults"] = _dc(
        hierarchy="racksched", policy="jsq2", skew=0.6, faults=FAULTS
    )
    cases["rack/jsq2/piggyback/1x16"] = _rack(policy="jsq2", signal="piggyback")
    cases["rack/sed/broadcast/1x16"] = _rack(policy="sed", signal="broadcast:2000")
    cases["rack/jsq2/fresh/16x1"] = _rack(policy="jsq2", scheme="16x1")
    cases["rack/sed/piggyback/16x1"] = _rack(policy="sed", signal="piggyback", scheme="16x1")
    cases["rack/jsq3/skew1.2"] = _rack(policy="jsq3", skew=1.2)
    cases["rack/jsq2/skew1.2/slots"] = _rack(policy="jsq2", skew=1.2, send_slots_per_node=1)
    cases["rack/random/skew1.2/slots/16x1"] = _rack(
        policy="random", skew=1.2, send_slots_per_node=2, scheme="16x1"
    )
    cases["rack/jsq2/faults/16x1"] = _rack(
        policy="jsq2", signal="piggyback", scheme="16x1", per_node_mrps=20.0, faults=FAULTS
    )
    cases["des/flat/jsq2/skew0.6"] = _des("flat", "jsq2", 0.6)
    cases["des/racksched/sed/skew0"] = _des("racksched", "sed", 0.0)
    return cases


GOLDEN_CASES = _golden_cases()

GOLDEN = {
    "dc/flat/jsq2/skew0.0": (576.797199297329, 1206.1234784455191, 0, 0.0, 0, "f4c85aab621e91f541ee"),
    "dc/flat/jsq2/skew1.2": (574.0396922701595, 1195.9814042808898, 0, 0.0, 0, "838990c90d3316295445"),
    "dc/flat/random/skew0.0": (613.8968511861966, 1628.4407738395498, 0, 0.0, 0, "4afe424f2341e841f1dd"),
    "dc/flat/random/skew1.2": (1296.335199717843, 5987.1895214392425, 0, 0.0, 0, "c4e594e2876affbca98a"),
    "dc/flat/sed/skew0.0": (572.197646940326, 1155.0678375339428, 0, 0.0, 0, "84465c35c7465636baff"),
    "dc/flat/sed/skew1.2": (574.3865649595747, 1192.5452334457627, 0, 0.0, 0, "36821658d1038e1c8964"),
    "dc/jbsq/jsq2/skew0.0": (11870.718974605707, 23489.349875689266, 0, 0.0, 3136, "0b305ee28f73d70cd220"),
    "dc/jbsq/jsq2/skew1.2": (11837.762066774632, 23679.883980641967, 0, 0.0, 3136, "0dcc720beb605ebb6a01"),
    "dc/jbsq/random/skew0.0": (11768.183092243547, 26944.08742875493, 0, 0.0, 3136, "4bd6dcb480d5f17aa9d9"),
    "dc/jbsq/random/skew1.2": (13020.230904127653, 49501.25797436224, 0, 0.0, 3135, "2e0d98e1932293f23ca7"),
    "dc/jbsq/sed/skew0.0": (11857.242671819053, 21058.71957839727, 0, 0.0, 3136, "fe965b4df96fd7e49b35"),
    "dc/jbsq/sed/skew1.2": (11857.242671819053, 21058.71957839727, 0, 0.0, 3136, "fe965b4df96fd7e49b35"),
    "dc/nanopu/jsq2/skew0.0": (392.5509750169995, 1050.139711632285, 0, 0.0, 0, "53bb3ff40c99c59dfc7c"),
    "dc/nanopu/jsq2/skew1.2": (392.1465174216015, 1056.2074332511168, 0, 0.0, 0, "fb9b8a7544f7555f99dc"),
    "dc/nanopu/random/skew0.0": (400.27753866939247, 1075.100122041167, 0, 0.0, 0, "09bd572fc4158f69030b"),
    "dc/nanopu/random/skew1.2": (639.5506179335914, 1312.70373375957, 0, 0.0, 0, "a2c6ac882ef3215de19d"),
    "dc/nanopu/sed/skew0.0": (387.5833824869251, 1005.7881067597415, 0, 0.0, 0, "0489418184ab51e35079"),
    "dc/nanopu/sed/skew1.2": (387.5833824869251, 1005.7881067597415, 0, 0.0, 0, "0489418184ab51e35079"),
    "dc/racksched/jsq2/faults": (581.234479803281, 1199.235243095265, 1060, 0.0, 0, "799b0dba614316f7aa29"),
    "dc/racksched/jsq2/skew0.0": (577.1231757294963, 1190.4111688825644, 0, 0.0, 0, "5906e14d876180c24d6f"),
    "dc/racksched/jsq2/skew1.2": (573.1355416196445, 1200.104944603179, 0, 0.0, 0, "ebac2eaf9835d70c1839"),
    "dc/racksched/random/skew0.0": (591.671895797002, 1280.1961099906666, 0, 0.0, 0, "583923eb55b92f0aae30"),
    "dc/racksched/random/skew1.2": (1456.4379210793109, 5739.450900953058, 0, 0.0, 0, "4c6a3e6bf56c6b5802e4"),
    "dc/racksched/sed/skew0.0": (571.3474287278998, 1177.9812675852304, 0, 0.0, 0, "7c551dc694c6e462bc0c"),
    "dc/racksched/sed/skew1.2": (571.3474287278998, 1177.9812675852304, 0, 0.0, 0, "7c551dc694c6e462bc0c"),
    "des/flat/jsq2/skew0.6": (562.3659463426084, 1115.2513577273044, 0, 0.0, None, "9931c0c140eb0cbe650e"),
    "des/racksched/sed/skew0": (560.0928842486103, 1114.7262371457816, 0, 0.0, None, "b196f2211e36c5bcf599"),
    "rack/jsq2/faults/16x1": (772.3162888568819, 2838.2917993608326, 362, 4566.0, None, "c48959b0dd660b77ac13"),
    "rack/jsq2/fresh/16x1": (1052.0373477654985, 4177.556668883358, 0, 0.0, None, "b3359ce016c95f8c7ad6"),
    "rack/jsq2/piggyback/1x16": (573.5757872688052, 1105.2231535690228, 0, 4967.0, None, "57e1b06ffcbf92456267"),
    "rack/jsq2/skew1.2/slots": (554.8377115109552, 1088.9348723139278, 0, 0.0, None, "7fc5ccacec91bfad8617"),
    "rack/jsq3/skew1.2": (555.3751801230305, 1088.9348723139285, 0, 0.0, None, "84aee3986000701c7251"),
    "rack/random/skew1.2/slots/16x1": (675.4442715471315, 1973.939015288645, 0, 0.0, None, "7d830397e947e6057bf9"),
    "rack/sed/broadcast/1x16": (1076.602154804978, 5752.563487860803, 0, 66683.0, None, "a7e4fbd3ea3744976335"),
    "rack/sed/piggyback/16x1": (1102.6755009012156, 3594.4848854397824, 0, 10098.0, None, "75d4923e5ade806e455a"),
}


def test_grid_is_complete():
    assert set(GOLDEN_CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_matches_recorded_outputs(case):
    assert GOLDEN_CASES[case]() == GOLDEN[case]
