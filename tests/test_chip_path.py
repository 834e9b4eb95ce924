"""The flattened per-RPC chip path: equivalence and eager validation.

The dispatcher's route tables and the single-pass least-outstanding
selection replace per-RPC calls; these properties hold them equal to
the definitions they replace. A program without fixed costs still has
its per-message costs read on every request. The validation cases
reject configs the chip path used to accept and misread.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Chip, ChipConfig, CoreProgram, make_send
from repro.balancing import (
    Grouped,
    LeastOutstanding,
    Partitioned,
    SingleQueue,
    SoftwareSingleQueue,
)
from repro.balancing.base import Dispatcher
from repro.balancing.policies import make_policy
from repro.sim import Environment, RngRegistry
from repro.workloads import (
    ClosedLoopClients,
    MicrobenchCosts,
    MicrobenchProgram,
    SyntheticWorkload,
    TrafficGenerator,
)


def reference_least_outstanding(core_ids, outstanding, limit, last_dispatch):
    """The (count, age, core)-key minimum over available cores."""
    available = [
        core for core in core_ids if limit is None or outstanding[core] < limit
    ]
    if not available:
        return None
    return min(
        available,
        key=lambda core: (
            outstanding[core],
            last_dispatch[core] if last_dispatch is not None else 0.0,
            core,
        ),
    )


@st.composite
def dispatch_states(draw):
    cores = draw(
        st.lists(st.integers(0, 31), min_size=1, max_size=16, unique=True)
    )
    core_ids = draw(st.permutations(cores))
    outstanding = {core: draw(st.integers(0, 4)) for core in cores}
    # A few distinct ages, so equal ages (and full ties) are common.
    ages = st.sampled_from([0.0, 1.5, 1.5, 7.25, 100.0])
    last_dispatch = draw(
        st.none() | st.fixed_dictionaries({core: ages for core in cores})
    )
    limit = draw(st.sampled_from([None, 1, 2, 3]))
    return core_ids, outstanding, limit, last_dispatch


class TestLeastOutstandingSelect:
    @settings(max_examples=300, deadline=None)
    @given(dispatch_states())
    def test_matches_key_minimum(self, state):
        core_ids, outstanding, limit, last_dispatch = state
        chosen = LeastOutstanding().select(
            core_ids, outstanding, limit, None, last_dispatch
        )
        assert chosen == reference_least_outstanding(
            core_ids, outstanding, limit, last_dispatch
        )

    def test_full_tie_goes_to_smallest_core_not_first_listed(self):
        outstanding = {5: 0, 2: 0, 9: 0}
        ages = {5: 3.0, 2: 3.0, 9: 3.0}
        policy = LeastOutstanding()
        assert policy.select([5, 2, 9], outstanding, 1, None, ages) == 2
        assert policy.select([9, 5, 2], outstanding, None, None, None) == 2

    def test_no_available_core(self):
        outstanding = {0: 2, 1: 2}
        assert LeastOutstanding().select([0, 1], outstanding, 2, None, None) is None


def _chip(config, scheme):
    chip = Chip(
        Environment(), config, MicrobenchProgram(MicrobenchCosts.lean()),
        RngRegistry(0),
    )
    scheme.install(chip, RngRegistry(0).stream("dispatch"))
    return chip


SCHEMES = {
    "1x16": SingleQueue,
    "4x4": lambda: Grouped(4),
    "16x1": Partitioned,
    "sw-1x16": SoftwareSingleQueue,
}


@st.composite
def chip_geometries(draw):
    rows = draw(st.sampled_from([1, 2, 4]))
    cols = draw(st.sampled_from([2, 4, 8]))
    cores = rows * cols
    backends = draw(st.sampled_from([b for b in (1, 2, 4, 8) if b <= cores]))
    hop_cycles = draw(st.integers(0, 5))
    return ChipConfig(
        num_cores=cores,
        mesh_rows=rows,
        mesh_cols=cols,
        num_backends=backends,
        mesh_hop_cycles=hop_cycles,
        cqe_write_ns=draw(st.sampled_from([0.0, 6.0, 2.5])),
    )


class TestRouteTables:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_default_chip_tables_equal_delay_methods(self, name):
        config = ChipConfig()
        chip = _chip(config, SCHEMES[name]())
        for dispatcher in chip.dispatchers:
            self.assert_tables_match(dispatcher, config)
        if name == "sw-1x16":
            assert chip.dispatchers[0].home_backend_id is None

    @settings(max_examples=60, deadline=None)
    @given(
        config=chip_geometries(),
        name=st.sampled_from(sorted(SCHEMES)),
    )
    def test_tables_equal_delay_methods_on_any_geometry(self, config, name):
        scheme = SCHEMES[name]()
        if isinstance(scheme, Grouped) and config.num_cores % scheme.num_groups:
            scheme = Grouped(1)
        for dispatcher in _chip(config, scheme).dispatchers:
            self.assert_tables_match(dispatcher, config)

    @staticmethod
    def assert_tables_match(dispatcher, config):
        assert dispatcher._forward_ns == [
            dispatcher.completion_forward_delay_ns(backend)
            for backend in range(config.num_backends)
        ]
        assert dispatcher._replenish_ns == [
            dispatcher.replenish_delay_ns(core) for core in range(config.num_cores)
        ]
        assert dispatcher._delivery_ns == [
            dispatcher.delivery_delay_ns(core) for core in range(config.num_cores)
        ]


class LabelCostProgram(CoreProgram):
    """Per-message costs: no fixed costs, so every request calls in."""

    def pre_ns(self, msg):
        return 40.0 if msg.label == "get" else 10.0

    def post_ns(self, msg):
        return 30.0

    def reply_size_bytes(self, msg):
        return 700 if msg.label == "get" else 64


class TestPerMessageProgram:
    def test_costs_are_read_per_message(self):
        chip = Chip(Environment(), ChipConfig(), LabelCostProgram(), RngRegistry(0))
        SingleQueue().install(chip, RngRegistry(0).stream("dispatch"))
        sent = [
            make_send(chip.config, index, index, 0, 128, 100.0, label)
            for index, label in enumerate(["get", "put", "get"])
        ]
        for msg in sent:
            chip.submit_message(msg)
        chip.env.run()
        for msg in sent:
            pre = 40.0 if msg.label == "get" else 10.0
            assert msg.t_replenish - msg.t_start == pytest.approx(100.0 + 30.0)
            assert msg.t_start - msg.t_cqe == pytest.approx(pre)
        assert chip.stats.mean_service_ns == pytest.approx((170 + 140 + 170) / 3)
        # 700B replies are 11 packets, 64B ones 1: three egress passes.
        assert sum(backend.replies_sent for backend in chip.backends) == 3
        assert sum(backend.busy_ns for backend in chip.backends) == pytest.approx(
            3 * 6.0 + 3 * 2 * 3.0 + 2 * (6.0 + 11 * 3.0) + (6.0 + 1 * 3.0)
        )


def _plain_chip():
    return _chip(ChipConfig(), SingleQueue())


class TestEagerValidation:
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_traffic_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="arrival rate"):
            TrafficGenerator(
                _plain_chip(), SyntheticWorkload("fixed"), rate, 100,
                RngRegistry(0),
            )

    @pytest.mark.parametrize("think", [math.nan, math.inf])
    def test_closed_loop_rejects_non_finite_think_time(self, think):
        with pytest.raises(ValueError, match="think_time_ns"):
            ClosedLoopClients(
                _plain_chip(), SyntheticWorkload("fixed"), 4, 10,
                RngRegistry(0), think_time_ns=think,
            )

    @pytest.mark.parametrize("limit", [2.5, True, 2.0, "2"])
    def test_schemes_reject_non_integer_limit(self, limit):
        with pytest.raises(ValueError, match="outstanding_limit"):
            SingleQueue(outstanding_limit=limit)
        with pytest.raises(ValueError, match="outstanding_limit"):
            Grouped(4, outstanding_limit=limit)

    @pytest.mark.parametrize("limit", [2.5, True, 0])
    def test_dispatcher_rejects_non_integer_limit(self, limit):
        chip = _plain_chip()
        with pytest.raises(ValueError, match="outstanding_limit"):
            Dispatcher(
                chip, 0, [0, 1], limit, make_policy("least_outstanding"), 0,
                chip.config.dispatch_ns, np.random.default_rng(0),
            )

    def test_integer_limits_still_accepted(self):
        assert SingleQueue(outstanding_limit=np.int64(3)).outstanding_limit == 3
        assert Grouped(4, outstanding_limit=None).outstanding_limit is None
