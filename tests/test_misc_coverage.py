"""Edge cases across modules that the main suites don't reach."""

import numpy as np
import pytest

from repro.arch import Chip, ChipConfig
from repro.balancing import SingleQueue, SoftwareSingleQueue
from repro.experiments.common import ExperimentResult
from repro.queueing import kernel_sojourn_times
from repro.sim import Environment, RngRegistry
from repro.workloads import MicrobenchCosts, MicrobenchProgram


class TestKernelEdges:
    def test_store_getter_priority_over_late_putter(self):
        # Request 2 arrives at t=1, just as request 0 leaves; request 1,
        # already waiting, takes the freed serving unit first.
        sojourns = kernel_sojourn_times(
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 1.0, 1.0]),
            np.zeros(3, dtype=int),
            1,
            1,
        )
        assert (np.array([0.0, 0.0, 1.0]) + sojourns).tolist() == [1.0, 2.0, 3.0]


class TestDispatcherDelays:
    def build(self, scheme):
        env = Environment()
        chip = Chip(
            env, ChipConfig(), MicrobenchProgram(MicrobenchCosts.lean()),
            RngRegistry(0),
        )
        scheme.install(chip, RngRegistry(0).stream("dispatch"))
        return chip

    def test_software_dispatcher_has_memory_latencies(self):
        chip = self.build(SoftwareSingleQueue())
        dispatcher = chip.dispatchers[0]
        # The software queue lives in memory: no mesh indirection, and
        # delivery costs one LLC access.
        assert dispatcher.completion_forward_delay_ns(0) == 0.0
        assert dispatcher.replenish_delay_ns(5) == 0.0
        assert dispatcher.delivery_delay_ns(5) == pytest.approx(
            chip.config.llc_latency_ns
        )

    def test_hardware_dispatcher_mesh_latencies(self):
        chip = self.build(SingleQueue())
        dispatcher = chip.dispatchers[0]
        assert dispatcher.home_backend_id == 0
        # Forwarding from its own backend is free; from others it isn't.
        assert dispatcher.completion_forward_delay_ns(0) == 0.0
        assert dispatcher.completion_forward_delay_ns(3) > 0.0
        assert dispatcher.delivery_delay_ns(15) > dispatcher.delivery_delay_ns(0)


class TestExperimentResult:
    def test_table_includes_findings(self):
        result = ExperimentResult(
            "exp-x", "A title", tables=["row-data"], findings=["insight"]
        )
        text = result.table()
        assert "== exp-x: A title ==" in text
        assert "row-data" in text
        assert "- insight" in text

    def test_table_without_findings(self):
        result = ExperimentResult("exp-y", "T", tables=["t"])
        assert "Findings" not in result.table()


class TestPresetsEdges:
    def test_make_system_explicit_costs_override_defaults(self):
        from repro.core import make_system

        system = make_system(
            "1x16", "synthetic-fixed", costs=MicrobenchCosts.lean()
        )
        # Explicit costs win over the synthetic default.
        assert system.costs.total_ns == pytest.approx(220.0)

    def test_scheme_names_constant_matches_factory(self):
        from repro.core import SCHEME_NAMES, make_scheme

        for name in SCHEME_NAMES:
            assert make_scheme(name) is not None

