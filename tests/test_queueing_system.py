"""QueueingSystem: the paper's Q×U models (§2.2)."""

import pytest

from repro.dists import Exponential, Fixed
from repro.experiments import unit_mean_service
from repro.queueing import PAPER_CONFIGS, QueueingSystem, composite_service


class TestConstruction:
    def test_paper_configs_cover_16_servers(self):
        for num_queues, servers in PAPER_CONFIGS:
            assert num_queues * servers == 16

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            QueueingSystem(0, 16, Exponential(1.0))

    @pytest.mark.parametrize("shape", [(2.5, 4), (2, True)], ids=["float-Q", "bool-U"])
    def test_non_integer_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="must be an integer"):
            QueueingSystem(*shape, Exponential(1.0))

    def test_label(self):
        assert QueueingSystem(4, 4, Exponential(1.0)).label == "4x4"


class TestRun:
    def test_latency_normalized_to_mean_service(self):
        # At very low load there is no queueing: sojourn ≈ service, so
        # the normalized mean must be ≈ 1 regardless of the time unit.
        for mean in (1.0, 600.0):
            system = QueueingSystem(1, 16, Exponential(mean), seed=1)
            point = system.run(load=0.05, num_requests=30_000)
            assert point.summary.mean == pytest.approx(1.0, rel=0.05)

    def test_fixed_service_low_load_p99_is_one(self):
        system = QueueingSystem(1, 16, Fixed(1.0), seed=1)
        point = system.run(load=0.2, num_requests=30_000)
        assert point.p99 == pytest.approx(1.0, abs=1e-9)

    def test_single_queue_beats_partitioned(self):
        # The paper's central §2.2 result.
        service = Exponential(1.0)
        single = QueueingSystem(1, 16, service, seed=7).run(0.8, 100_000)
        partitioned = QueueingSystem(16, 1, service, seed=7).run(0.8, 100_000)
        assert single.p99 < partitioned.p99

    def test_full_ordering_matches_fig2a(self):
        service = Exponential(1.0)
        p99s = []
        for num_queues, servers in PAPER_CONFIGS:
            point = QueueingSystem(num_queues, servers, service, seed=3).run(
                0.85, 150_000
            )
            p99s.append(point.p99)
        # 1x16 < 2x8 < 4x4 < 8x2 < 16x1.
        assert p99s == sorted(p99s)

    def test_variance_ordering_matches_fig2bc(self):
        # TL_fixed < TL_uni < TL_exp < TL_gev at high load, both models.
        for num_queues, servers in ((1, 16), (16, 1)):
            p99s = [
                QueueingSystem(
                    num_queues, servers, unit_mean_service(kind), seed=5
                ).run(0.9, 150_000).p99
                for kind in ("fixed", "uniform", "exponential", "gev")
            ]
            assert p99s == sorted(p99s), (num_queues, servers, p99s)

    def test_higher_load_higher_tail(self):
        system = QueueingSystem(1, 16, Exponential(1.0), seed=2)
        low = system.run(0.3, 60_000).p99
        high = system.run(0.9, 60_000).p99
        assert high > low

    def test_invalid_load(self):
        system = QueueingSystem(1, 16, Exponential(1.0))
        with pytest.raises(ValueError):
            system.run(load=0.0)

    def test_infinite_load_rejected(self):
        system = QueueingSystem(4, 4, Exponential(1.0))
        with pytest.raises(ValueError, match="positive and finite"):
            system.run(load=float("inf"), num_requests=1_000)

    def test_invalid_requests(self):
        system = QueueingSystem(1, 16, Exponential(1.0))
        with pytest.raises(ValueError):
            system.run(load=0.5, num_requests=0)

    def test_reproducible(self):
        first = QueueingSystem(4, 4, Exponential(1.0), seed=9).run(0.7, 20_000)
        second = QueueingSystem(4, 4, Exponential(1.0), seed=9).run(0.7, 20_000)
        assert first.p99 == second.p99


class TestSweep:
    def test_sweep_sorted_and_labeled(self):
        system = QueueingSystem(2, 8, Exponential(1.0), seed=1)
        sweep = system.sweep([0.9, 0.3, 0.6], num_requests=20_000)
        assert sweep.label == "2x8"
        assert [point.offered_load for point in sweep.points] == [0.3, 0.6, 0.9]


class TestCompositeService:
    def test_mean_adds_fixed_part(self):
        service = composite_service(Exponential(300.0), 600.0)
        assert service.mean == pytest.approx(900.0)
        assert service.variance == pytest.approx(300.0**2)

    def test_zero_fixed_part_passthrough(self):
        inner = Exponential(1.0)
        assert composite_service(inner, 0.0) is inner

    def test_negative_fixed_rejected(self):
        with pytest.raises(ValueError):
            composite_service(Exponential(1.0), -5.0)
