"""Rack-size scaling across engine tiers (``ext-scale``)."""

from conftest import run_once

from repro.experiments.scale import run_scale


def test_scale(benchmark, profile, emit):
    result = run_once(benchmark, run_scale, profile=profile, seed=0)
    emit(result)
    data = result.data
    # The tentpole target: a 1000-node rack point in seconds.
    assert data["largest_nodes"] >= 1024
    assert data["largest_point_wall_s"] < 10.0
    # JSQ(2) still beats random spray at the largest rack.
    assert data["advantage_at_largest"] > 1.0
    # Fluid tier tracks the fast tier (p50 and p99) at the overlap size.
    assert data["overlap"]["worst_abs_delta"] < 0.15
