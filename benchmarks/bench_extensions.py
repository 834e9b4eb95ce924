"""Extension benches: preemption (§7), hedging (§7), dynamic slots (§4.2)."""

from conftest import run_once

from repro.experiments import run_dynamic_slots, run_hedging, run_preemption


def test_preemption(benchmark, profile, emit):
    result = run_once(benchmark, run_preemption, profile=profile, seed=0)
    emit(result)
    baseline = result.data["run_to_completion_get_p99_us"]
    best = min(
        result.data[f"quantum_{q}us_get_p99_us"] for q in ("5", "10", "15")
    )
    # Preemption never *hurts* the get tail materially on this mixture.
    assert best <= baseline * 1.05


def test_hedging(benchmark, profile, emit):
    result = run_once(benchmark, run_hedging, profile=profile, seed=0)
    emit(result)
    # At every load the single queue beats hedged duplication, and
    # hedging pays significant wasted work — §7's argument.
    for load_key, row in result.data.items():
        assert row["single_queue_p99"] <= row["hedged_p99"], load_key
        assert row["waste_fraction"] > 0.1, load_key
    # Hedging helps vs plain random at moderate load but backfires at 0.8.
    assert result.data["load_0.4"]["hedged_p99"] < result.data["load_0.4"]["random_p99"]
    assert result.data["load_0.8"]["hedged_p99"] > result.data["load_0.8"]["random_p99"]


def test_dynamic_slots(benchmark, profile, emit):
    result = run_once(benchmark, run_dynamic_slots, profile=profile, seed=0)
    emit(result)
    static = result.data["static"]
    pooled = result.data["dynamic_512"]
    # Same throughput and tail at a >10x memory reduction.
    assert pooled["tput_mrps"] >= 0.98 * static["tput_mrps"]
    assert pooled["p99_ns"] <= 1.1 * static["p99_ns"]
    assert pooled["recv_footprint_mib"] < static["recv_footprint_mib"] / 10


def test_cluster(benchmark, profile, emit):
    from repro.experiments import run_cluster

    result = run_once(benchmark, run_cluster, profile=profile, seed=0)
    emit(result)
    single = result.data["1x16/node"]
    partitioned = result.data["16x1/node"]
    assert single["p99_ns"] < partitioned["p99_ns"]


def test_rack(benchmark, profile, emit):
    from repro.experiments import run_rack

    result = run_once(benchmark, run_rack, profile=profile, seed=0)
    emit(result)
    ladder = result.data["ladder"]
    # Fresh signals: JSQ(2) beats random spray on cluster-wide p99...
    assert ladder[0]["advantage"] > 1.0
    # ...and the advantage decays monotonically with signal staleness.
    advantages = [entry["advantage"] for entry in ladder]
    assert advantages == sorted(advantages, reverse=True)


def test_faults(benchmark, profile, emit):
    from repro.experiments import run_faults

    result = run_once(benchmark, run_faults, profile=profile, seed=0)
    emit(result)
    # No crashes: every offered RPC completes (drops only exist in the
    # storm and hedging rows).
    assert result.data["crash_ladder"]["0"]["goodput_fraction"] == 1.0
    # A bounded exponential-backoff budget amplifies server work less
    # than unbounded zero-backoff retries.
    storm = result.data["storm"]
    assert (
        storm["bounded"]["work_amplification"]
        < storm["unbounded"]["work_amplification"]
    )


def test_validate(benchmark, profile, emit):
    from repro.experiments import run_validate

    result = run_once(benchmark, run_validate, profile=profile, seed=0)
    emit(result)
    assert result.data["worst_error"] < 0.15


def test_bursts(benchmark, profile, emit):
    from repro.experiments import run_bursts

    result = run_once(benchmark, run_bursts, profile=profile, seed=0)
    emit(result)
    stationary = result.data["stationary 0.6"]["ratio"]
    sub_capacity = result.data["bursts to 0.95x capacity"]["ratio"]
    assert sub_capacity > stationary
