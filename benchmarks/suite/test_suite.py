"""Tests of the benchmark harness itself (no ``benchmark`` fixture, so a
``--benchmark-only`` session skips them).

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q``.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Outcome, problems  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_emitted_name_is_declared_with_its_unit():
    spec = _spec()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*declared_e2e, *declared_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert spec["paths"] == ["benchmarks/suite"]


def _legacy(**changes):
    fields = dict(
        kind="legacy",
        rpcs=10,
        outputs={"p50_ns": 500.0, "p99_ns": 900.0, "tput_mrps": 1.0},
        requested=10,
        completed=10,
        per_node_completed=[4, 6],
    )
    fields.update(changes)
    return Outcome(**fields)


def test_invariant_checker_flags_nan_and_conservation_breaks():
    assert problems(_legacy()) == []
    assert problems(_legacy(outputs={"p50_ns": math.nan, "p99_ns": 900.0}))
    assert problems(_legacy(outputs={"p50_ns": 950.0, "p99_ns": 900.0}))
    assert problems(_legacy(per_node_completed=[4, 5]))
    assert problems(_legacy(completed=9))
    faulted = _legacy(kind="faulted-des", offered=12, completed=10, lost=2)
    assert problems(faulted) == []
    assert problems(_legacy(kind="faulted-fast", offered=12, completed=10, lost=1))


def _report(outcome, error=None):
    return {
        "attempted": 1,
        "scenarios": {
            "s": {
                "digest": outcome.digest(),
                "outputs": outcome.outputs,
                "errors": problems(outcome) + ([error] if error else []),
            }
        },
    }


def test_error_rate_counts_broken_invariants_and_changed_digests():
    good = _legacy()
    checked = run.failures([_report(good), _report(good)])
    assert (checked["attempted"], checked["failed"]) == (2, 0)
    nan = _legacy(outputs={"p50_ns": math.nan, "p99_ns": 900.0})
    assert run.failures([_report(good), _report(nan)])["failed"] == 1
    drifted = _legacy(outputs={"p50_ns": 501.0, "p99_ns": 900.0})
    assert run.failures([_report(good), _report(drifted)])["failed"] == 1
    assert run.failures([_report(good, error="RuntimeError: boom")])["failed"] == 1


def test_builtin_self_time_is_charged_to_calling_packages(tmp_path):
    root = tmp_path / "repro"
    sim = (str(root / "sim" / "engine.py"), 10, "run")
    fast = (str(root / "fastpath" / "fastcluster.py"), 20, "loop")
    numpy_py = (str(tmp_path / "numpy" / "core.py"), 5, "sort")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    argsort = ("~", 0, "<built-in method numpy.argsort>")
    stats = {
        sim: (1, 1, 2.0, 5.0, {}),
        fast: (1, 1, 1.0, 4.0, {}),
        # heappush: 1.5 s self, 1.0 s of it from sim and 0.5 s from fastpath.
        heappush: (3, 3, 1.5, 1.5, {sim: (2, 2, 1.0, 1.0), fast: (1, 1, 0.5, 0.5)}),
        # numpy Python code called from fastpath, calling a C function.
        numpy_py: (1, 1, 0.25, 1.25, {fast: (1, 1, 0.25, 1.25)}),
        argsort: (1, 1, 1.0, 1.0, {numpy_py: (1, 1, 1.0, 1.0)}),
    }
    by_layer = layers.self_time_by_layer(stats, root)
    assert by_layer["sim"] == pytest.approx(3.0)
    assert by_layer["fastpath"] == pytest.approx(2.75)
    assert by_layer["other"] == 0.0
    assert sum(by_layer.values()) == pytest.approx(5.75)
    assert layers.layer_of(str(root / "runner.py"), root) == "runner"
    assert layers.layer_of(str(root / "experiments" / "common.py"), root) == "other"


def test_verdicts_follow_bounds_and_spread():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [x * 0.85 for x in base], "higher", 0.1) == "worse"
    assert compare.verdict(base, [x * 1.001 for x in base], "higher", 0.1) == "same"
    assert compare.verdict(base, [x * 1.05 for x in base], "higher", 0.1) == "improved"
    wide = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(base, wide, "higher", 0.1) == "unresolved"
    assert compare.verdict(base, [x * 1.05 for x in base], "higher", 0.1, 0.8) == "same"


def test_pair_mode_counts_wins_over_all_pairs():
    metrics = {"sim_rpcs_per_s": {"unit": "RPC/s", "better": "higher", "bound": 0.1}}

    def result(value):
        return {"workloads": {"w": {"samples": {"sim_rpcs_per_s": [value]}}}}

    # Nine wins and one tie out of ten pairs: 0.9, enough for a gain.
    pairs = [(result(100.0 + i), result(106.0 + i)) for i in range(9)]
    pairs.append((result(100.0), result(100.0)))
    (row,) = compare.compare_pairs(pairs, metrics)
    assert row["win_fraction"] == pytest.approx(0.9)
    assert row["verdict"] == "improved"
    pairs[0] = (result(100.0), result(99.0))
    assert compare.compare_pairs(pairs, metrics)[0]["verdict"] == "same"


def test_smoke_run_is_deterministic_and_attributes_all_time(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())
    assert results["provenance"]["rounds"] == 2
    for name, summary in results["workloads"].items():
        assert summary["failed"] == 0, (name, summary["failures"])
        layer = summary["per_layer"]
        shares = sum(layer[f"{x}.self_share"] for x in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01), name
        assert layer["tracing.self_share"] <= 0.001
        assert layer["telemetry.self_share"] <= 0.001
        assert len(summary["host_samples"]["sim_rpcs_per_s"]) == 2
        assert summary["metrics"]["peak_rss_mb"]["n"] == 2
        assert f"{name} sim_rpcs_per_s " in proc.stdout
