"""Layered simulator benchmark: five workloads, end-to-end and per-layer metrics.

Every round of every workload runs in a fresh child process
(``child.py``), one child at a time, pinned to one thread, with the
result cache off. Two ways to run it, from the repository root:

* one workload, as the benchmark contract drives it::

      python3 benchmarks/suite/run.py --workload des-chip --seed 0 --seconds 18 --trace 0

  ``--trace 0`` runs untraced rounds until ``--seconds`` have passed
  (at least three) and reports the end-to-end metrics as medians over
  the rounds the speed meter saw least slowed (see ``speed.py``);
  ``--trace 1`` runs one untraced and one traced round and reports the
  per-layer metrics. The last line of standard output is one JSON
  object.

* the whole suite, interleaved, with a results file::

      python3 benchmarks/suite/run.py [--seed 0] [--rounds 5] [--workloads a,b] [--out F]

  Round *r* visits the workloads in an order rotated by *r*, so drift
  on a shared machine hits every workload alike; one traced round per
  workload follows. Results land in ``benchmarks/suite/results/``.

Every metric is printed as ``workload metric value unit``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (reported with tracing off) and their units.
END_TO_END = {"sim_rpcs_per_s": "RPC/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics (reported from the traced round) and their units.
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_share"] = "fraction"
    PER_LAYER[f"{_layer}.self_ns_per_rpc"] = "ns"
PER_LAYER.update(
    {
        "sim.events": "count",
        "sim.events_per_rpc": "count",
        "sim.host_ns_per_event": "ns",
        "rack.decisions": "count",
        "rack.self_ns_per_decision": "ns",
        "datacenter.choose_calls": "count",
        "datacenter.self_ns_per_choose": "ns",
        "fastpath.calendar.self_share": "fraction",
        "fastpath.probe_runs": "count",
        "fastpath.probe_s": "s",
        "faults.retries": "count",
        "faults.timeouts": "count",
        "faults.lost": "count",
        "faults.goodput_fraction": "fraction",
        "faults.work_amplification": "ratio",
        "runner.tasks": "count",
        "trace.overhead": "ratio",
        "tier_gap_p99": "fraction",
        "error_rate": "fraction",
    }
)

MIN_ROUNDS = 3
#: No child starts once the run could pass this many seconds.
HARD_LIMIT_S = 120.0
SMOKE_SCALE = 0.1


class ChildFailed(RuntimeError):
    """A child process crashed instead of reporting its round."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_ENGINE", "REPRO_PROGRESS"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_WORKERS="1",
        REPRO_CACHE="0",
    )
    return env


def run_child(workload: str, seed: int, scale: float = 1.0, traced: bool = False) -> Dict:
    """One round in a fresh process; returns the child's report."""
    command = [
        sys.executable,
        str(CHILD),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--scale",
        repr(scale),
    ]
    if traced:
        command.append("--traced")
    proc = subprocess.run(
        command, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload} child exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def quietest(rounds: List[Dict], phase: str) -> List[Dict]:
    """The half of the rounds whose ``phase`` ran closest to full speed.

    The speed rescaling is exact for code that slows as the meter's
    reference loop does. The DES workloads slow less (host time grows
    as speed^-0.72 for des-chip and speed^-0.82 for des-rack), so their
    rescaled throughput reads ~15% high at half speed; the metrics use
    the rounds that needed the least rescaling.
    """
    ranked = sorted(rounds, key=lambda r: r[f"{phase}_host_s"] / r[f"{phase}_s"])
    return ranked[: (len(ranked) + 1) // 2]


def e2e_samples(rounds: List[Dict]) -> Dict[str, List[float]]:
    """End-to-end samples at full machine speed, from the quietest rounds."""
    return {
        "sim_rpcs_per_s": [r["rpcs"] / r["body_s"] for r in quietest(rounds, "body")],
        "setup_s": [r["setup_s"] for r in quietest(rounds, "setup")],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }


def host_samples(rounds: List[Dict]) -> Dict[str, List[float]]:
    """Every round's samples as measured, with the speed the meter saw."""
    return {
        "sim_rpcs_per_s": [r["rpcs"] / r["body_host_s"] for r in rounds],
        "setup_s": [r["setup_host_s"] for r in rounds],
        "body_speed": [r["body_s"] / r["body_host_s"] for r in rounds],
        "setup_speed": [r["setup_s"] / r["setup_host_s"] for r in rounds],
    }


def failures(rounds: List[Dict]) -> Dict[str, object]:
    """Scenario calls that raised, broke an invariant, or changed output.

    A call's digest must equal the first round's digest for the same
    scenario: the seed fixes every simulated output, traced or not.
    """
    first: Dict[str, Optional[str]] = {}
    attempted = failed = 0
    reasons = []
    for index, report in enumerate(rounds):
        attempted += report["attempted"]
        for key, scenario in report["scenarios"].items():
            first.setdefault(key, scenario["digest"])
            why = list(scenario["errors"])
            if scenario["digest"] is None:
                why.append("no output")
            elif scenario["digest"] != first[key]:
                why.append(f"digest {scenario['digest']} != round 1's {first[key]}")
            if why:
                failed += 1
                reasons.append(f"round {index + 1} {key}: {'; '.join(why)}")
    return {"attempted": attempted, "failed": failed, "reasons": reasons}


def per_layer(traced: Dict, untraced: List[Dict], error_rate: float) -> Dict[str, float]:
    """Per-layer metrics from one traced round and the untraced rounds."""
    tp = traced["traced_pass"]
    layer_s = tp["layer_self_s"]
    total_s = sum(layer_s.values())
    rpcs = traced["rpcs"]
    counters = traced["counters"]

    def ratio(a: float, b: float, empty: float = 0.0) -> float:
        return a / b if b else empty

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(layer_s[layer], total_s)
        out[f"{layer}.self_ns_per_rpc"] = ratio(layer_s[layer] * 1e9, rpcs)
    events = tp["events"]
    body_s = statistics.median(r["body_s"] for r in untraced)
    body_host_s = statistics.median(r["body_host_s"] for r in untraced)
    decisions = counters.get("rack.decisions", 0)
    choose_calls = tp["choose_calls"]
    offered = counters.get("faults.offered", 0)
    lost = counters.get("faults.lost", 0)
    out.update(
        {
            "sim.events": events,
            "sim.events_per_rpc": ratio(events, rpcs),
            "sim.host_ns_per_event": ratio(body_s * 1e9, events),
            "rack.decisions": decisions,
            "rack.self_ns_per_decision": ratio(layer_s["rack"] * 1e9, decisions),
            "datacenter.choose_calls": choose_calls,
            "datacenter.self_ns_per_choose": ratio(
                layer_s["datacenter"] * 1e9, choose_calls
            ),
            "fastpath.calendar.self_share": ratio(tp["calendar_self_s"], total_s),
            "fastpath.probe_runs": tp["probe_runs"],
            "fastpath.probe_s": tp["probe_s"],
            "faults.retries": counters.get("faults.retries", 0),
            "faults.timeouts": counters.get("faults.timeouts", 0),
            "faults.lost": lost,
            "faults.goodput_fraction": ratio(offered - lost, offered, 1.0),
            "faults.work_amplification": ratio(
                counters.get("faults.server_completions", 0), offered - lost, 1.0
            ),
            "runner.tasks": tp["runner_tasks"],
            "trace.overhead": ratio(traced["body_host_s"], body_host_s),
            # 0 where the workload has no paired fast/DES configuration.
            "tier_gap_p99": traced["tier_gap_p99"] or 0.0,
            "error_rate": error_rate,
        }
    )
    return out


def summarize(untraced: List[Dict], traced: Optional[Dict]) -> Dict:
    """Samples, quartiles, correctness and per-layer metrics of one workload."""
    samples = e2e_samples(untraced)
    checked = failures(untraced + ([traced] if traced else []))
    error_rate = checked["failed"] / checked["attempted"]
    summary = {
        "samples": samples,
        "host_samples": host_samples(untraced),
        "metrics": {
            name: dict(quartiles(values), unit=END_TO_END[name])
            for name, values in samples.items()
        },
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "error_rate": error_rate,
        "failures": checked["reasons"],
        "tier_gap_p99": untraced[0]["tier_gap_p99"],
        "outputs": {k: s["outputs"] for k, s in untraced[0]["scenarios"].items()},
        "spans": [
            dict(span, round=index + 1)
            for index, report in enumerate(untraced + ([traced] if traced else []))
            for span in report["spans"]
        ],
    }
    if traced is not None:
        summary["per_layer"] = per_layer(traced, untraced, error_rate)
    return summary


def print_metrics(workload: str, summary: Dict) -> None:
    for name, stats in summary["metrics"].items():
        print(f"{workload} {name} {stats['median']!r} {stats['unit']}")
    for name, value in summary.get("per_layer", {}).items():
        print(f"{workload} {name} {value!r} {PER_LAYER[name]}")


def check_load(before, after) -> bool:
    """Warn, and return True, when the 1-minute load exceeded ``nproc``."""
    nproc = os.cpu_count() or 1
    overloaded = max(before[0], after[0]) > nproc
    if overloaded:
        print(
            f"warning: load average {before[0]:.2f}->{after[0]:.2f} exceeds "
            f"nproc={nproc}; timings are suspect",
            file=sys.stderr,
        )
    return overloaded


def drive_one(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """The contract's single-workload run; returns its final JSON object."""
    started = time.monotonic()
    untraced: List[Dict] = []
    while True:
        round_start = time.monotonic()
        untraced.append(run_child(workload, seed))
        now = time.monotonic()
        if trace or (len(untraced) >= MIN_ROUNDS and now - started >= seconds):
            break
        if now - started + (now - round_start) > HARD_LIMIT_S:
            break
    traced = run_child(workload, seed, traced=True) if trace else None
    summary = summarize(untraced, traced)
    print_metrics(workload, summary)
    if trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in summary["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": stats["median"], "unit": stats["unit"]}
            for name, stats in summary["metrics"].items()
        }
    for reason in summary["failures"]:
        print(f"error: {reason}", file=sys.stderr)
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def provenance(seed: int, rounds: int, scale: float) -> Dict:
    """Full SHA, dirty flag and tool versions (None outside a git checkout)."""

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src", "benchmarks", ":!benchmarks/output")
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha.strip() if sha else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "rounds": rounds,
        "scale": scale,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def run_suite(names: List[str], seed: int, rounds: int, scale: float) -> Dict:
    """Interleaved untraced rounds, then one traced round per workload."""
    untraced: Dict[str, List[Dict]] = {name: [] for name in names}
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            untraced[name].append(run_child(name, seed, scale))
    traced = {name: run_child(name, seed, scale, traced=True) for name in names}
    return {name: summarize(untraced[name], traced[name]) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset (suite mode)")
    parser.add_argument("--out", type=Path, help="results file (suite mode)")
    parser.add_argument(
        "--smoke", action="store_true", help="workloads 10x smaller, 2 rounds"
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    try:
        if args.workload is not None:
            result = drive_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
            unknown = sorted(set(names) - set(WORKLOADS))
            if unknown:
                parser.error(f"unknown workloads: {', '.join(unknown)}")
            rounds, scale = (2, SMOKE_SCALE) if args.smoke else (args.rounds, 1.0)
            prov = provenance(args.seed, rounds, scale)
            prov["loadavg_before"] = list(load_before)
            results = run_suite(names, args.seed, rounds, scale)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    load_flag = check_load(load_before, load_after)
    if args.workload is not None:
        print(json.dumps(result))
        return 0

    prov["loadavg_after"] = list(load_after)
    prov["load_flag"] = load_flag
    for name, summary in results.items():
        print_metrics(name, summary)
    out = args.out
    if out is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        out = HERE / "results" / f"{stamp}-{(prov['git_sha'] or 'nogit')[:12]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": prov, "workloads": results}, indent=1) + "\n")
    print(f"wrote {out}")
    failed = sum(summary["failed"] for summary in results.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
