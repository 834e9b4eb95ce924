"""Demo Perfetto trace: one telemetry-instrumented fig7a-style point.

``python -m repro.experiments.trace`` (or ``make trace``) runs a single
HERD load point on the 1×16 (RPCValet-style) configuration with message
capture and telemetry enabled, then writes three artifacts:

* ``rpcvalet.trace.json`` — Trace Event Format, emitted through the
  unified exporter (:func:`repro.telemetry.export_unified_trace`) so
  per-RPC bars on NI/dispatcher/core tracks and queue-depth counter
  tracks land in one file; load it at https://ui.perfetto.dev;
* ``rpcvalet.telemetry.jsonl`` — the merged telemetry snapshot, one
  JSON object per counter/histogram/series;
* ``rpcvalet.manifest.json`` — run provenance (config, git SHA,
  versions, wall-clock), including a ``capture`` section that records
  how many messages the ``max_messages`` cap kept vs dropped.

The point runs at ~70% of nominal capacity so queues visibly build and
drain without saturating.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from ..core import make_system
from ..telemetry import export_unified_trace, write_snapshot_jsonl

__all__ = ["produce_trace", "main"]


def _trace_point_task(task) -> object:
    """One instrumented trace point (module-level: cacheable/picklable)."""
    system, load, num_requests, max_messages = task
    return system.run_point(
        load,
        num_requests=num_requests,
        keep_messages=True,
        max_messages=max_messages,
    )


def produce_trace(
    directory,
    scheme: str = "1x16",
    workload: str = "herd",
    num_requests: int = 4_000,
    load_fraction: float = 0.7,
    max_messages: int = 2_000,
    seed: int = 0,
) -> dict:
    """Run one instrumented point and write the trace/telemetry/manifest.

    Returns ``{"trace": path, "telemetry": path, "manifest": path,
    "events": count}``.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    started = time.time()

    system = make_system(scheme, workload, seed=seed, telemetry=True)
    capacity_mrps = 16.0 / (system.expected_service_ns / 1e3)
    load = load_fraction * capacity_mrps
    # Routed through map_points as a single task so the instrumented
    # point consults the on-disk result cache when caching is enabled.
    from ..runner import map_points

    outcome = map_points(
        _trace_point_task,
        [(system, load, num_requests, max_messages)],
        workers=1,
        labels=[f"trace {scheme}/{workload} (seed {seed})"],
        progress=False,
    )
    result = outcome.results[0]
    if result is None:
        raise RuntimeError(
            f"trace run failed: {'; '.join(outcome.findings())}"
        )

    trace_path = directory / "rpcvalet.trace.json"
    events = export_unified_trace(
        trace_path, messages=result.messages, telemetry=result.telemetry
    )
    telemetry_path = directory / "rpcvalet.telemetry.jsonl"
    write_snapshot_jsonl(result.telemetry, telemetry_path)

    from .persistence import build_manifest

    manifest = build_manifest(
        "trace-demo",
        config={
            "scheme": scheme,
            "workload": workload,
            "num_requests": num_requests,
            "offered_mrps": load,
            "max_messages": max_messages,
            "seed": seed,
        },
        elapsed_s=time.time() - started,
        capture={
            "max_messages": max_messages,
            "kept_messages": len(result.messages),
            "dropped_messages": result.dropped_messages,
        },
    )
    manifest_path = directory / "rpcvalet.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))

    return {
        "trace": trace_path,
        "telemetry": telemetry_path,
        "manifest": manifest_path,
        "events": events,
        "p99_ns": result.p99,
        "dropped_messages": result.dropped_messages,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Produce a demo Perfetto trace from one instrumented run.",
    )
    parser.add_argument(
        "--out", default="traces", metavar="DIR", help="output directory"
    )
    parser.add_argument("--scheme", default="1x16", help="balancing scheme")
    parser.add_argument("--workload", default="herd", help="workload name")
    parser.add_argument(
        "--requests", type=int, default=4_000, help="requests to simulate"
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    args = parser.parse_args(argv)
    outcome = produce_trace(
        args.out,
        scheme=args.scheme,
        workload=args.workload,
        num_requests=args.requests,
        seed=args.seed,
    )
    print(
        f"wrote {outcome['trace']} ({outcome['events']} events, "
        f"p99 {outcome['p99_ns'] / 1e3:.2f}µs, "
        f"{outcome['dropped_messages']} messages dropped by the capture cap)"
    )
    print(f"wrote {outcome['telemetry']}")
    print(f"wrote {outcome['manifest']}")
    print("open the trace at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
