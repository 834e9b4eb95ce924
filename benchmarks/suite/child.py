"""One round of one workload in a fresh process; prints one JSON object.

Run by ``run.py``, never imported. Phases, each recorded as a span:

1. ``setup``: from process start to the first scenario call, i.e. the
   imports plus this workload's calibrations, cold in a fresh process;
2. ``body``: the timed scenario calls (profiled when ``--traced``);
3. ``checks``: invariants and output digests;
4. ``tier-gap``: the untimed fast-vs-DES comparison, where one exists.

Untraced rounds report setup and body time both as measured and as
rescaled to full machine speed by :class:`speed.SpeedMeter`, which runs
from process start to the end of the body. Peak RSS is read before the
tier-gap pass, which runs extra probes.
"""

import time

T0 = time.perf_counter()

import speed  # noqa: E402  (standard library only)

METER = speed.SpeedMeter()
METER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"


class Spans:
    """Spans kept in memory: name, start and end (s since process start), parent."""

    def __init__(self) -> None:
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name: str, start: float = None):
        record = {
            "name": name,
            "start": (time.perf_counter() if start is None else start) - T0,
            "parent": self._stack[-1]["name"] if self._stack else None,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - T0
            self.records.append(record)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.traced:
        # The meter's signal handler would land in the profile.
        METER.stop()

    spans = Spans()
    with spans.span("setup", start=T0):
        import repro

        if SRC not in Path(repro.__file__).resolve().parents:
            print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import layers
        from workloads import WORKLOADS, problems

        workload = WORKLOADS[args.workload]
        probes = profiler = None
        if args.traced:
            import cProfile

            # Import what the probes wrap before wrapping it.
            import repro.core  # noqa: F401
            import repro.experiments.common  # noqa: F401

            probes = layers.Probes()
            probes.install()
            profiler = cProfile.Profile()
        ctx = workload.setup(args.seed, args.scale)
        calls = workload.scenarios(ctx)
    setup_host_s, setup_s = METER.rescale(T0, T0 + spans.records[-1]["end"])

    outcomes, errors = {}, {}
    body_host_s = body_s = 0.0
    if probes is not None:
        probes.phase = "body"
    with spans.span("body"):
        for key, call in calls:
            with spans.span(f"scenario:{key}") as record:
                if profiler is not None:
                    profiler.enable()
                try:
                    outcomes[key] = call()
                except Exception as exc:  # a failed call is a counted error
                    errors[key] = [f"{type(exc).__name__}: {exc}"]
                if profiler is not None:
                    profiler.disable()
            host, full = METER.rescale(T0 + record["start"], T0 + record["end"])
            record.update(host_s=host, full_speed_s=full)
            body_host_s += host
            body_s += full
    METER.stop()
    if probes is not None:
        probes.phase = "after"

    with spans.span("checks"):
        for key, outcome in outcomes.items():
            found = problems(outcome)
            if found:
                errors[key] = found
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tier_gap = None
    if workload.tier_gap is not None and not errors:
        with spans.span("tier-gap"):
            tier_gap = workload.tier_gap(ctx, outcomes)

    counters = {}
    for outcome in outcomes.values():
        for name, value in outcome.counters.items():
            counters[name] = counters.get(name, 0) + value
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "setup_host_s": setup_host_s,
        "body_s": body_s,
        "body_host_s": body_host_s,
        "rpcs": sum(outcome.rpcs for outcome in outcomes.values()),
        "peak_rss_mb": rss_mb,
        "attempted": len(calls),
        "scenarios": {
            key: {
                "digest": outcomes[key].digest() if key in outcomes else None,
                "outputs": outcomes[key].outputs if key in outcomes else {},
                "errors": errors.get(key, []),
            }
            for key, _call in calls
        },
        "counters": counters,
        "tier_gap_p99": tier_gap,
        "spans": spans.records,
    }
    if probes is not None:
        import pstats

        probes.uninstall()
        stats = pstats.Stats(profiler).stats
        root = Path(repro.__file__).resolve().parent
        report["traced_pass"] = {
            "layer_self_s": layers.self_time_by_layer(stats, root),
            "calendar_self_s": layers.self_time_in_file(stats, "fastpath/calendar.py"),
            "choose_calls": layers.calls_named(stats, root, "datacenter", "choose"),
            "events": probes.events,
            "runner_tasks": probes.runner_tasks,
            "probe_runs": probes.probe_runs,
            "probe_s": probes.probe_s,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
