"""Command-line driver: ``python -m repro.experiments <id> [--profile P]``.

Runs one experiment (or ``all``) and prints its tables — the same
rows/series the paper's figures plot. ``--workers N`` fans each sweep's
independent load points across N processes (bit-identical results at
any worker count; see :mod:`repro.runner`). ``--chart`` adds monospace
scatter plots of the sweep curves; ``--csv DIR`` writes every sweep as
long-format CSV for external plotting.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Callable, Dict, List

from ..metrics import SweepResult, sweeps_chart, sweeps_csv
from ..runner import set_progress
from .ablations import (
    run_indirection_ablation,
    run_outstanding_ablation,
    run_policy_ablation,
    run_scalability_ablation,
    run_slots_ablation,
    run_straggler_ablation,
)
from .common import ExperimentResult, PROFILES
from .datacenter import run_datacenter
from .diurnal import run_diurnal
from .extensions import (
    run_bursts,
    run_cluster,
    run_dynamic_slots,
    run_hedging,
    run_preemption,
    run_rss_spray,
    run_validate,
)
from .faults import run_faults
from .fig2 import run_fig2a, run_fig2b, run_fig2c
from .fig6 import run_fig6
from .fig7 import run_fig7a, run_fig7b, run_fig7c
from .fig8 import run_fig8
from .fig9 import run_fig9
from .headline import run_headline
from .rack import run_rack
from .scale import run_scale
from .sensitivity import run_sensitivity
from .tails import run_tails

__all__ = ["EXPERIMENTS", "ENGINE_AWARE", "main", "collect_sweeps"]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig2a": run_fig2a,
    "fig2b": run_fig2b,
    "fig2c": run_fig2c,
    "fig6": run_fig6,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig7c": run_fig7c,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "headline": run_headline,
    "ablation-outstanding": run_outstanding_ablation,
    "ablation-policy": run_policy_ablation,
    "ablation-indirection": run_indirection_ablation,
    "ablation-slots": run_slots_ablation,
    "ablation-scalability": run_scalability_ablation,
    "ablation-straggler": run_straggler_ablation,
    "ext-preemption": run_preemption,
    "ext-hedging": run_hedging,
    "ext-dynamic-slots": run_dynamic_slots,
    "validate": run_validate,
    "sensitivity": run_sensitivity,
    "ext-cluster": run_cluster,
    "ext-rack": run_rack,
    "ext-scale": run_scale,
    "ext-faults": run_faults,
    "ext-bursts": run_bursts,
    "ext-tails": run_tails,
    "ext-diurnal": run_diurnal,
    "ext-datacenter": run_datacenter,
    "ablation-rss-spray": run_rss_spray,
}

#: Experiments whose driver accepts ``engine=`` (see
#: :mod:`repro.fastpath`); everything else always runs the DES.
#: Resolution is capability-aware
#: (:data:`repro.fastpath.ENGINE_CAPABILITIES`): shaped arrival
#: processes and fault plans run on the per-RPC tiers, deterministic
#: rate profiles additionally on the fluid tier's transient ODE,
#: ``ext-datacenter``'s two-level routing pins it to the per-RPC
#: tiers (the ``hierarchy`` capability), and ``ext-tails`` needs the
#: ``tracing`` capability, which only the DES has (span tracing
#: instruments the discrete-event hot paths themselves): ``auto``
#: resolves to ``des`` and an explicit ``fast``/``fluid`` raises the
#: standard capability error. The cross-checks these drivers append
#: on quick/full all build their table through
#: :func:`repro.experiments.common.tier_check`.
ENGINE_AWARE = frozenset(
    {"ext-rack", "ext-scale", "ext-tails", "ext-diurnal", "ext-datacenter",
     "headline"}
)


def collect_sweeps(value) -> List[SweepResult]:
    """Find every SweepResult nested in an experiment's data payload."""
    found: List[SweepResult] = []
    if isinstance(value, SweepResult):
        found.append(value)
    elif isinstance(value, dict):
        for child in value.values():
            found.extend(collect_sweeps(child))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rpcvalet-experiments",
        description="Regenerate the RPCValet paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper figure) or 'all'",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        choices=sorted(PROFILES),
        help="request-count profile (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan independent load points across N worker processes "
            "(default: REPRO_WORKERS env var, else serial); results are "
            "bit-identical for every worker count"
        ),
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=("des", "fast", "fluid", "auto"),
        help=(
            "simulation tier for engine-aware experiments "
            f"({', '.join(sorted(ENGINE_AWARE))}); default: each driver's "
            "own default (see EXPERIMENTS.md 'Engine tiers'); other "
            "experiments always run the DES"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print live per-task progress/ETA lines to stderr while "
            "sweeps run (also enabled by REPRO_PROGRESS=1)"
        ),
    )
    parser.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=None,
        help=(
            "reuse cached sweep-point results from disk (also enabled by "
            "REPRO_CACHE=1 or REPRO_CACHE=<dir>); results are bit-identical "
            "to an uncached run"
        ),
    )
    parser.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="disable the result cache regardless of REPRO_CACHE",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: $XDG_CACHE_HOME/rpcvalet-repro)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss counters to stderr after each experiment",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render the sweep curves as text scatter plots",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="write each experiment's sweeps as <DIR>/<id>.csv",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="save a JSON snapshot as <DIR>/<id>.json (for regression diffs)",
    )
    args = parser.parse_args(argv)

    if args.progress:
        set_progress(True)
    if args.cache is not None or args.cache_dir is not None:
        from ..cache import set_cache

        set_cache(enabled=args.cache, directory=args.cache_dir)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        kwargs = {}
        if args.engine is not None and name in ENGINE_AWARE:
            kwargs["engine"] = args.engine
        result = EXPERIMENTS[name](
            profile=args.profile, seed=args.seed, workers=args.workers, **kwargs
        )
        elapsed = time.time() - started
        print(result.table())
        sweeps = collect_sweeps(result.data)
        if args.chart and sweeps:
            print()
            print(
                sweeps_chart(
                    sweeps,
                    title=f"{result.experiment_id}: p99 vs achieved throughput",
                )
            )
        if args.csv and sweeps:
            out_dir = pathlib.Path(args.csv)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_path = out_dir / f"{result.experiment_id}.csv"
            out_path.write_text(sweeps_csv(sweeps))
            print(f"[wrote {out_path}]")
        if args.save:
            from .persistence import save_result

            print(f"[saved {save_result(result, args.save)}]")
        if args.save or args.csv:
            from .persistence import write_manifest

            config = {
                "profile": args.profile,
                "seed": args.seed,
                "workers": args.workers,
            }
            for directory in {args.save, args.csv} - {None}:
                manifest_path = write_manifest(
                    result.experiment_id,
                    directory,
                    config=config,
                    elapsed_s=elapsed,
                )
                print(f"[manifest {manifest_path}]")
        if args.cache_stats:
            from ..cache import cache_stats

            # Stderr, so stdout stays byte-identical with/without the
            # cache (CI diffs stdout across runs).
            print(
                f"[{name} cache {cache_stats().as_dict()}]",
                file=sys.stderr,
                flush=True,
            )
        print(f"[{name} took {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
