"""Compare benchmark result files against the bounds in ``BENCHMARK.json``.

Two files (base, then new)::

    python3 benchmarks/suite/compare.py BASE.json NEW.json

or N interleaved A/B pairs, base first in each pair::

    python3 benchmarks/suite/compare.py --pairs A1.json B1.json A2.json B2.json ...

For every workload and end-to-end metric it prints both sides' medians
and quartiles and a verdict:

* ``worse``: the new median is worse than the base median by more than
  the metric's bound;
* ``improved``: the new median is better by more than the base's own
  spread (quartile distance over median), and the new side won at
  least 9 of every 10 pairs (ties count for neither) or, comparing two
  files, every new sample beats every base sample;
* ``unresolved``: the spread of either side is wider than the bound,
  unless every new sample beats every base sample;
* ``same``: none of the above.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from run import quartiles  # run.py sits beside this file

ROOT = Path(__file__).resolve().parents[2]
WIN_FRACTION = 0.9


def declared_metrics(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, Dict]:
    spec = json.loads(path.read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def _stats(values: Sequence[float]) -> Dict[str, float]:
    stats = quartiles(list(values))
    stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
    return stats


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    win_fraction: Optional[float] = None,
) -> str:
    """One metric's verdict; ``win_fraction`` is given in pair mode only."""
    a, b = _stats(base), _stats(new)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / a["median"]
    dominates = min(sign * x for x in new) > max(sign * x for x in base)
    if gain < -bound:
        return "worse"
    if max(a["spread"], b["spread"]) > bound and not dominates:
        return "unresolved"
    wins_enough = dominates if win_fraction is None else win_fraction >= WIN_FRACTION
    if gain > a["spread"] and gain > 0 and wins_enough:
        return "improved"
    return "same"


def _rows(
    base: Dict[str, Dict[str, List[float]]],
    new: Dict[str, Dict[str, List[float]]],
    metrics: Dict[str, Dict],
    wins: Optional[Dict] = None,
) -> List[Dict]:
    rows = []
    for workload in sorted(set(base) & set(new)):
        for name, spec in metrics.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            a, b = base[workload][name], new[workload][name]
            win = wins[workload][name] if wins is not None else None
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "base": _stats(a),
                    "new": _stats(b),
                    "win_fraction": win,
                    "verdict": verdict(a, b, spec["better"], spec["bound"], win),
                }
            )
    return rows


def _samples(result: Dict) -> Dict[str, Dict[str, List[float]]]:
    return {name: w["samples"] for name, w in result["workloads"].items()}


def compare_files(base: Dict, new: Dict, metrics: Dict[str, Dict]) -> List[Dict]:
    """Rows comparing the per-round samples of two result files."""
    return _rows(_samples(base), _samples(new), metrics)


def compare_pairs(pairs: List[tuple], metrics: Dict[str, Dict]) -> List[Dict]:
    """Rows comparing per-pair medians; each pair is (base, new) results."""
    base: Dict[str, Dict[str, List[float]]] = {}
    new: Dict[str, Dict[str, List[float]]] = {}
    won: Dict[str, Dict[str, int]] = {}
    for a_result, b_result in pairs:
        a_samples, b_samples = _samples(a_result), _samples(b_result)
        for workload in set(a_samples) & set(b_samples):
            for name, spec in metrics.items():
                if name not in a_samples[workload]:
                    continue
                a = statistics.median(a_samples[workload][name])
                b = statistics.median(b_samples[workload][name])
                base.setdefault(workload, {}).setdefault(name, []).append(a)
                new.setdefault(workload, {}).setdefault(name, []).append(b)
                sign = 1.0 if spec["better"] == "higher" else -1.0
                # A tie counts for neither side.
                count = won.setdefault(workload, {}).setdefault(name, 0)
                won[workload][name] = count + (sign * (b - a) > 0)
    wins = {
        workload: {name: count / len(pairs) for name, count in names.items()}
        for workload, names in won.items()
    }
    return _rows(base, new, metrics, wins)


def render(rows: List[Dict]) -> str:
    def side(stats: Dict[str, float]) -> str:
        return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"

    lines = [
        f"{'workload':<11} {'metric':<15} {'base median [q1, q3]':<30} "
        f"{'new median [q1, q3]':<30} {'change':>8} {'wins':>5}  verdict"
    ]
    for row in rows:
        a, b = row["base"], row["new"]
        change = (b["median"] - a["median"]) / a["median"]
        win = "" if row["win_fraction"] is None else f"{row['win_fraction']:.2f}"
        lines.append(
            f"{row['workload']:<11} {row['metric']:<15} {side(a):<30} {side(b):<30} "
            f"{change:>+8.2%} {win:>5}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument(
        "--pairs", action="store_true", help="files are interleaved base/new pairs"
    )
    args = parser.parse_args(argv)
    results = [json.loads(path.read_text()) for path in args.files]
    metrics = declared_metrics()
    if args.pairs:
        if len(results) % 2:
            parser.error("--pairs needs an even number of files")
        rows = compare_pairs(list(zip(results[::2], results[1::2])), metrics)
    else:
        if len(results) != 2:
            parser.error("give two files, or --pairs with an even number")
        rows = compare_files(results[0], results[1], metrics)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
