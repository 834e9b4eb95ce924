"""Per-layer attribution for the traced pass, measured from outside ``src/``.

Two instruments, both installed only in the traced child:

* :func:`self_time_by_layer` folds a ``cProfile`` run into self seconds
  per layer, where a layer is a package under ``src/repro/``. Self time
  of code outside the package (C builtins such as ``heappush``, numpy,
  the standard library) is charged to the layers that called it, in
  proportion to the time pstats records per caller.
* :class:`Probes` wraps a few public entry points to count work the
  results do not expose: kernel events per ``Environment.run``, DES
  calibration-probe runs, and runner tasks.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Tuple

#: The layers: every package of ``src/repro/`` a workload runs, plus the
#: top-level ``runner`` module, plus ``other`` for everything else.
LAYERS = (
    "sim",
    "arch",
    "balancing",
    "workloads",
    "metrics",
    "core",
    "runner",
    "cluster",
    "rack",
    "faults",
    "popload",
    "fastpath",
    "datacenter",
    "tracing",
    "telemetry",
    "other",
)

#: Functions whose DES runs count as calibration probes of the fast tiers.
PROBE_FUNCTIONS = frozenset(
    {
        "calibrated_scheme_profile",
        "calibrated_chip_profile",
        "calibrated_profile_overhead_ns",
    }
)

#: pstats key: (filename, line, function name).
FuncKey = Tuple[str, int, str]


def layer_of(filename: str, package_root: Path) -> Optional[str]:
    """The layer of a source file, or None for code outside the package."""
    try:
        rel = Path(filename).resolve().relative_to(package_root)
    except (OSError, ValueError):
        return None
    head = rel.parts[0]
    name = head[:-3] if len(rel.parts) == 1 and head.endswith(".py") else head
    return name if name in LAYERS else "other"


def self_time_by_layer(stats: Dict, package_root: Path) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` mapping.

    Each entry maps a function to ``(cc, nc, tt, ct, callers)`` with
    ``callers`` mapping caller keys to the same tuple restricted to
    calls from that caller. The result's values sum to the profile's
    total self time.
    """
    memo: Dict[FuncKey, Dict[str, float]] = {}
    in_progress = set()

    def owners(func: FuncKey) -> Dict[str, float]:
        """Fractions of ``func``'s self time owned by each layer."""
        layer = layer_of(func[0], package_root)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in in_progress or func not in stats:
            return {"other": 1.0}
        in_progress.add(func)
        callers = stats[func][4]
        weights = {caller: entry[3] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        shares: Dict[str, float] = defaultdict(float)
        if total <= 0:
            shares["other"] = 1.0
        else:
            for caller, weight in weights.items():
                for owner, fraction in owners(caller).items():
                    shares[owner] += fraction * weight / total
        in_progress.discard(func)
        memo[func] = dict(shares)
        return memo[func]

    by_layer = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for owner, fraction in owners(func).items():
            by_layer[owner] += tt * fraction
    return by_layer


def calls_named(stats: Dict, package_root: Path, layer: str, name: str) -> int:
    """Total pstats call count of functions called ``name`` in ``layer``."""
    return sum(
        entry[1]
        for func, entry in stats.items()
        if func[2] == name and layer_of(func[0], package_root) == layer
    )


def self_time_in_file(stats: Dict, suffix: str) -> float:
    """Self seconds of functions defined in files ending with ``suffix``."""
    return sum(
        (
            entry[2]
            for func, entry in stats.items()
            if func[0].replace("\\", "/").endswith(suffix)
        ),
        0.0,
    )


class Probes:
    """Counting wrappers around public entry points (traced child only).

    ``phase`` names the child's current phase; events and runner tasks
    count in the ``body`` phase, calibration probes in ``setup``.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.events = 0
        self.runner_tasks = 0
        self.probe_runs = 0
        self.probe_s = 0.0
        self._undo = []

    def install(self) -> None:
        from repro import runner
        from repro.cluster import Cluster
        from repro.core import RpcValetSystem
        from repro.sim import Environment

        self._wrap_method(Environment, "run", after=self._after_env_run)
        self._wrap_method(Cluster, "run", timed_probe=True)
        self._wrap_method(RpcValetSystem, "run_point", timed_probe=True)
        original = runner.map_points

        def map_points(fn, tasks, *args, **kwargs):
            if self.phase == "body":
                self.runner_tasks += len(tasks)
            return original(fn, tasks, *args, **kwargs)

        # Modules that imported the name hold their own reference.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "map_points", None) is original
            ):
                self._set(module, "map_points", map_points)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _after_env_run(self, env) -> None:
        if self.phase == "body":
            # The kernel numbers events from an itertools.count; its repr
            # reads the next id without consuming it.
            self.events += int(repr(env._eid)[len("count(") : -1])

    def _wrap_method(self, cls, name: str, after=None, timed_probe: bool = False) -> None:
        original = getattr(cls, name)
        probes = self

        def wrapper(obj, *args, **kwargs):
            probe = timed_probe and probes.phase == "setup" and _inside_probe()
            started = time.perf_counter()
            result = original(obj, *args, **kwargs)
            if probe:
                probes.probe_runs += 1
                probes.probe_s += time.perf_counter() - started
            if after is not None:
                after(obj)
            return result

        wrapper.__name__ = original.__name__
        self._set(cls, name, wrapper)


def _inside_probe() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name in PROBE_FUNCTIONS:
            return True
        frame = frame.f_back
    return False
