"""Driver reachability: the function lines in ``src/repro`` that no
driver, example or artifact main ever enters.

Runs, in this process and under :mod:`cProfile`:

* ``all --profile smoke`` with every output option switched on
  (``--cache --cache-dir --cache-stats --chart --csv --save --progress``);
* ``fig7a`` again on the warm cache (cache hits), once with
  ``--no-cache --seed 1`` and once at ``--workers 2`` (the parent-side
  pool path; the workers themselves are other processes and are not
  traced);
* every engine-aware driver on ``des``, ``fast`` and ``fluid``, except
  ``ext-scale`` on ``des``, which runs at ``--profile quick`` instead;
* every script in ``examples/``;
* the ``trace`` and ``tails`` artifact mains.

A function counts as reached when the profiler saw it called at least
once. Its lines run from its ``def`` to its last line; a nested
function's lines count toward the nested function. The report lists
the unreached lines per module, each module's unreached functions
under its row, and the total. A run that raises is reported and does
not stop the trace. Driver output goes to ``reach.log``, kept with
``--out DIR``.

Informational, like ``make loc``: ``make reach`` or
``python tools/reach.py [--out DIR]``. Takes about ten minutes on two
cores.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import pathlib
import runpy
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

ENGINES = ("des", "fast", "fluid")


def function_lines(path: pathlib.Path) -> dict:
    """Map ``(first line, name)`` of each function to its line count.

    A function's lines run from its ``def`` to its last line, docstring,
    comments and blank lines included; lines of a nested function count
    toward the nested function. The first line is the code object's
    ``co_firstlineno``: the first decorator's line, else the ``def``.
    """
    functions = []

    def visit(node, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((depth, child))
                visit(child, depth + 1)
            else:
                visit(child, depth)

    visit(ast.parse(path.read_text()), 0)
    # Outer functions first, so nested functions overwrite their span.
    functions.sort(key=lambda item: item[0])
    owner = {}
    for _, node in functions:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        for line in range(node.lineno, node.end_lineno + 1):
            owner[line] = (first, node.name)
    table = dict.fromkeys(owner.values(), 0)
    for key in owner.values():
        table[key] += 1
    return table


def runs(scratch: pathlib.Path):
    """Yield ``(label, callable)`` for every entry point the trace covers."""
    from repro.experiments.cli import ENGINE_AWARE, main as cli

    cache = ["--cache", "--cache-dir", str(scratch / "cache")]
    yield "all --profile smoke (every output option)", lambda: cli(
        ["all", "--profile", "smoke", *cache, "--cache-stats", "--chart",
         "--csv", str(scratch / "csv"), "--save", str(scratch / "save"),
         "--progress"]
    )
    yield "fig7a warm cache", lambda: cli(
        ["fig7a", "--profile", "smoke", *cache, "--cache-stats"]
    )
    yield "fig7a --no-cache --seed 1", lambda: cli(
        ["fig7a", "--profile", "smoke", "--no-cache", "--seed", "1"]
    )
    yield "fig7a --workers 2", lambda: cli(
        ["fig7a", "--profile", "smoke", "--workers", "2"]
    )
    for name in sorted(ENGINE_AWARE):
        for engine in ENGINES:
            if (name, engine) == ("ext-scale", "des"):
                # Forced onto the DES, its grid's 1024-node rung is
                # refused (scale.DES_MAX_NODES); quick reaches the DES
                # branch through its 16-node cross-check.
                yield "ext-scale --profile quick", lambda: cli(
                    ["ext-scale", "--profile", "quick"]
                )
                continue
            yield f"{name} --engine {engine}", (
                lambda name=name, engine=engine: cli(
                    [name, "--profile", "smoke", "--engine", engine]
                )
            )
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{script.name}", (
            lambda script=script: runpy.run_path(str(script), run_name="__main__")
        )
    from repro.experiments import tails, trace

    yield "repro.experiments.trace", lambda: trace.main(
        ["--out", str(scratch / "trace"), "--requests", "2000"]
    )
    yield "repro.experiments.tails", lambda: tails.main(
        ["--out", str(scratch / "tails"), "--profile", "smoke"]
    )


def trace_reached(out: pathlib.Path, scratch: pathlib.Path):
    """Run every entry point under one profiler; return it and failures."""
    from repro.cache import set_cache
    from repro.runner import set_progress

    profiler = cProfile.Profile()
    failures = []
    with open(out / "reach.log", "w") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for label, run in runs(scratch):
                print(f"== {label}", file=sys.__stderr__, flush=True)
                print(f"== {label}", flush=True)
                started = time.time()
                profiler.enable()
                # A run that fails is reported and the trace goes on.
                try:
                    run()
                except SystemExit as exc:
                    if exc.code:
                        failures.append((label, f"exit status {exc.code}"))
                except Exception as exc:
                    failures.append((label, f"{type(exc).__name__}: {exc}"))
                    traceback.print_exc()
                finally:
                    profiler.disable()
                    set_progress(None)
                    set_cache(None)
                    print(f"   {time.time() - started:.1f}s",
                          file=sys.__stderr__, flush=True)
    return profiler, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="keep the driver output log, reach.log, in DIR",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # trace this checkout, not an install

    # Artifacts and the result cache always start empty: a warm cache
    # would skip the simulations the trace is meant to enter.
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = pathlib.Path(args.out or tmp)
        out.mkdir(parents=True, exist_ok=True)
        profiler, failures = trace_reached(out, pathlib.Path(tmp) / "artifacts")
        profiler.create_stats()
        reached = {
            (pathlib.Path(filename).resolve(), line, name)
            for filename, line, name in profiler.stats
        }
        total = unreached_total = 0
        rows = []
        for path in sorted(PACKAGE.rglob("*.py")):
            table = function_lines(path)
            missed = {
                key: count
                for key, count in table.items()
                if (path, *key) not in reached
            }
            module_total = sum(table.values())
            module_missed = sum(missed.values())
            total += module_total
            unreached_total += module_missed
            if module_missed:
                rows.append((module_missed, module_total, path, missed))
        for module_missed, module_total, path, missed in sorted(
            rows, key=lambda row: (-row[0], str(row[2]))
        ):
            print(f"{module_missed:6d} / {module_total:5d}  "
                  f"{path.relative_to(SRC)}")
            for (line, name), count in sorted(missed.items()):
                print(f"{'':16s}{count:5d}  {name} (line {line})")
        print(f"{unreached_total:6d} / {total:5d}  function lines in "
              "src/repro never entered")
        for label, error in failures:
            print(f"failed: {label}: {error}")
        if args.out:
            print(f"driver output: {out / 'reach.log'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
