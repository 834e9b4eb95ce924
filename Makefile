# Convenience targets for the RPCValet reproduction.

PYTHON ?= python

.PHONY: install test bench figures figures-full validate examples trace loc reach ab clean

install:
	pip install -e .[dev] || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_PROFILE=quick $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every paper table/figure (quick profile, ~4 minutes).
figures:
	$(PYTHON) -m repro.experiments all --profile quick

# Publication-scale numbers (the EXPERIMENTS.md profile; slow).
figures-full:
	$(PYTHON) -m repro.experiments all --profile full

validate:
	$(PYTHON) -m repro.experiments validate

# Demo Perfetto trace (per-RPC bars + queue-depth counter tracks) from
# one telemetry-instrumented HERD point; open at https://ui.perfetto.dev
trace:
	$(PYTHON) -m repro.experiments.trace --out traces

examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# Added/deleted/net lines under src/ and tests/ since BASE (default:
# main), from git diff --numstat. Informational, not a gate.
BASE ?= main
loc:
	@for dir in src tests; do \
		git diff --numstat $(BASE) -- $$dir | awk -v dir=$$dir \
			'$$1 != "-" { add += $$1; del += $$2 } \
			END { printf "%-6s +%d -%d net %+d\n", dir "/", add, del, add - del }'; \
	done

# Function-body lines in src/repro that no driver, example or artifact
# main enters, per module and in total (tools/reach.py: cProfile in one
# process, every CLI option switched on once; a few minutes).
# Informational, not a gate.
reach:
	$(PYTHON) tools/reach.py

# Interleaved A/B of the benchmark suite: BASE, checked out into a
# temporary git worktree, against this working tree. Each of PAIRS
# pairs runs benchmarks/suite/run.py once per side (one untraced round
# plus a traced one), the side that goes first alternating; then
# compare.py --pairs, base first. Both sides compile from source (no
# __pycache__ kept or written). Refuses when benchmarks/suite/ differs
# between the two trees. Informational, not a gate.
WORKLOADS ?= des-chip
PAIRS ?= 10
SEED ?= 1
ab:
	@if ! git diff --quiet $(BASE) -- benchmarks/suite; then \
		echo "ab: benchmarks/suite/ differs between $(BASE) and the working tree" >&2; \
		exit 1; \
	fi; \
	tmp=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach --quiet "$$tmp/base" $(BASE) || exit 1; \
	find src "$$tmp/base/src" -name __pycache__ -type d -prune -exec rm -rf {} +; \
	files=; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base new"; else order="new base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then tree="$$tmp/base"; else tree="$(CURDIR)"; fi; \
			echo "ab: pair $$i/$(PAIRS), $$side"; \
			(cd "$$tree" && PYTHONDONTWRITEBYTECODE=1 $(PYTHON) benchmarks/suite/run.py \
				--workloads $(WORKLOADS) --seed $(SEED) --rounds 1 \
				--out "$$tmp/$$side-$$i.json" > /dev/null) || exit 1; \
		done; \
		files="$$files $$tmp/base-$$i.json $$tmp/new-$$i.json"; \
	done; \
	$(PYTHON) benchmarks/suite/compare.py --pairs $$files

# benchmarks/output/ (the committed driver outputs CI diffs against)
# and src/repro.egg-info/ hold tracked files: remove only what is
# untracked there.
clean:
	rm -rf build dist .pytest_cache .benchmarks traces
	git clean -fdqx -- benchmarks/output
	git clean -fdqx -- '*.egg-info/*'
	find . -name __pycache__ -type d -exec rm -rf {} +
