# Convenience targets for the RPCValet reproduction.

PYTHON ?= python

.PHONY: install test bench figures figures-full validate examples trace loc clean

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

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
		benchmarks/output .benchmarks traces
	find . -name __pycache__ -type d -exec rm -rf {} +
