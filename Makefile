# Convenience targets; everything is plain pytest / python underneath.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: help install test lint lint-deep typecheck bench bench-full chaos results examples clean

help:
	@echo "Targets:"
	@echo "  install    editable install (pip install -e .)"
	@echo "  test       run the test suite (PYTHONPATH=src)"
	@echo "  lint       run the repro.analysis invariant linter over src/ and tests/"
	@echo "  lint-deep  per-file linter plus the interprocedural pass"
	@echo "             (DK109-DK112); refreshes analysis-effects.json"
	@echo "  typecheck  run mypy (strict on repro.core/indexes/partition/analysis)"
	@echo "  bench      quick paper-experiment benchmark pass (pytest-benchmark)"
	@echo "  bench-full the same at full scale"
	@echo "             (wall-clock workloads: python3 perfbench/run.py)"
	@echo "  chaos      run the three chaos suites at seed 0: update faults,"
	@echo "             the checkpoint-store durability crash matrix and"
	@echo "             the storage crash matrix"
	@echo "  results    regenerate docs/results-scale-1.0.txt"
	@echo "  examples   run every example script"
	@echo "  clean      remove caches and build artifacts"

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m repro lint src tests

lint-deep: lint
	$(PYTHON) -m repro lint src --deep --effects-out analysis-effects.json

typecheck:
	$(PYTHON) -m mypy src/repro

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_SCALE=1.0 $(PYTHON) -m pytest benchmarks/ --benchmark-only

chaos:
	$(PYTHON) -m repro chaos --seed 0

results:
	$(PYTHON) -m repro bench all --scale 1.0 | tee docs/results-scale-1.0.txt

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done

clean:
	rm -rf .pytest_cache .benchmarks .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
