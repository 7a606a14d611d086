# Convenience targets — same commands CI runs (.github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint oracle bench faults trace all

test:            ## tier-1 test suite
	$(PYTHON) -m pytest -x -q

lint:            ## simulator-aware static analysis (docs/SIMLINT.md)
	$(PYTHON) -m simlint src/ tests/ benchmarks/ examples/ tools/

oracle:          ## differential + metamorphic oracle run (docs/ORACLE.md)
	$(PYTHON) -m repro.cli oracle --cases 2000

bench:           ## paper-figure benches (prints + writes benchmarks/out/)
	$(PYTHON) -m pytest benchmarks/ -q

faults:          ## fault-injection smoke: tests at 1e-3 + overhead bench
	REPRO_VERIFY=1 REPRO_FAULT_RATE=1e-3 $(PYTHON) -m pytest -x -q tests/test_faults.py
	$(PYTHON) -m pytest -q benchmarks/bench_faults.py

trace:           ## record + validate a Perfetto trace (docs/OBSERVABILITY.md)
	$(PYTHON) -m repro.cli obs --fullsystem --requests 120 --out trace.json \
		--flamegraph trace_flame.txt --metrics trace_metrics.json

all: lint test
