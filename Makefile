# Convenience targets for the FEAM reproduction.

PYTHON ?= python3

.PHONY: install test ci bench bench-matrix perf-gate fleet-gate \
	telemetry-gate history-gate alert-gate persist-gate chaos serve \
	slo trace tables report examples clean

# Run-ledger directory used by the history gate (wiped per run).
HISTORY_LEDGER ?= .ci-runs
# Sim ratios are deterministic per seed: two identical matrix runs
# compare at exactly x1.00, and the flaky chaos profile at seed 7 with
# 2 binaries lands at x1.06, so 1.03 separates them with margin on
# both sides.  Wall-clock rows never gate (see repro.obs.compare.gate).
HISTORY_FAIL_ABOVE ?= 1.03

# Wall-time budget (seconds) for the 1,000-site fleet evaluation.
FLEET_BUDGET ?= 60

# Persistent-cache directory used by the persist gate (wiped per run).
PERSIST_CACHE ?= .ci-persist-cache

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-matrix:
	PYTHONPATH=src $(PYTHON) benchmarks/emit_bench.py BENCH_matrix.json

perf-gate: bench-matrix
	PYTHONPATH=src $(PYTHON) benchmarks/check_regression.py

fleet-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/emit_bench.py \
		--fleet fleet:n=1000,seed=7 --budget-seconds $(FLEET_BUDGET) \
		BENCH_fleet.json

telemetry-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/telemetry_gate.py \
		--fleet fleet:n=1000,seed=7 --binaries 4

alert-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/alert_gate.py

# Cold fill -> fresh-process warm start (>=90% disk hits, >=5x faster,
# byte-identical grid) -> byte-flipped record quarantined with outcomes
# unchanged -> `feam cache verify` red on corruption, green after
# `feam cache compact`.
persist-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/persist_gate.py \
		--cache-dir $(PERSIST_CACHE)

# Two fresh-process matrix runs must land two ledger entries and
# compare clean; the flaky chaos run must then trip the same gate.
history-gate:
	rm -rf $(HISTORY_LEDGER)
	PYTHONPATH=src $(PYTHON) -m repro feam matrix --seed 7 \
		--binaries 2 --ledger $(HISTORY_LEDGER) > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro feam matrix --seed 7 \
		--binaries 2 --ledger $(HISTORY_LEDGER) > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro feam runs --ledger $(HISTORY_LEDGER)
	PYTHONPATH=src $(PYTHON) -m repro feam compare -2 -1 \
		--ledger $(HISTORY_LEDGER) --fail-above $(HISTORY_FAIL_ABOVE)
	PYTHONPATH=src $(PYTHON) -m repro feam drift --ledger $(HISTORY_LEDGER)
	PYTHONPATH=src $(PYTHON) -m repro feam chaos --profile flaky \
		--seed 7 --binaries 2 --ledger $(HISTORY_LEDGER) > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro feam compare -2 -1 \
		--ledger $(HISTORY_LEDGER) \
		--fail-above $(HISTORY_FAIL_ABOVE); \
	test $$? -eq 3

chaos:
	PYTHONPATH=src $(PYTHON) -m repro feam chaos \
		--profile benchmarks/chaos_flaky.txt --seed 7 \
		--summary-out chaos_summary.json

serve:
	PYTHONPATH=src $(PYTHON) -m repro feam serve

slo:
	PYTHONPATH=src $(PYTHON) -m repro feam slo

trace:
	PYTHONPATH=src $(PYTHON) -m repro feam trace --trace-out trace.jsonl

tables:
	$(PYTHON) -m repro all

report:
	$(PYTHON) -m repro report

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
