# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-fast lint bench bench-all examples reproduce clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	ruff check .

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Quick benchmark smoke: reduced rounds, publishes the headline
# BENCH_simulator_throughput.json at the repo root (same job CI runs),
# including the warm-cache campaign throughput point.
bench:
	REPRO_BENCH_ROUNDS=50 PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/bench_simulator_throughput.py --benchmark-only -s
	@$(PYTHON) -c "import json; c = json.load(open('BENCH_simulator_throughput.json'))['campaign_cache']; print('campaign cache: %d tasks, cold %.2fs, warm %.3fs (%.1fx)' % (c['tasks'], c['cold_s'], c['warm_s'], c['speedup']))"
	@$(PYTHON) -c "import json; b = json.load(open('BENCH_simulator_throughput.json')).get('backends'); print('vectorized backend: %.1fx vs event @ N=64, %.0f replicates/s Monte Carlo' % (b['n64_speedup'], b['monte_carlo']['replicates_per_s'])) if b else print('vectorized backend: skipped (numpy unavailable)')"
	@$(PYTHON) -c "import json; b = json.load(open('BENCH_simulator_throughput.json')).get('backends'); g = b and b.get('gilbert_elliott'); print('gilbert-elliott @ N=%d: event %.0f rounds/s, vectorized %.0f rounds/s (%.1fx)' % (g['n_nodes'], g['event_rounds_per_s'], g['vectorized_rounds_per_s'], g['speedup'])) if g else print('gilbert-elliott point: skipped (numpy unavailable)')"
	@$(PYTHON) -c "import json; d = json.load(open('BENCH_simulator_throughput.json'))['dispatch']; print('dispatch: %d tasks @ jobs=%d, persistent pool %.2fs, remote-stub %.2fs' % (d['tasks'], d['jobs'], d['persistent_pool_s'], d['remote_stub_s']))"
	@$(PYTHON) -c "import json; s = json.load(open('BENCH_simulator_throughput.json'))['service']; print('service: warm %.0f req/s (%.1fx vs cold POST), %d concurrent clients -> %d simulation' % (s['warm_requests_per_s'], s['speedup'], s['concurrent_clients'], s['simulations_executed']))"

bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

# Regenerate every paper artefact and persist outputs.
reproduce:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
