# Convenience targets for the CC-Hunter reproduction.

PYTHON ?= python

.PHONY: install test lint bench bench-check profile examples figures \
	report serve-demo clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Matches the tier-1 invocation: runs straight from the source tree,
# no editable install needed.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Same invocation as the CI lint job (requires `pip install ruff`).
lint:
	ruff check src tests benchmarks examples

# Benches run numpy's BLAS on one thread: OpenBLAS's worker threads
# can stall the autocorrelogram kernel's many small dot products for
# hundreds of ms. The setting must be in the environment before numpy
# loads, so it lives here rather than in repro.bench.
ONE_BLAS_THREAD = OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

bench:
	$(ONE_BLAS_THREAD) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regression gate: rerun the registered benches and compare against the
# committed BENCH_*.json baselines (exit 8 on regression). Quick mode
# mirrors the CI smoke run; `make bench-check QUICK=` forces full runs.
QUICK ?= --quick
bench-check:
	$(ONE_BLAS_THREAD) PYTHONPATH=src $(PYTHON) -m repro bench check $(QUICK)

# Per-stage latency attribution for one detection run
# (docs/PERFORMANCE.md, "Profiling and flamegraphs").
profile:
	PYTHONPATH=src $(PYTHON) -m repro detect --channel membus \
		--bandwidth 1000 --bits 8 --no-noise \
		--profile-out profile.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro profile profile.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/cloud_colocation_audit.py
	$(PYTHON) examples/smt_divider_sweep.py
	$(PYTHON) examples/false_alarm_screening.py
	$(PYTHON) examples/detect_and_respond.py
	$(PYTHON) examples/offline_forensics.py
	$(PYTHON) examples/streaming_audit.py
	$(PYTHON) examples/metrics_dashboard.py
	$(PYTHON) examples/forensic_report.py
	$(PYTHON) examples/multi_tenant_audit.py

# Multi-tenant detection service demo (docs/SERVING.md): start the
# service, stream one covert tenant over a lossy link and one benign
# tenant at it, then SIGINT for a graceful drain and summary.
SERVE_PORT ?= 7341
serve-demo:
	@PYTHONPATH=src $(PYTHON) -m repro serve --port $(SERVE_PORT) & \
	SERVE_PID=$$!; \
	sleep 1; \
	PYTHONPATH=src $(PYTHON) -m repro stream --tenant covert-demo \
		--port $(SERVE_PORT) --profile covert --quanta 24 \
		--inject drop:0.2 || test $$? -eq 3; \
	PYTHONPATH=src $(PYTHON) -m repro stream --tenant benign-demo \
		--port $(SERVE_PORT) --profile benign --quanta 24; \
	kill -INT $$SERVE_PID; \
	wait $$SERVE_PID

# End-to-end forensics demo: run a detection with evidence capture and
# render the self-contained HTML report (docs/FORENSICS.md).
report:
	$(PYTHON) -m repro detect --channel membus --bandwidth 1000 \
		--bits 8 --no-noise --evidence-out evidence.json \
		--timeseries-out metrics.jsonl --report-out report.html
	@echo "open report.html in a browser"

figures:
	$(PYTHON) -m repro figure 2
	$(PYTHON) -m repro figure 3
	$(PYTHON) -m repro figure 6
	$(PYTHON) -m repro figure 7
	$(PYTHON) -m repro figure 8
	$(PYTHON) -m repro figure 13
	$(PYTHON) -m repro table1

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis benchmarks/results.txt profile.json
