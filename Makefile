# Convenience targets. Everything runs from the repo root with the
# src-layout package on PYTHONPATH (no install needed).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test cov lint smoke stream-smoke chaos-smoke city-smoke bench examples bench-smoke

# The full gate: tier-1 tests plus a fast runner smoke sweep.
verify: test smoke

# Tier-1: the repo's unit/integration suite (tests/ only).
test:
	$(PYTHON) -m pytest -x -q

# Tier-1 under coverage with the enforced floor (CI gate; needs
# pytest-cov). The floor sits a few points under the measured ~82% so
# honest refactors don't trip it, while a tests-less subsystem would.
COV_FLOOR ?= 78
cov:
	$(PYTHON) -m pytest -q --cov=repro \
		--cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COV_FLOOR)

# Static lint (ruff, config in pyproject.toml). CI installs ruff and
# fails on findings; locally the target explains itself when ruff is
# missing rather than masquerading as a pass.
lint:
	@command -v ruff >/dev/null 2>&1 \
		|| { echo "ruff not installed (pip install ruff); skipping lint"; exit 0; } \
		&& ruff check src tests benchmarks examples

# Fast end-to-end proof that the Monte-Carlo runner works: one scenario
# run with 2 workers and one two-point sweep, straight from a TOML file,
# then one trial of each example no other target runs, so an example
# that names a removed key fails here rather than only at load time,
# and the chaos soak example on 2 workers, so its keys are used and not
# only parsed; its --json output must report at least one pool respawn,
# or the example injected nothing. Last, a key the scenario kind does
# not declare must fail with exit status 2, and so must a preamble
# length (the preamble is fixed at 32 symbols).
smoke:
	$(PYTHON) -m repro run examples/scenarios/pair_collision.toml \
		--trials 2 --workers 2
	$(PYTHON) -m repro sweep examples/scenarios/capture_asymmetry.toml \
		--trials 2 --param params.sinr_db=0:8:8 --metrics total
	for f in hidden_pair_fading offered_load three_senders_stream; do \
		$(PYTHON) -m repro run examples/scenarios/$$f.toml --trials 1 \
			|| exit 1; \
	done
	$(PYTHON) -m repro run examples/scenarios/chaos_soak.toml --workers 2 \
		--json | $(PYTHON) -c "import json, sys; \
		stats = json.load(sys.stdin).get('supervision') or {}; \
		sys.exit(stats.get('pool_respawns', 0) < 1 \
		and 'chaos_soak.toml: no pool respawn, the chaos did not engage')"
	$(PYTHON) -m repro run examples/scenarios/pair_collision.toml \
		--trials 1 --set max_rounds=2; test $$? -eq 2
	$(PYTHON) -m repro run examples/scenarios/pair_collision.toml \
		--trials 1 --set preamble_length=16; test $$? -eq 2

# Tiny closed-loop soak through the CLI: continuous air, streaming
# segmentation, collision-buffer matching and ACK feedback end to end
# (the repro.link subsystem), ZigZag vs current-802.11 AP in one run.
# Then the session core's suites, the receiver superset suite (the
# ZigZag AP returns every packet the 802.11 AP returns on the same
# capture), plus the stream soaks, including the idle-heavy one that
# bounds how much idle air is synthesized instead of skipped, and the
# Fig 5-9 three-hidden-sender floor on the closed loop (both write
# benchmarks/results/), and the single-session closed-loop goldens
# (every case but the coupled block3, which city-smoke runs), named so
# a drift of the session loop shows up in the log.
stream-smoke:
	$(PYTHON) -m repro run examples/scenarios/ap_stream.toml \
		--trials 1 --set n_packets=2
	$(PYTHON) -m pytest -q tests/test_event_core.py \
		tests/test_link_session.py tests/test_receiver_superset.py \
		benchmarks/bench_stream_soak.py \
		benchmarks/bench_fig5_9_three_senders.py
	$(PYTHON) -m pytest -q tests/test_closed_loop_golden.py -k "not block3"

# Chaos soak (docs/resilience.md): worker kills, injected exceptions
# and hangs against a supervised run — every fault kind at once —
# asserting zero lost trials, surviving results
# bit-identical to a fault-free run, and no shared-memory segment left
# in /dev/shm (no run path creates one).
# Plus the full supervision test suite (checkpoint/resume, watchdog,
# SIGKILL-parent recovery).
chaos-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_chaos_soak.py \
		tests/test_runner_resilience.py

# Geometry-derived deployments end to end: a small 3-AP/12-client city
# block through the CLI (positions -> pathloss -> hidden pairs ->
# per-cell closed-loop sessions coupled by the multi-cell coordinator),
# stepped in process and then on two cell workers, plus the
# derived-topology test suite (fixed-seed regression, Hypothesis
# properties, multi-cell coordinator) and the coupled 3-AP block's
# closed-loop golden (block3), named next to the parallel-equivalence
# suite. The two-worker run's --json output must report two workers and
# no degradation, or the block silently stepped in process; the same run
# with every cell worker killed must report the in-process rerun: one
# worker, degraded.
city-smoke:
	$(PYTHON) -m repro run examples/scenarios/city_block.toml \
		--workers 0 --set deployment.n_aps=3 \
		--set deployment.n_clients=12 --set deployment.area_m=70
	$(PYTHON) -m repro run examples/scenarios/city_block.toml \
		--workers 1 --set n_trials=1 \
		--set design=zigzag --set deployment.n_aps=3 \
		--set deployment.n_clients=12 --set deployment.area_m=70 \
		--set deployment.coupled_workers=2 \
		--json | $(PYTHON) -c "import json, sys; \
		m = json.load(sys.stdin)['metrics']; \
		sys.exit((m['coupled_workers']['mean'] != 2 \
		or m['coupled_degraded']['mean'] != 0) \
		and 'city_block.toml: the 2-worker block degraded to in-process')"
	$(PYTHON) -m repro run examples/scenarios/city_block.toml \
		--workers 1 --set n_trials=1 \
		--set design=zigzag --set deployment.n_aps=3 \
		--set deployment.n_clients=12 --set deployment.area_m=70 \
		--set deployment.coupled_workers=2 \
		--set faults.kill_worker_prob=1.0 \
		--json | $(PYTHON) -c "import json, sys; \
		m = json.load(sys.stdin)['metrics']; \
		sys.exit((m['coupled_workers']['mean'] != 1 \
		or m['coupled_degraded']['mean'] != 1) \
		and 'city_block.toml: a killed block must report its rerun on 1 worker')"
	$(PYTHON) -m pytest -q tests/test_deployment.py \
		tests/test_multicell_parallel.py
	$(PYTHON) -m pytest -q tests/test_closed_loop_golden.py -k block3

# Regenerate every paper figure/table (slow; writes benchmarks/results/).
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

# The closed-loop benchmark (perfbench/, BENCHMARK.json) at tiny sizes:
# every workload untraced and traced, metric names and units checked
# against BENCHMARK.json, every op's output checked (~35 s on 2 CPUs).
bench-smoke:
	$(PYTHON) perfbench/run.py --smoke

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done
