PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-props bench bench-quick bench-all bench-xl bench-xxl scenarios scenarios-smoke scenarios-lossy trace-smoke results-check claims perf-ab solve-bench

test:
	$(PYTHON) -m pytest -x -q

# Property-based store-equivalence suite (tests/properties).  Runs under
# the fixed deterministic Hypothesis profile; REPRO_PROPS_EXAMPLES=n
# deepens the soak locally (tier-1 runs the bounded default via `test`).
test-props:
	$(PYTHON) -m pytest tests/properties -q

bench:
	$(PYTHON) benchmarks/bench_slot_pipeline.py

bench-quick:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --scenarios static-small --no-output

bench-all:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --all

# The 5k/10k-peer tier: static-large re-measures with the reference
# paths, static-xlarge (10k) records the columnar columns only.
# Written to its own JSON so `make bench`'s committed matrix is kept.
bench-xl:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --scenarios static-large static-xlarge --output BENCH_slot_pipeline_xl.json

# The scaling curve: 5k → 10k → 50k anchors, reference-free above 5k.
bench-xxl:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --scenarios static-large static-xlarge static-xxl --output BENCH_slot_pipeline_xxl.json

# Telemetry gate: a tiny scenario with tracing on — every span must
# validate against the JSONL schema, traces must replay byte-identically,
# the timed phases plus other_s must add up to slot_s, and the
# instrumentation-off slot time is pinned within 3% of untraced
# (tier-1 runs the same tests via `make test`).
trace-smoke:
	$(PYTHON) -m pytest tests/obs/test_trace_smoke.py -q

# Fast scenario-engine gate: every registered scenario runs a few tiny
# slots end to end (tier-1 runs the same tests via `make test`).
scenarios-smoke:
	$(PYTHON) -m pytest tests/scenarios/test_smoke.py -q

# The two lossy-network catalog scenarios at tiny scale: a quick
# end-to-end drive of the link model + retry pipeline (report only,
# nothing written — the committed reports are bench scale).
scenarios-lossy:
	$(PYTHON) -m repro scenario run lossy-backbone --scale tiny --no-save
	$(PYTHON) -m repro scenario run flaky-isp --scale tiny --no-save

# Regenerate every catalog scenario's bench-scale report under results/.
scenarios:
	for name in $$($(PYTHON) -c "from repro.scenarios import scenario_names; print(' '.join(scenario_names()))"); do \
		$(PYTHON) -m repro scenario run $$name || exit 1; \
	done

# Regenerate every archive under results/ — the figure and ablation
# benches, then every catalog scenario — and fail if any file differs
# from the committed one.  Slow (minutes), so not part of `make test`.
results-check:
	$(PYTHON) -m pytest -q benchmarks/test_fig*.py benchmarks/test_ablation*.py
	$(MAKE) scenarios
	git diff --exit-code -- results/

# The paper's anchors across seeds: Fig. 2-6 and ablation A4 at bench
# scale for seeds 0-7 through the functions the benches call, printed as
# one margin per anchor and seed (positive when the anchor holds), then
# each figure's shape checks.  Writes nothing under results/ and exits 1 if
# anything fails at some seed.  About a minute on a 2-core host, so not
# part of `make test`.
claims:
	$(PYTHON) benchmarks/claims.py

# Paired A/B of the end-to-end slot benchmark (perfbench/run.py --trace
# $(TRACE)): BASE against this checkout (uncommitted tracked edits included),
# each checked out into a temporary git worktree at paths of equal length,
# PAIRS pairs that alternate which tree runs first.  Prints each
# end-to-end metric's median, quartiles and win count; TRACE=1 compares
# traced runs on the per-layer metrics instead.  Slow (about a minute and
# a quarter a pair on churn-lossy-3k, 2-core host), so not part of
# `make test`.
BASE ?= HEAD
W ?= churn-lossy-3k
SEED ?= 1
PAIRS ?= 10
TRACE ?= 0
perf-ab:
	$(PYTHON) benchmarks/perf_ab.py --base $(BASE) --workload $(W) --seed $(SEED) --pairs $(PAIRS) --trace $(TRACE)

# The live auction solves of one perfbench workload (pass 0 of seed
# $(SEED), its first 3 measured slots × 4 bid rounds), re-solved in
# process: the solver's ms per solve (fastest of 5 sweeps) and one
# sha256 over every result's assignment, λ, stats and price callbacks.
# Two trees' solves can so be checked for bit-identity and timed in
# seconds.  Not part of `make test`.
solve-bench:
	$(PYTHON) benchmarks/solve_bench.py --workload $(W) --seed $(SEED)
