PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-quick bench-check bench campaign-smoke orchestrate-smoke \
	perfbench-smoke perfbench-compare

# Tier-1 verification: the full unit/property/integration suite.
test:
	$(PYTHON) -m pytest -x -q

# Campaign scale-out gate: run a 2-shard, 2-worker mini-campaign with
# JSONL persistence and assert the merged fingerprint matches the
# unsharded run byte for byte (leaves campaign-smoke/shard*.jsonl behind);
# the last phase runs a campaign big enough for the pool to batch jobs.
campaign-smoke:
	$(PYTHON) tools/campaign_smoke.py

# Distributed-orchestrator gate: record a COSTS.json, drive 2 local
# subprocess hosts x 2 workers through a cost-sharded campaign, and
# assert the merged fingerprint equals the pinned unsharded one (leaves
# orchestrate-smoke/{shard*,merged}.jsonl behind for CI artifacts).
orchestrate-smoke:
	$(PYTHON) tools/orchestrator_smoke.py

# The benchmark declared in BENCHMARK.json (see perfbench/README.md): a
# tiny run of every workload and metric, then the bound-by-bound verdict
# of result file B against result file A (both written by
# `python3 perfbench/run.py --set --seed N --out FILE`).
perfbench-smoke:
	python3 perfbench/run.py --set --smoke

perfbench-compare:
	python3 perfbench/run.py --compare $(A) $(B)

# Legacy trail: the BENCH_*.json harness below predates perfbench.
# Fast smoke run of the persistent benchmark harness (no file written,
# single repeat; prints the comparison against the latest BENCH_*.json).
bench-quick:
	$(PYTHON) tools/run_benchmarks.py --repeats 1 --no-output

# Perf gate: fails when any metric regresses >20% versus the newest
# committed BENCH_*.json.  Best-of-9 to ride out machine noise.
bench-check:
	$(PYTHON) tools/run_benchmarks.py --check --no-output --repeats 9

# Full measured run writing BENCH_<LABEL>.json (default LABEL=dev).
LABEL ?= dev
bench:
	$(PYTHON) tools/run_benchmarks.py --label $(LABEL)
