PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test campaign-smoke perfbench-smoke perfbench-compare

# Tier-1 verification: the full unit/property/integration suite.
test:
	$(PYTHON) -m pytest -x -q

# Campaign scale-out gate: run a 2-shard, 2-worker mini-campaign with
# JSONL persistence and assert the merged fingerprint matches the
# unsharded run byte for byte (leaves campaign-smoke/shard*.jsonl behind);
# the last phase runs a campaign big enough for the pool to batch jobs.
campaign-smoke:
	$(PYTHON) tools/campaign_smoke.py

# The benchmark declared in BENCHMARK.json (see perfbench/README.md): a
# tiny run of every workload and metric, then the bound-by-bound verdict
# of result file B against result file A (both written by
# `python3 perfbench/run.py --set --seed N --out FILE`).
perfbench-smoke:
	$(PYTHON) perfbench/run.py --set --smoke --seconds 0

perfbench-compare:
	$(PYTHON) perfbench/run.py --compare $(A) $(B)
