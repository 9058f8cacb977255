# Convenience targets for the mobile-object indexing reproduction.

.PHONY: install check test property-explore durability-smoke soak-smoke soak-baseline perf-smoke perf perf-pairs bench paper-tables figures examples results clean

install:
	python setup.py develop

# Sanity gate: compile, the tier-1 suite (ROADMAP.md), the soak smoke
# (both write entry points), the SIGKILL drill and the eighteen
# byte-identical paper tables, then the perf ledger's own smoke.  One
# marker alone is
# `pytest -m chaos|subscription|batch|durability|soak|rebalance|writebatch|parallel`.
check:
	python -m compileall -q src
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q
	$(MAKE) soak-smoke
	$(MAKE) durability-smoke
	$(MAKE) paper-tables
	$(MAKE) perf-smoke

test:
	pytest tests/

# Counterexample hunt: tier-1 pins hypothesis to examples derived from
# the test source (tests/conftest.py, profile "tier1"); this runs the
# property tests under fresh random draws instead.  A failure here is a
# new finding — pin it on its test with @example.
property-explore:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m pytest tests/ -k propert --hypothesis-profile=explore

# The SIGKILL drill alone: spawn a WAL-backed service subprocess,
# kill it mid-write-storm, recover from the directory, and
# differential-check that no acknowledged update was lost (exit 1 on
# any loss or invented state).  Each fsync policy runs twice: the
# hash-routed storm, then --rebalance, a velocity-routed storm
# interleaved with band re-cuts and rehome moves, which adds the
# exactly-one-shard residency check.
durability-smoke:
	for fsync in always batch:32; do \
		for mode in "" --rebalance; do \
			PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
			python -m repro.storage.crashdrill --objects 30 \
			--kill-after-acks 150 --seed 42 --fsync $$fsync $$mode \
			|| exit 1; \
		done; \
	done

# Soak smoke: a small production-shaped mixed run (city scenario,
# churn, batched queries, live subscriptions, one crash/recovery)
# cross-checked against the naive oracle every other tick.  Exit 3 on
# any divergence; deterministic schedule digest for a fixed seed.  Runs
# twice: scalar writes, then 16-op apply_batch groups, so the crash and
# the degraded service it leaves are crossed with batched writes too.
soak-smoke:
	for batch in 1 16; do \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro soak --scenario city --n 300 --ticks 6 \
		--updates 100 --horizon 8 --shards 3 --replication 2 --subs 8 \
		--queries 24 --batch-size 250 --arrivals 3 --departures 2 \
		--crashes 1 --check-every 2 --seed 9 --write-batch $$batch \
		|| exit 1; \
	done

# Regenerate the committed soak baseline at the acceptance scale:
# 100k objects, multi-threaded mixed workload over a 4-wide worker
# pool, >=20 subscriptions, 2 crash/recovery cycles plus a durable
# WAL restart, zero tolerated divergences.
soak-baseline:
	rm -rf .soak-wal
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro soak --scenario city --n 100000 --ticks 12 \
		--updates 100 --horizon 8 --shards 4 --replication 2 \
		--threads 4 --subs 24 --queries 64 --batch-size 16 \
		--arrivals 40 --departures 25 --crashes 2 --restarts 1 \
		--wal-dir .soak-wal --fsync batch:32 --check-every 3 --seed 42 \
		--pool-workers 4 --json benchmarks/results/BENCH_soak.json
	rm -rf .soak-wal

# The perf benchmark's own smoke test: a --scale 0.02 pass of all four
# workloads, untraced and traced, and a pool run that must leave no
# process behind (~20 s).  Not collected by tier-1; part of check.
perf-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m pytest benchmarks/perf

# The repo's performance benchmark (BENCHMARK.json): four workloads,
# each in a fresh interpreter, every end-to-end metric by name, answers
# checked against the benchmark's oracle (non-zero exit on any wrong,
# shed, failed or lost operation).  A few minutes.
perf:
	python3 benchmarks/perf/run.py --seed 42

# The pair protocol for a claimed gain: one workload at the committed
# tree BASE (unpacked with git archive into a temp dir, removed after)
# against the working tree, seeds SEED .. SEED+PAIRS-1, one run a side
# and seed, the side that goes first alternating.  Each side's records are
# merged into PAIRS_OUT/{base,new}.json as {"runs": [...]} and
# benchmarks/perf/compare.py judges them (non-zero exit on a worse,
# unresolved or DIFFERENT row).  About PAIRS x 2 x 30 s at --seconds 10.
#   make perf-pairs BASE=<rev> WORKLOAD=durable_10k PAIRS=10 SEED=700
BASE ?= HEAD
WORKLOAD ?= durable_10k
PAIRS ?= 10
SEED ?= 42
PAIRS_OUT ?= .perf-pairs

perf-pairs:
	@set -e; base=$$(mktemp -d); trap 'rm -rf "$$base"' EXIT; \
	git archive $(BASE) | tar -x -C "$$base"; \
	rm -rf $(PAIRS_OUT); mkdir -p $(PAIRS_OUT); \
	for i in $$(seq 0 $$(($(PAIRS) - 1))); do \
		seed=$$(($(SEED) + i)); \
		if [ $$((i % 2)) -eq 0 ]; then sides="base new"; \
		else sides="new base"; fi; \
		for side in $$sides; do \
			if [ $$side = base ]; then root="$$base"; else root=.; fi; \
			echo "perf-pairs: $(WORKLOAD) seed $$seed $$side"; \
			python3 "$$root/benchmarks/perf/run.py" --workload $(WORKLOAD) \
				--seed $$seed --out $(PAIRS_OUT)/$$side-$$seed.json \
				> $(PAIRS_OUT)/$$side-$$seed.log; \
		done; \
	done; \
	for side in base new; do \
		python3 -c 'import json, sys; json.dump({"runs": [json.load(open(f)) for f in sys.argv[2:]]}, open(sys.argv[1], "w"), indent=1)' \
			$(PAIRS_OUT)/$$side.json $(PAIRS_OUT)/$$side-*.json; \
	done; \
	python3 benchmarks/perf/compare.py $(PAIRS_OUT)/base.json $(PAIRS_OUT)/new.json

# Every figure and ablation table under benchmarks/results/ (not the
# perf ledger, which has its own targets, nor the paper-scale run),
# then the result files that moved.
bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m pytest benchmarks --ignore=benchmarks/perf \
		--ignore=benchmarks/test_paper_scale.py
	git status --short benchmarks/results

# The gate for any change to a paper structure: regenerate the eight
# tables the R-tree family writes (Figures 6-9 and the TPR, planar,
# segment-horizon and route ablations) and the forest's bulk-build I/O
# table, each a .txt plus its BENCH_*.json twin, and fail if any of the
# eighteen files differs from its committed copy.  About two minutes;
# part of check.
PAPER_TABLES = fig6_query_io_10pct fig7_query_io_1pct fig8_space \
	fig9_update_io ablation_tpr ablation_planar_dynamic \
	ablation_segment_horizon ablation_routes ablation_bulk_build
PAPER_TABLE_FILES = $(foreach table,$(PAPER_TABLES),\
	benchmarks/results/$(table).txt benchmarks/results/BENCH_$(table).json)

paper-tables:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m pytest -q benchmarks/test_fig6_query_large.py \
		benchmarks/test_fig7_query_small.py benchmarks/test_fig8_space.py \
		benchmarks/test_fig9_update.py benchmarks/test_ablation_tpr.py \
		benchmarks/test_ablation_planar_dynamic.py \
		benchmarks/test_ablation_segment_horizon.py \
		benchmarks/test_ablation_routes.py \
		benchmarks/test_ablation_bulk_build.py
	git ls-files --error-unmatch $(PAPER_TABLE_FILES) > /dev/null
	git diff --exit-code -- $(PAPER_TABLE_FILES)

figures:
	python -m repro figures

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

results:
	python -m repro collect-results -o benchmarks/results/ALL.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
