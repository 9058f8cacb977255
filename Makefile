# Convenience targets for the mobile-object indexing reproduction.

.PHONY: install check test property-explore durability-smoke soak-smoke soak-baseline perf-smoke perf bench figures examples results clean

install:
	python setup.py develop

# Sanity gate: compile, the tier-1 suite (ROADMAP.md), then the perf
# ledger's own smoke.  One marker alone is
# `pytest -m chaos|subscription|batch|durability|soak|rebalance|writebatch|parallel`.
check:
	python -m compileall -q src
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q
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
# any loss or invented state).
durability-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro.storage.crashdrill --objects 30 \
		--kill-after-acks 150 --seed 42

# Soak smoke: a small production-shaped mixed run (city scenario,
# churn, batched queries, live subscriptions, one crash/recovery)
# cross-checked against the naive oracle every other tick.  Exit 3 on
# any divergence; deterministic schedule digest for a fixed seed.
soak-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro soak --scenario city --n 300 --ticks 6 \
		--updates 100 --horizon 8 --shards 3 --replication 2 --subs 8 \
		--queries 24 --batch-size 250 --arrivals 3 --departures 2 \
		--crashes 1 --check-every 2 --seed 9

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

# Every figure and ablation table under benchmarks/results/ (not the
# perf ledger, which has its own targets, nor the paper-scale run),
# then the result files that moved.
bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m pytest benchmarks --ignore=benchmarks/perf \
		--ignore=benchmarks/test_paper_scale.py
	git status --short benchmarks/results

figures:
	python -m repro figures

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

results:
	python -m repro collect-results -o benchmarks/results/ALL.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
