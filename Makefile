# Convenience targets for the mobile-object indexing reproduction.

.PHONY: install check test property-explore service-smoke chaos-smoke subs-smoke batch-smoke service-tests chaos-tests batch-baseline durability-smoke soak-smoke soak-baseline rebalance-smoke rebalance-baseline update-bench-smoke update-baseline parallel-smoke parallel-baseline serve-smoke perf-smoke perf bench figures examples results clean

install:
	python setup.py develop

# Sanity gate: compile + import, then every end-to-end smoke run.  The
# test suites are not repeated here: `make test` (and tier-1) runs
# `pytest tests/`, which collects all of them; one marker alone is
# `pytest -m subscription|batch|durability|soak|rebalance|writebatch|parallel`.
check:
	python -m compileall -q src
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -c "import repro, repro.service"
	$(MAKE) subs-smoke
	$(MAKE) batch-smoke
	$(MAKE) durability-smoke
	$(MAKE) soak-smoke
	$(MAKE) rebalance-smoke
	$(MAKE) update-bench-smoke
	$(MAKE) parallel-smoke
	$(MAKE) perf-smoke

test: check service-smoke
	pytest tests/

# Counterexample hunt: tier-1 pins hypothesis to examples derived from
# the test source (tests/conftest.py, profile "tier1"); this runs the
# property tests under fresh random draws instead.  A failure here is a
# new finding — pin it on its test with @example.
property-explore:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m pytest tests/ -k propert --hypothesis-profile=explore

# Tiny end-to-end run of the sharded service: catches wiring breakage
# (routing, batch executor, metrics snapshot) in seconds.
service-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --n 200 --shards 3 --batches 2 \
		--updates 20 --queries 10 --seed 1

# Seeded chaos run: injected faults + replication 2 + differential
# verification against a faultless single database.  Exit code 3 on
# any lost update or mismatching answer.
chaos-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --n 240 --shards 3 --batches 3 \
		--updates 24 --queries 12 --seed 7 \
		--faults --replication 2 --verify

# Continuous-subscription smoke: standing queries maintained from
# crossing events must answer exactly like naive per-tick
# re-evaluation (exit 3 on divergence) at a fraction of the probes.
subs-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --subscriptions --n 120 \
		--shards 3 --subs 12 --ticks 6 --updates 20 --seed 5

# Batched-query smoke: the vectorized batch path must answer
# byte-identically to the scalar loop over the same seeded workload
# (exit 3 on any divergence) while being several times faster.
batch-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --batch --n 1500 --queries 300 \
		--shards 3 --batch-size 100 --seed 5

# Regenerate the committed batch-throughput baseline at the
# acceptance scale (10k objects, 1k queries).
batch-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --batch --n 10000 --queries 1000 \
		--shards 4 --batch-size 250 --seed 42 \
		--batch-json benchmarks/results/BENCH_batch.json

# The service differential + concurrency + metrics suites alone.
service-tests:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest tests/test_service_differential.py \
		tests/test_service_concurrency.py \
		tests/test_service_metrics.py

# The fault-injection / recovery suites (chaos differential, WAL
# crash-at-every-point, injector/breaker/retry units).
chaos-tests:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		pytest tests/test_replication.py tests/test_wal_recovery.py \
		tests/test_faults.py

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
		python -m repro serve-bench --soak --scenario city --n 300 \
		--ticks 6 --shards 3 --replication 2 --subs 8 --queries 24 \
		--arrivals 3 --departures 2 --crashes 1 --check-every 2 --seed 9

# Regenerate the committed soak baseline at the acceptance scale:
# 100k objects, multi-threaded mixed workload over a 4-wide worker
# pool, >=20 subscriptions, 2 crash/recovery cycles plus a durable
# WAL restart, zero tolerated divergences.
soak-baseline:
	rm -rf .soak-wal
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --soak --scenario city --n 100000 \
		--ticks 12 --shards 4 --replication 2 --threads 4 --subs 24 \
		--queries 64 --batch-size 16 --arrivals 40 --departures 25 \
		--crashes 2 --restarts 1 --wal-dir .soak-wal --fsync batch:32 \
		--check-every 3 --seed 42 --pool-workers 4 \
		--soak-json benchmarks/results/BENCH_soak.json
	rm -rf .soak-wal

# Live-repartitioning smoke: an adversarially skewed band-routed
# population is re-cut and migrated by the rebalance controller under
# a concurrent update burst, then differentially verified against a
# faultless single database (exit 3 on any divergence or lost object).
rebalance-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --rebalance --n 800 --shards 4 \
		--updates 200 --seed 5 --verify

# Regenerate the committed rebalance baseline at the acceptance scale
# (10k objects, two controller passes around an update burst).
rebalance-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --rebalance --n 10000 --shards 4 \
		--updates 2000 --seed 42 --verify \
		--rebalance-json benchmarks/results/BENCH_rebalance.json

# Worker-pool smoke: a small scaling sweep (in-process oracle vs a
# 2-wide process pool over shared-memory columns) with every pooled
# answer differentially verified (exit 3 on any divergence), plus the
# async frontend's overload drill.
parallel-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --parallel --n 2000 --queries 90 \
		--shards 3 --batch-size 30 --pool-workers 0 2 --clients 6 \
		--requests 10 --queue-depth 8 --seed 5

# Regenerate the committed worker-pool scaling baseline at the
# acceptance scale (100k objects; 0 = the in-process oracle leg).
# The report records host cores: the pooled legs only show real
# speedup when the machine has cores to put the shards on.
parallel-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --parallel --n 100000 \
		--queries 600 --shards 4 --batch-size 50 \
		--pool-workers 0 1 2 4 --seed 42 \
		--clients 48 --requests 20 --queue-depth 16 \
		--parallel-json benchmarks/results/BENCH_parallel.json

# Concurrent-client serving drill against the admission-controlled
# asyncio frontend: bounded accepted-request p99, explicit shedding.
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --serve --n 2000 --queries 60 \
		--shards 3 --pool-workers 2 --clients 12 --requests 25 \
		--queue-depth 8 --seed 5

# Batched write-path smoke: apply_batch must produce byte-identical
# outcomes, catalogs and probe answers to the scalar write calls over
# the same seeded op stream (exit 3 on any divergence) while being
# several times faster.
update-bench-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --update-bench --n 1500 \
		--shards 3 --seed 5

# Regenerate the committed update-throughput baseline at the
# acceptance scale (10k objects, two report rounds with churn).
update-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		python -m repro serve-bench --update-bench --n 10000 \
		--seed 42 --update-json benchmarks/results/BENCH_update.json

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

bench:
	pytest benchmarks/ --benchmark-only

figures:
	python -m repro figures

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

results:
	python -m repro collect-results -o benchmarks/results/ALL.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
