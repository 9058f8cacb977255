"""Units for the chaos layer: the crash injector and routing.

The fault machinery must itself be deterministic — a chaos run that
cannot be replayed cannot be debugged — so these tests pin
:class:`FaultInjector`'s crash plan (one-shot, 1-based, counted per
shard) and that a write to an unknown object is rejected per
operation.
"""

import pytest

from repro.errors import InjectedFaultError, ObjectNotFoundError
from repro.service import (
    DeregisterOp,
    FaultInjector,
    ShardedMotionService,
)


class TestFaultInjector:
    def drain(self, injector, shard, ops):
        """Run ``ops`` accesses of ``shard``, returning each outcome."""
        outcomes = []
        for _ in range(ops):
            try:
                injector.on_op(shard, "op")
                outcomes.append("ok")
            except InjectedFaultError:
                outcomes.append("crash")
        return outcomes

    def test_rejects_a_zero_based_plan(self):
        with pytest.raises(ValueError):
            FaultInjector({0: 0})

    def test_shards_count_independently(self):
        injector = FaultInjector({2: 5})
        assert self.drain(injector, 0, 20) == ["ok"] * 20
        assert self.drain(injector, 2, 5) == ["ok"] * 4 + ["crash"]
        assert injector.snapshot()["ops_per_shard"] == {0: 20, 2: 5}

    def test_crash_on_nth_op_fires_once(self):
        injector = FaultInjector({2: 5})
        outcomes = self.drain(injector, 2, 5)
        assert outcomes == ["ok"] * 4 + ["crash"]
        # One-shot: the same plan does not re-fire after recovery.
        assert self.drain(injector, 2, 20) == ["ok"] * 20
        assert injector.snapshot()["crashed_shards"] == [2]

    @pytest.mark.parametrize("crash", [1, 4, 5, 6, 9])
    @pytest.mark.parametrize("before", [0, 2, 4])
    def test_a_run_counts_as_its_accesses(self, crash, before):
        """``on_ops(shard, n)`` is ``n`` ``on_op`` calls up to the first
        that raises: it admits the accesses before the planned crash,
        counts the crashing one, and leaves the rest uncounted (the
        shard is down for them)."""
        run, one = FaultInjector({1: crash}), FaultInjector({1: crash})
        for injector in (run, one):
            self.drain(injector, 1, before)
        outcomes = []
        while len(outcomes) < 4 and "crash" not in outcomes:
            outcomes += self.drain(one, 1, 1)
        assert run.on_ops(1, 4) == outcomes.count("ok")
        assert run.snapshot() == one.snapshot()


class TestShardHint:
    """An oid no shard holds has nowhere to route: its write is
    rejected per op, never mis-routed onto some shard."""

    def test_unknown_deregister_groups_but_still_errors(self):
        service = ShardedMotionService(1000.0, 0.16, 1.66, shards=3)
        service.register(1, 100.0, 1.0, 0.0)
        (error,) = service.apply_batch([DeregisterOp(424242)])
        assert isinstance(error, ObjectNotFoundError)
