"""Units for the chaos layer: the crash injectors and routing.

The fault machinery must itself be deterministic — a chaos run that
cannot be replayed cannot be debugged — so these tests pin
:class:`FaultInjector`'s crash plan (one-shot, 1-based, counted per
shard), that :class:`CrashPointInjector` arms only the points some
layer fires, and that a write to an unknown object is rejected per
operation.
"""

import pytest

from repro.errors import InjectedFaultError, ObjectNotFoundError
from repro.service import (
    CrashPointInjector,
    CrashPointSpec,
    DeregisterOp,
    FaultInjector,
    ShardedMotionService,
    WRITE_BATCH_CRASH_POINTS,
)
from repro.storage import ALL_CRASH_POINTS


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
        """A run of four accesses after ``before`` others: each is
        counted, and the planned one — and only it — crashes, once."""
        injector = FaultInjector({1: crash})
        assert self.drain(injector, 1, before) == [
            "crash" if op == crash else "ok" for op in range(1, before + 1)
        ]
        assert self.drain(injector, 1, 4) == [
            "crash" if op == crash else "ok"
            for op in range(before + 1, before + 5)
        ]
        assert injector.snapshot() == {
            "crashed_shards": [1] if crash <= before + 4 else [],
            "ops_per_shard": {1: before + 4},
        }


class TestCrashPointInjector:
    @pytest.mark.parametrize(
        "point", ["write_batch.pre_fsync", "log.prefsync", "bulk", ""]
    )
    def test_a_point_no_layer_fires_is_refused(self, point):
        """A misspelt or retired point would never fire, and the run
        would pass without its crash: arming one, or planning one, is
        a ``ValueError``."""
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashPointInjector().arm(point)
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashPointInjector({point: CrashPointSpec()})

    def test_every_fired_point_arms(self):
        for point in ALL_CRASH_POINTS + WRITE_BATCH_CRASH_POINTS:
            armed = CrashPointInjector({point: CrashPointSpec(at=2)})
            assert armed.snapshot()["armed"] == [point]
            assert CrashPointInjector().arm(point).snapshot()["armed"] == [
                point
            ]


class TestShardHint:
    """An oid no shard holds has nowhere to route: its write is
    rejected per op, never mis-routed onto some shard."""

    def test_unknown_deregister_groups_but_still_errors(self):
        service = ShardedMotionService(1000.0, 0.16, 1.66, shards=3)
        service.register(1, 100.0, 1.0, 0.0)
        (error,) = service.apply_batch([DeregisterOp(424242)])
        assert isinstance(error, ObjectNotFoundError)
