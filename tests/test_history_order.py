"""History is ordered per object (paper §7's partial persistence).

The archive keeps each object's motion versions with their validity
intervals, which needs only *that object's* versions in time order.  A
shard's write stream is not in time order once speed routing moves
objects between shards or reconciliation replays a peer's writes, so
no history write is refused for being behind the time its shard has
seen: a report older than its object's current motion leaves the
superseded version out of the archive, and everything else applies as
on a plain shard.
"""

from __future__ import annotations

import pytest

from repro.service import FaultTolerantMotionService, ShardedMotionService
from repro.vector.ops import RegisterOp, ReportOp

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


@pytest.mark.parametrize(
    "cls", [ShardedMotionService, FaultTolerantMotionService]
)
def test_a_write_behind_its_shards_clock_applies(cls):
    """A write set whose second op is behind the clock its first op
    set: both apply, and the catalog, the shard and the log agree."""
    kwargs = {"shards": 1, "keep_history": True}
    if cls is FaultTolerantMotionService:
        kwargs["replication_factor"] = 1
    svc = cls(Y_MAX, V_MIN, V_MAX, **kwargs)
    svc.register(1, 100.0, 1.0, 0.0)
    ops = [ReportOp(1, 900.0, 1.0, 10.0), RegisterOp(2, 500.0, 1.0, 5.0)]
    assert svc.apply_batch(ops) == [None, None]
    svc.register(3, 300.0, 1.0, 1.0)  # a scalar write behind the clock
    shard = svc._shards[0]
    assert shard.motion_of(1).t0 == 10.0
    assert svc.motion_snapshot() == shard.motion_snapshot()
    assert svc.query_past(495.0, 515.0, 5.0, 10.0) == {2}
    if cls is FaultTolerantMotionService:
        tail = svc._nodes[0].wal.tail()
        assert [(r["kind"], r["oid"], r["t0"]) for r in tail[-3:]] == [
            ("update", 1, 10.0), ("insert", 2, 5.0), ("insert", 3, 1.0),
        ]


def velocity_service():
    svc = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=2, keep_history=True, router="velocity"
    )
    svc.register(1, 100.0, 0.5, 5.0)
    svc.register(2, 200.0, 1.5, 50.0)
    assert (svc.shard_of(1), svc.shard_of(2)) == (0, 1)
    return svc


def test_a_speed_crossing_moves_into_a_shard_whose_clock_is_ahead():
    svc = velocity_service()
    svc.report(1, 110.0, 1.5, 10.0)
    assert svc.shard_of(1) == 1
    assert svc.query_past(110.0, 130.0, 10.0, 20.0) == {1}


def test_rehome_moves_into_a_shard_whose_clock_is_ahead():
    svc = velocity_service()
    svc.set_bands([0.3])
    svc.rehome([1, 2])
    assert svc.shard_of(1) == 1
    assert svc.motion_snapshot()[1].t0 == 5.0


def test_recover_shard_reconciles_a_history_shard():
    """Writes missed while a replica was down are reconciled in oid
    order, behind the clock the later ones set."""
    svc = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=2, replication_factor=2,
        keep_history=True,
    )
    svc.register(1, 100.0, 1.0, 0.0)
    svc.kill_shard(1)
    svc.register(2, 200.0, 1.0, 10.0)
    svc.report(1, 120.0, 1.0, 20.0)
    svc.recover_shard(1)
    assert svc.down_shards() == []
    up, recovered = svc._shards
    assert recovered.motion_snapshot() == up.motion_snapshot()
    assert recovered.history_snapshot() == up.history_snapshot()
    svc.kill_shard(0)
    assert svc.query_past(115.0, 125.0, 10.0, 20.0) == {1}

