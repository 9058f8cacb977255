"""The update-listener contract: a write set is announced once, as the
columns it arrived in.

Over ``MotionDatabase``, ``ShardedMotionService`` and the replicated
service alike, a listener is called once per scalar verb and once per
``apply_batch``, with the :class:`~repro.vector.columns.WriteColumns`
of exactly the acknowledged ops in submission order (an op refused
announces nothing; a batch that acknowledges nothing makes no call).
An op is announced as it was submitted: a report that moves its object
to another replica group is one ``ReportOp``, and a rehome announces one
``ReportOp`` of the unchanged motion per object it moved.
"""

import pytest

from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.service import FaultTolerantMotionService, ShardedMotionService
from repro.vector.columns import WriteColumns
from repro.vector.ops import DeregisterOp, RegisterOp, ReportOp

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

TARGETS = {
    "database": lambda: MotionDatabase(Y_MAX, V_MIN, V_MAX),
    "sharded": lambda: ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, router="velocity"
    ),
    "replicated": lambda: FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2,
        router="velocity",
    ),
}
SERVICES = ["sharded", "replicated"]


def listen(target):
    calls = []
    target.attach_update_listener(calls.append)
    return calls


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_one_call_per_write_set_carrying_the_acknowledged_ops(name):
    target = TARGETS[name]()
    calls = listen(target)
    target.register(1, 10, 1, 0)
    target.report(1, 20.0, -1.0, 1.0)
    with pytest.raises(ObjectNotFoundError):
        target.report(99, 20.0, 1.0, 1.0)
    with pytest.raises(InvalidMotionError):
        target.report(1, 2 * Y_MAX, 1.0, 1.0)
    target.deregister(1)
    batch = [
        RegisterOp(2, 100.0, 0.5, 2.0),
        RegisterOp(2, 110.0, 0.5, 2.0),      # duplicate: refused
        ReportOp(3, 10.0, 1.0, 2.0),         # unknown: refused
        RegisterOp(4, -5.0, 1.0, 2.0),       # off-terrain: refused
        RegisterOp(5, 300.0, -1.5, 2.0),
        ReportOp(2, 120.0, 1.5, 3.0),
        DeregisterOp(5),
    ]
    outcomes = target.apply_batch(batch)
    assert [i for i, o in enumerate(outcomes) if o is None] == [0, 4, 5, 6]
    assert target.apply_batch([ReportOp(77, 1.0, 1.0, 1.0)]) != [None]
    assert all(type(writes) is WriteColumns for writes in calls)
    assert [list(writes) for writes in calls] == [
        [RegisterOp(1, 10, 1, 0)],
        [ReportOp(1, 20.0, -1.0, 1.0)],
        [DeregisterOp(1)],
        [batch[0], batch[4], batch[5], batch[6]],
    ]
    # The rows are the ops' fields as the shards hold them.
    first, last = calls[0], calls[-1]
    assert [first.y0.dtype, first.y0.tolist()] == ["float64", [10.0]]
    assert last.oid.tolist() == [2, 5, 2, 5]
    assert last.v.tolist()[:3] == [0.5, -1.5, 1.5]


@pytest.mark.parametrize("name", SERVICES)
def test_a_move_and_a_rehome_each_announce_one_report(name):
    service = TARGETS[name]()
    calls = listen(service)
    service.register(7, 500.0, 0.2, 0.0)
    service.register(8, 600.0, 1.6, 0.0)
    slow = service.shard_of(7)
    service.report(7, 500.0, 1.6, 1.0)  # crosses the velocity bands
    assert service.shard_of(7) != slow
    moved = service.apply_batch([ReportOp(7, 510.0, 0.2, 2.0)])
    assert moved == [None] and service.shard_of(7) == slow
    service.set_bands((0.1, 0.15, 0.3))  # 0.2 now routes to band 2
    assert service.rehome([8, 7]) == {7: None}  # 8 stays in band 3
    assert service.shard_of(7) == 2
    assert [list(writes) for writes in calls] == [
        [RegisterOp(7, 500.0, 0.2, 0.0)],
        [RegisterOp(8, 600.0, 1.6, 0.0)],
        [ReportOp(7, 500.0, 1.6, 1.0)],
        [ReportOp(7, 510.0, 0.2, 2.0)],
        [ReportOp(7, 510.0, 0.2, 2.0)],
    ]


def test_a_cold_restore_announces_the_population_once(tmp_path):
    def build():
        return FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2,
            wal_dir=str(tmp_path),
        )

    service = build()
    service.apply_batch([RegisterOp(i, 10.0 * i, 1.0, 0.0) for i in (3, 1, 2)])
    service.close()
    restored = build()
    calls = listen(restored)
    restored.restore_from_disk()
    assert [list(writes) for writes in calls] == [
        [RegisterOp(i, 10.0 * i, 1.0, 0.0) for i in (1, 2, 3)]
    ]
    restored.close()
