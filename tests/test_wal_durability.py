"""The crash-at-every-boundary durability matrix (tentpole of ISSUE 6).

Every crash point the storage layer exposes × every fsync policy ×
page-cache survival or loss: after the injected death, a fresh
:class:`ShardWAL` over the same directory must recover a database
byte-identical (``assert_equivalent``) to a never-crashed oracle that
executed exactly the *expected committed prefix* — computed from first
principles per policy:

* ``drop_unsynced=True`` (power cut, page cache lost): the prefix is
  the durability floor — everything covered by the last ``fsync``;
* ``drop_unsynced=False`` (process death, page cache survives): the
  prefix is every fully-flushed record — acknowledged appends, plus
  the in-flight one when the crash landed after its write.

Plus the satellites: history-preserving checkpoints (the fixed
``keep_history`` limitation), the soft-degrade path for pre-history
checkpoints, and whole-service :meth:`restore_from_disk`.  Chaos over
the file backend is a leg of
``test_replication.py::test_chaos_r2_matches_faultless_single_database``.
"""

import random
import warnings

import pytest

from repro.engine import MotionDatabase
from repro.errors import DegradedResultWarning, SimulatedCrashError
from repro.service import ShardWAL
from repro.service.faults import CrashPointInjector
from repro.service.replication import FaultTolerantMotionService
from repro.storage import ALL_CRASH_POINTS, CheckpointStore, FileWALBackend
from repro.workloads.serialization import population_to_json

from tests.test_wal_recovery import (
    V_MAX,
    V_MIN,
    Y_MAX,
    assert_equivalent,
    factory,
    seeded_trace,
)

pytestmark = pytest.mark.durability

POLICIES = ("always", "batch:3", "never")
CHECKPOINT_EVERY = 8
EVENTS = 60


def history_factory() -> MotionDatabase:
    return MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest",
                          keep_history=True)


def drive_until_crash(directory, policy, injector, trace, hooks=None):
    """Apply ``trace`` through a durable ShardWAL until the armed crash
    fires; returns ``(acked, floor, crashed)``.

    ``acked`` counts appends that returned; ``floor`` counts events
    covered by the last ``fsync`` (the durable prefix under page-cache
    loss).  The ``attempt``/``floor`` bookkeeping relies on the append
    protocol: an fsync observed mid-append covers the in-flight
    record, an fsync observed during a checkpoint covers exactly the
    acknowledged prefix.
    """
    state = {"acked": 0, "attempt": 0, "floor": 0}

    def on_event(name, delta):
        if name == "fsync":
            state["floor"] = state["attempt"]

    backend = FileWALBackend(
        str(directory), fsync=policy, crash_hook=injector,
        on_event=on_event,
    )
    wal = ShardWAL(checkpoint_every=CHECKPOINT_EVERY, backend=backend)
    live = factory()
    crashed = False
    for i, event in enumerate(trace, start=1):
        live.apply_event(event)
        state["attempt"] = i
        try:
            wal.append(**event)
            state["acked"] = i
            wal.maybe_checkpoint(live)
        except SimulatedCrashError:
            crashed = True
            break
    if not crashed:
        wal.close()
    return state["acked"], state["floor"], crashed


def recover_from(directory, policy):
    backend = FileWALBackend(str(directory), fsync=policy)
    wal = ShardWAL(checkpoint_every=CHECKPOINT_EVERY, backend=backend)
    recovered = wal.recover(factory)
    wal.close()
    return recovered


def oracle_for(trace, prefix):
    oracle = factory()
    for event in trace[:prefix]:
        oracle.apply_event(event)
    return oracle


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("point", ALL_CRASH_POINTS)
@pytest.mark.parametrize("drop_unsynced", [False, True])
def test_crash_matrix_recovers_expected_prefix(
    tmp_path, policy, point, drop_unsynced
):
    trace = seeded_trace(17, events=EVENTS)
    at = 2 if point.startswith("checkpoint.") else 20
    injector = CrashPointInjector().arm(
        point, at=at, drop_unsynced=drop_unsynced
    )
    acked, floor, crashed = drive_until_crash(
        tmp_path, policy, injector, trace
    )
    if not crashed:
        # e.g. log.post_fsync under fsync=never: the boundary is
        # never reached, so this cell of the matrix is vacuous.
        assert injector.fired == []
        pytest.skip(f"{point} unreachable under fsync={policy}")
    if drop_unsynced:
        expected = floor
    elif point == "log.mid_record":
        expected = acked  # in-flight frame is torn
    elif point in ("log.pre_fsync", "log.post_fsync"):
        expected = acked + 1  # frame fully flushed before the crash
    else:
        expected = acked  # crash inside the checkpoint protocol
    # No committed (fsync-covered) record may ever be lost.
    assert expected >= floor
    recovered = recover_from(tmp_path, policy)
    assert_equivalent(recovered, oracle_for(trace, expected))


@pytest.mark.parametrize("policy", POLICIES)
def test_graceful_shutdown_loses_nothing(tmp_path, policy):
    """close() is a commit barrier: every acked record must survive."""
    trace = seeded_trace(23, events=EVENTS)
    acked, floor, crashed = drive_until_crash(
        tmp_path, policy, None, trace
    )
    assert not crashed and acked == EVENTS
    assert_equivalent(recover_from(tmp_path, policy),
                      oracle_for(trace, EVENTS))


def test_double_crash_during_recovery_checkpoint(tmp_path):
    """Crash mid-run, then crash again during the *next* incarnation's
    checkpoint: recovery must still land on a consistent prefix."""
    trace = seeded_trace(29, events=EVENTS)
    first = CrashPointInjector().arm("log.mid_record", at=30)
    acked, _, crashed = drive_until_crash(tmp_path, "always", first, trace)
    assert crashed
    second = CrashPointInjector().arm("checkpoint.pre_fsync")
    backend = FileWALBackend(str(tmp_path), fsync="always",
                             crash_hook=second)
    wal = ShardWAL(checkpoint_every=CHECKPOINT_EVERY, backend=backend)
    db = wal.recover(factory)
    with pytest.raises(SimulatedCrashError):
        wal.checkpoint(db)
    assert_equivalent(recover_from(tmp_path, "always"),
                      oracle_for(trace, acked))


# -- history preservation (the fixed keep_history limitation) --------------------


def history_trace():
    """Registrations + updates whose serialization order is *not*
    timestamp order — the case that used to break history recovery."""
    rng = random.Random(5)
    events = []
    now = 0.0
    for oid in range(8):
        now += 0.5
        events.append({"kind": "insert", "oid": oid,
                       "y0": rng.uniform(0, Y_MAX),
                       "v": rng.uniform(V_MIN, V_MAX), "t0": now})
    for _ in range(20):
        now += 0.7
        events.append({"kind": "update", "oid": rng.randrange(8),
                       "y0": rng.uniform(0, Y_MAX),
                       "v": -rng.uniform(V_MIN, V_MAX), "t0": now})
    return events


def assert_history_equivalent(recovered, oracle):
    assert population_to_json(recovered.objects()) == population_to_json(
        oracle.objects()
    )
    now = oracle.now
    for y1, y2, t1, t2 in (
        (0.0, Y_MAX, 0.0, now),
        (100.0, 600.0, 2.0, now / 2),
        (0.0, Y_MAX / 4, now / 3, now),
    ):
        assert recovered.query_past(y1, y2, t1, t2) == oracle.query_past(
            y1, y2, t1, t2
        )


@pytest.mark.parametrize("durable", [False, True])
def test_history_survives_checkpointed_recovery(tmp_path, durable):
    """The §7 archive rides inside the checkpoint payload, so past
    queries answer identically after recovery — through checkpoints,
    with the in-memory and the on-disk backend alike."""
    backend = FileWALBackend(str(tmp_path)) if durable else None
    wal = ShardWAL(checkpoint_every=6, backend=backend)
    live = history_factory()
    oracle = history_factory()
    for event in history_trace():
        live.apply_event(event)
        oracle.apply_event(event)
        wal.append(**event)
        wal.maybe_checkpoint(live)
    assert wal.snapshot()["checkpoints"] >= 2
    recovered = wal.recover(history_factory)
    assert_history_equivalent(recovered, oracle)
    if durable:
        wal.close()
        # Full cold restart: a fresh WAL over the same directory.
        cold_backend = FileWALBackend(str(tmp_path))
        cold = ShardWAL(checkpoint_every=6, backend=cold_backend)
        assert_history_equivalent(cold.recover(history_factory), oracle)
        cold.close()


def test_registration_order_restore_does_not_trip_time_check():
    """Checkpoint populations serialize in registration order; after
    updates that order is not timestamp order, which used to raise
    InvalidQueryError("history must be written in time order")."""
    wal = ShardWAL(checkpoint_every=100)
    live = history_factory()
    live.apply_event({"kind": "insert", "oid": 0, "y0": 1.0, "v": 0.5,
                      "t0": 0.0})
    wal.append(kind="insert", oid=0, y0=1.0, v=0.5, t0=0.0)
    live.apply_event({"kind": "insert", "oid": 1, "y0": 2.0, "v": 0.5,
                      "t0": 1.0})
    wal.append(kind="insert", oid=1, y0=2.0, v=0.5, t0=1.0)
    # oid 0 now carries t0=5.0 but still serializes first.
    live.apply_event({"kind": "update", "oid": 0, "y0": 9.0, "v": -0.5,
                      "t0": 5.0})
    wal.append(kind="update", oid=0, y0=9.0, v=-0.5, t0=5.0)
    wal.checkpoint(live)
    recovered = wal.recover(history_factory)
    assert_history_equivalent(recovered, live)
    assert recovered.now == 5.0


def test_pre_history_checkpoint_degrades_softly(tmp_path):
    """An old-format checkpoint (no ``history`` payload) must recover
    current state, warn, and count the loss — never crash."""
    live = history_factory()
    live.apply_event({"kind": "insert", "oid": 0, "y0": 1.0, "v": 0.5,
                      "t0": 0.0})
    live.apply_event({"kind": "update", "oid": 0, "y0": 4.0, "v": 0.5,
                      "t0": 2.0})
    store = CheckpointStore(str(tmp_path))
    store.write({
        "seq": 2,
        "now": live.now,
        "population": population_to_json(live.objects()),
        # no "history" key: the pre-ISSUE-6 checkpoint format
    })
    events = []
    backend = FileWALBackend(str(tmp_path))
    wal = ShardWAL(backend=backend,
                   on_event=lambda n, a: events.append((n, a)))
    with pytest.warns(DegradedResultWarning):
        recovered = wal.recover(history_factory)
    wal.close()
    assert ("wal_history_loss", 1) in events
    # Current state intact; only the pre-checkpoint archive is gone.
    assert population_to_json(recovered.objects()) == population_to_json(
        live.objects()
    )


# -- whole-service cold restart --------------------------------------------------


def build_durable_service(wal_dir, **kwargs):
    params = dict(shards=3, replication_factor=2, wal_dir=str(wal_dir),
                  wal_fsync="always", checkpoint_every=16)
    params.update(kwargs)
    return FaultTolerantMotionService(Y_MAX, V_MIN, V_MAX, **params)


def test_restore_from_disk_reproduces_the_service(tmp_path):
    rng = random.Random(11)
    service = build_durable_service(tmp_path)
    for oid in range(60):
        service.register(oid, rng.uniform(0, Y_MAX),
                         rng.uniform(V_MIN, V_MAX), float(oid))
    for seq in range(60, 160):
        service.report(rng.randrange(60), rng.uniform(0, Y_MAX),
                       -rng.uniform(V_MIN, V_MAX), float(seq))
    now = service.now
    queries = [
        ("within", (100.0, 400.0, now, now + 10.0)),
        ("snapshot_at", (0.0, Y_MAX / 2, now + 1.0)),
        ("nearest", (Y_MAX / 3, now + 2.0, 5)),
    ]
    before = {
        name: getattr(service, name)(*args) for name, args in queries
    }
    population = service.motion_snapshot()
    service.close()
    assert (tmp_path / "shard-00" / "MANIFEST").exists()

    restored = build_durable_service(tmp_path)
    summary = restored.restore_from_disk()
    assert summary["objects"] == 60
    assert summary["dropped"] == 0 and summary["reconciled"] == 0
    assert restored.motion_snapshot() == population
    for name, args in queries:
        assert getattr(restored, name)(*args) == before[name]
    # The restored service keeps serving writes.
    restored.report(0, 123.0, 1.0, now + 100.0)
    assert restored.location_of(0, now + 100.0) == 123.0
    restored.close()


def test_restore_from_disk_requires_fresh_service(tmp_path):
    service = build_durable_service(tmp_path)
    service.register(1, 10.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="fresh service"):
        service.restore_from_disk()
    service.close()


def test_restore_from_disk_on_empty_directory_is_a_noop(tmp_path):
    service = build_durable_service(tmp_path)
    summary = service.restore_from_disk()
    assert summary["objects"] == 0
    service.register(1, 10.0, 1.0, 0.0)
    assert len(service) == 1
    service.close()
