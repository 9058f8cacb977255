"""Exception hierarchy for the mobile-object indexing library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.

A service shard is up or down, and the faults surface in two places: a
write no live replica could take raises :class:`ShardUnavailableError`
(a read degrades instead, with :class:`DegradedResultWarning`), and a
storage write killed at an armed durability boundary raises
:class:`SimulatedCrashError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class PageOverflowError(ReproError):
    """Raised when a record is appended to a disk page that is already full."""


class PageNotFoundError(ReproError):
    """Raised when a page id does not exist in the disk simulator."""


class ObjectNotFoundError(ReproError):
    """Raised when an operation references an object id that is not indexed."""


class DuplicateObjectError(ReproError):
    """Raised when an object id is inserted twice into the same index."""


class InvalidQueryError(ReproError):
    """Raised when a query is malformed (e.g. empty range, past time window)."""


class InvalidMotionError(ReproError):
    """Raised when motion parameters are out of the model's domain.

    The paper's model requires speeds with magnitude in ``[v_min, v_max]``
    and start locations inside the terrain.
    """


class IndexExpiredError(ReproError):
    """Raised when querying a time-window index outside its valid window."""


class ShardUnavailableError(ReproError):
    """Raised when an operation needs a shard (or a whole replica group)
    that is down.

    Update operations raise this when *no* replica of the owning group
    can apply the write; queries never raise it to callers — they
    degrade to a :class:`~repro.service.replication.PartialResult`
    instead (see :class:`DegradedResultWarning`).
    """


class SimulatedCrashError(ReproError):
    """Injected process death at a durability boundary.

    Raised by a crash-point hook (see
    :class:`~repro.service.faults.CrashPointInjector`) wired into the
    :mod:`repro.storage` layer.  The storage code treats it like a
    power cut: the in-flight write is abandoned at exactly the armed
    boundary, the file handle is closed dead, and the only legal next
    step is reopening the files through the recovery path.

    ``write_prefix`` is how many bytes of the in-flight buffer reach
    disk before death (``None`` = half, modelling a torn sector
    write); ``drop_unsynced`` additionally discards everything written
    since the last ``fsync`` (modelling page-cache loss, the worst
    case a real power cut allows).
    """

    def __init__(
        self,
        message: str,
        write_prefix: int | None = None,
        drop_unsynced: bool = False,
    ) -> None:
        super().__init__(message)
        self.write_prefix = write_prefix
        self.drop_unsynced = drop_unsynced


class CorruptRecordError(ReproError):
    """Raised when a framed storage record fails its CRC or length
    check in a context where torn-tail truncation is not an option
    (e.g. a checkpoint file named by the manifest)."""


class DegradedResultWarning(UserWarning):
    """Emitted when a query answers partially because a replica group
    is entirely unavailable; the result is a ``PartialResult`` naming
    the unavailable shards instead of an exception."""
