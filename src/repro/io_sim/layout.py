"""Record layouts and page-capacity math.

The paper fixes the page size to 4096 bytes and derives each method's
fan-out from its record size (section 5):

* an R*-tree segment entry is four 4-byte endpoint coordinates plus a
  4-byte object pointer => ``B = 4096 // 20 = 204``;
* a B+-tree entry is a 4-byte b-coordinate, a 4-byte speed and a 4-byte
  pointer => ``B = 4096 // 12 = 341``.

This module encodes those layouts so every structure computes its
capacity the same way the paper did, and so tests can assert the exact
published fan-outs.  A layout is the paper's *accounting*, not this
process's storage: the observation trees keep 8-byte fields in memory
(25 bytes a record, :mod:`repro.bptree.packed`) and still put
``BPTREE_ENTRY.capacity(4096) = 341`` records on a page, because the
page count is what the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_PAGE_SIZE = 4096
FIELD_BYTES = 4


@dataclass(frozen=True)
class RecordLayout:
    """A fixed-width record described by its number of 4-byte fields."""

    name: str
    fields: int

    @property
    def record_bytes(self) -> int:
        return self.fields * FIELD_BYTES

    def capacity(self, page_size: int = DEFAULT_PAGE_SIZE) -> int:
        """Records per page for this layout (the paper's ``B``)."""
        cap = page_size // self.record_bytes
        if cap < 2:
            raise ValueError(
                f"layout {self.name!r} does not fit at least 2 records "
                f"in a {page_size}-byte page"
            )
        return cap


#: R*-tree entry for a trajectory segment: (t1, y1, t2, y2, oid).
RSTAR_SEGMENT = RecordLayout("rstar_segment", fields=5)

#: R*-tree entry for a dual point: (v, a, oid) plus an MBR is degenerate,
#: but internal entries need a full rectangle: (lo_x, lo_y, hi_x, hi_y, ptr).
RSTAR_RECT = RecordLayout("rstar_rect", fields=5)

#: B+-tree entry in the Hough-Y observation index: (b, speed, oid).
BPTREE_ENTRY = RecordLayout("bptree_entry", fields=3)

#: kd-tree leaf entry for a dual point: (v, a, oid).
KD_POINT = RecordLayout("kd_point", fields=3)

#: kd-tree directory node: (split_dim, split_value, left_ptr, right_ptr).
KD_DIRECTORY = RecordLayout("kd_directory", fields=4)

#: Interval-tree entry: (t_enter, t_exit, oid).
INTERVAL_ENTRY = RecordLayout("interval_entry", fields=3)

#: Partition-tree node entry: triangle (3 vertices = 6 coords) + child ptr.
PARTITION_ENTRY = RecordLayout("partition_entry", fields=7)

#: Persistent-list log record: (position, occupant, pointer, time).
PERSISTENT_ENTRY = RecordLayout("persistent_entry", fields=4)

#: 4-dimensional dual point for planar motion: (vx, ax, vy, ay, oid).
KD_POINT_4D = RecordLayout("kd_point_4d", fields=5)

#: Framing header of one durable-log record (:mod:`repro.storage`):
#: a 4-byte little-endian payload length plus a 4-byte CRC32 of the
#: payload.  The same 4-byte-field discipline as every other layout
#: here, so the simulated and real on-disk record math agree.
WAL_FRAME_HEADER = RecordLayout("wal_frame_header", fields=2)


def framed_record_bytes(payload_bytes: int) -> int:
    """On-disk bytes of one length-prefixed, CRC-checksummed record."""
    if payload_bytes < 0:
        raise ValueError(
            f"payload size must be non-negative, got {payload_bytes}"
        )
    return WAL_FRAME_HEADER.record_bytes + payload_bytes


def wal_records_per_page(
    payload_bytes: int, page_size: int = DEFAULT_PAGE_SIZE
) -> int:
    """Framed records of ``payload_bytes`` that fit in one page —
    the durable log's twin of :func:`page_capacity`, used to sanity-
    check fsync batch sizes against the page the records land on."""
    return page_capacity(framed_record_bytes(payload_bytes), page_size)


def page_capacity(
    record_bytes: int, page_size: int = DEFAULT_PAGE_SIZE
) -> int:
    """Records of ``record_bytes`` bytes that fit in one page."""
    if record_bytes <= 0:
        raise ValueError(f"record size must be positive, got {record_bytes}")
    cap = page_size // record_bytes
    if cap < 1:
        raise ValueError(
            f"a {record_bytes}-byte record does not fit in a "
            f"{page_size}-byte page"
        )
    return cap
