"""The paper's practical method: the Hough-Y observation B+-tree forest
(§3.5.2, Lemma 1) — served with one scan plan for every query width,
and as published (:class:`PaperForestIndex`) with the subterrain
interval indexes of case (ii).

Structure, per velocity sign (negative velocities are reflected through
the terrain midpoint so one positive-velocity code path serves both):
``c`` **observation B+-trees**.  Tree ``i`` stores, for every object,
the time ``b`` its trajectory crosses the observation horizon
``y_r(i) = (i + 1/2) * y_max / c``, keyed ``(speed band, b, oid)``
with the speed as the record value (record = b + speed + pointer,
the paper's ``B = 341`` layout: the band is a function of the stored
speed, :func:`~repro.core.duality.speed_bands`, not a field).  In
memory a leaf is four typed columns, not a list of tuples
(:class:`ObservationRecords`), and a query filters each fetched leaf
slice in one vectorised call; pages, and so every I/O count, are what
they were (DESIGN.md §5.7).

Query processing is the paper's case (i) at every width: the query is
routed to the observation tree minimising ``|y2 - y_r| + |y1 - y_r|``;
the wedge is over-approximated, band by band, by the ``b``-range of
:func:`~repro.core.duality.hough_y_b_range` and false positives are
discarded with the stored speed.  Equation (1) prices the extra fetched
area at ``(1/2) * ((vmax - vmin)/(vmin*vmax))^2 * (|y2 - y_r| +
|y1 - y_r|)`` with ``vmin``, ``vmax`` the edges of one band — §7's
clustering of similarly moving objects, folded into the sort order.
For a query no wider than a subterrain that distance is at most
``y_max/c`` (equation (2)); for a wider one some horizon lies *inside*
the query, the distance is the query's own extent ``W``, and every
speed's slab ``[t1 - (y2 - y_r)/v, t2 + (y_r - y1)/v]`` nests around
``[t1, t2]`` (DESIGN.md §4.2).

The paper answers the wider queries differently — case (ii): ``c``
subterrain interval indexes, one exact stabbing subquery per fully
contained subterrain plus two narrow endpoint pieces.
:class:`PaperForestIndex` keeps that structure for Figures 6–9; the
served :class:`HoughYForestIndex` does not build it, because every
write pays for it and the scan above reads fewer pages than it on
every wide query class measured (EXPERIMENTS.md, §3.5.2 case (ii)).

Costs match Lemma 1: query ``O(log_B n + (K + K')/B)``, space
``O(c n)``, update ``O(c log_B n)`` per object through the scalar verbs
— descents, mostly: a tree writes back only the pages a verb changed
(:mod:`repro.bptree.tree`), typically its one leaf.
A batch of ``m`` writes is cheaper: grouped into one key-sorted run per
tree it costs ``O(c * (touched leaves + m/B))`` page accesses
(:meth:`~repro.bptree.tree.BPlusTree.apply_sorted`), and past
:data:`HoughYForestIndex.REBUILD_FRACTION` of the population one STR
sort + pack of everything.  A large group's CPU work is columns too:
its keys come from one array pass (:meth:`HoughYForestIndex._placements`,
the bulk build's own), each sign's trees are ordered by one
``np.lexsort``, and a long insert-only leaf run is one merge of the
leaf's columns (:meth:`ObservationTree.apply_sorted_columns`) — the
same disk calls, in the same order, as the record loop (DESIGN.md
§5.4).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.bptree.packed import PackedRecords
from repro.bptree.tree import DELETE, INSERT, BatchOp, BPlusTree, batch_order
from repro.io_sim.extsort import external_sort
from repro.core.duality import (
    best_observation_horizon,
    hough_y_b_range,
    observation_horizons,
    reflect_motion,
    reflect_query,
    residence_interval,
    speed_bands,
    subterrain_bounds,
)
from repro.core.model import (
    LinearMotion1D,
    MobileObject1D,
    MotionModel,
    check_oid,
)
from repro.core.queries import MORQuery1D
from repro.errors import (
    DuplicateObjectError,
    InvalidMotionError,
    ObjectNotFoundError,
)
from repro.indexes.base import MobileIndex1D, register_index
from repro.interval.tree import IntervalIndex
from repro.io_sim.layout import BPTREE_ENTRY, INTERVAL_ENTRY
from repro.io_sim.pager import DiskSimulator, Page
from repro.vector.columns import MotionColumns, MotionRows
from repro.vector.kernels import hough_y_exact_mask, mor_mask


class ObservationRecords(PackedRecords):
    """``((band, b, oid), speed)`` as four columns — int8, float64,
    int64, float64: 25 bytes a record.  The fields are 8 bytes wide
    where the paper's layout counts 4 (a float32 ``b`` would change
    answers); the page capacity stays the paper's, see
    :mod:`repro.io_sim.layout`."""

    __slots__ = ()
    TYPECODES = ("b", "d", "q", "d")


class ObservationTree(BPlusTree):
    """One observation index: a :class:`~repro.bptree.tree.BPlusTree`
    whose leaves are :class:`ObservationRecords`.  It owns the record
    layout and adds the block read and the columnar grouped run; every
    structural operation is the base class's."""

    leaf_items = ObservationRecords

    @staticmethod
    def _strictly_increasing(items: ObservationRecords) -> bool:
        return items.strictly_increasing()

    @staticmethod
    def _find(leaf: Page, key: Any) -> Tuple[int, bool]:
        return leaf.items.find(key)

    def apply_sorted_columns(
        self,
        band: np.ndarray,
        b: np.ndarray,
        oid: np.ndarray,
        kind: np.ndarray,
        speed: np.ndarray,
        min_run: int,
    ) -> None:
        """:meth:`~repro.bptree.tree.BPlusTree.apply_sorted` of the ops
        ``((band[i], b[i], oid[i]), kind[i], speed[i])``, given as
        columns in :data:`~repro.bptree.tree.batch_order`.

        A leaf run of at least ``min_run`` inserts and nothing else is
        one splice of the leaf's columns (:meth:`_splice`); every other
        run, and a run the splice declines, is the base class's record
        loop.  Descents, disk calls, pages and exceptions are the
        record loop's for every run: a run's end is the first key not
        below the leaf's next separator, where the loop stops an
        insert-only run too (an insert never shrinks the leaf nor
        raises its first key, so the loop's other two stops cannot
        fire), and the write-back is the same
        :meth:`~repro.bptree.tree.BPlusTree._propagate_after_growth`.
        """
        keys = list(zip(band.tolist(), b.tolist(), oid.tolist()))
        ops = list(zip(keys, kind.tolist(), speed.tolist()))
        if len(ops) < min_run:
            self.apply_sorted(ops)
            return
        # deletes[i]: how many of ops[:i] are deletes.
        deletes = [0, *np.cumsum(kind == DELETE).tolist()]
        last = len(ops) - min_run  # the last start of a long enough run
        done = 0
        while done < len(ops):
            path = self._descend(keys[done])
            upper = self._next_separator(path)
            # At least min_run inserts, all routed to the path's leaf?
            if (
                done <= last
                and deletes[done + min_run] == deletes[done]
                and (upper is None or keys[done + min_run - 1] < upper)
            ):
                end = (
                    len(ops) if upper is None
                    else bisect_left(keys, upper, done + min_run)
                )
                if deletes[end] == deletes[done] and self._splice(
                    path, (band, b, oid, speed), done, end
                ):
                    done = end
                    continue
            done = self._apply_leaf_run(path, ops, done, upper)

    def _splice(
        self,
        path: List[Tuple[Page, int]],
        fields: Tuple[np.ndarray, ...],
        start: int,
        end: int,
    ) -> bool:
        """Insert the records ``fields[start:end]`` — all routed to the
        path's leaf — as one merge of the leaf's columns, then write
        back.  Declines, touching nothing, when a key would be
        duplicated: the record loop raises there, after the inserts
        before it."""
        leaf, _ = path[-1]
        # Copies: a numpy view of a live column must not outlive this
        # line (see range_columns).
        band, b, oid, speed = (
            np.concatenate((np.frombuffer(col, col.typecode), field[start:end]))
            for col, field in zip(leaf.items.columns, fields)
        )
        # The oid decides the order only between records tied on
        # (band, b); sorting by it costs a third pass, so only then.
        order = np.lexsort((b, band))
        if _repeats(band[order], b[order]):
            order = np.lexsort((oid, b, band))
            if _repeats(band[order], b[order], oid[order]):
                return False
        leaf.items = self.leaf_items.from_columns(
            band[order], b[order], oid[order], speed[order]
        )
        self._size += end - start
        self._propagate_after_growth(path, self._stored_leaf_aggregate(path))
        return True

    def range_columns(
        self, lo: Tuple, hi: Tuple
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The records with ``lo <= key <= hi``, a leaf at a time, as
        ``(b, oid, speed)`` arrays — page for page the reads of
        :meth:`~repro.bptree.tree.BPlusTree.range_items`.

        The arrays view a copy of the leaf's slice, never the leaf's own
        buffers: an :class:`array.array` that exports its buffer cannot
        be resized, so a view of the live columns held past its scan
        step would make the next insert into that leaf raise
        ``BufferError``.
        """
        leaf, _ = self._descend(lo)[-1]
        while leaf is not None:
            records = leaf.items
            start, _ = records.find(lo)
            stop, found = records.find(hi)
            stop += found  # keys are unique: at most one record equals hi
            _, b, oid, speed = records.columns
            yield (
                np.frombuffer(b[start:stop], dtype=np.float64),
                np.frombuffer(oid[start:stop], dtype=np.int64),
                np.frombuffer(speed[start:stop], dtype=np.float64),
            )
            if stop < len(records):
                return
            next_pid = leaf.meta["next"]
            leaf = self.disk.read(next_pid) if next_pid is not None else None


def _repeats(*sorted_keys: np.ndarray) -> bool:
    """Whether some row of the sorted key columns equals the row before
    it in every column."""
    same = np.ones(len(sorted_keys[0]) - 1, dtype=bool)
    for key in sorted_keys:
        same &= key[1:] == key[:-1]
    return bool(same.any())


@register_index
class HoughYForestIndex(MobileIndex1D):
    """The §3.5.2 query-approximation index ("B+-forest"), as served.

    Observation trees only, scanned the same way at every query width.
    ``c`` controls their count: more trees shrink the approximation
    error ``E`` (equation (2)) at the cost of ``c`` times the space and
    update work — the tradeoff the paper sweeps with ``c = 4, 6, 8``.
    """

    name = "hough-y-forest"

    #: :meth:`apply_group` switches from grouped tree maintenance to a
    #: full STR-style rebuild (sort + pack via :meth:`bulk_build`) once
    #: a group updates at least this fraction of the population.  Both
    #: visit every leaf of every tree by then; what tips it is that a
    #: run replacing most of a leaf's records at once leaves it
    #: underfull, and the borrows and merges that follow are scalar
    #: work (2.8 pages/op when the whole population reports, against
    #: the rebuild's 0.12).  Measured, not derived: the page crossover
    #: sits between 0.66 and 0.85 of the population on every shape
    #: tried (``ablation_batch_update``, DESIGN.md §5.4).
    REBUILD_FRACTION = 0.75
    #: Never rebuild below this batch size — fixed rebuild overhead
    #: dominates tiny populations.
    REBUILD_MIN_BATCH = 256
    #: A grouped run splices an insert-only leaf run of at least this
    #: many records into the leaf's columns in one merge
    #: (:meth:`ObservationTree.apply_sorted_columns`); the record loop
    #: is cheaper below it.  Measured, not derived: the break-even
    #: probe of DESIGN.md §5.4.
    SPLICE_MIN_RUN = 20
    #: A grouped write of at least this many ops (deletes plus inserts)
    #: is keyed, sorted and applied as columns; a smaller one record by
    #: record, where numpy's fixed cost a call would outweigh the work
    #: (the break-even probe of DESIGN.md §5.4).
    COLUMNS_MIN_GROUP = 128
    #: Leaf fill factor used by batch-triggered rebuilds.
    REBUILD_FILL = 0.8
    #: Widest ``v_hi / v_lo`` of one speed band of the tree keys.  A
    #: query scans one ``b``-range per band, each as tight as a
    #: model this wide allows, and pays about one boundary leaf per
    #: band for it: finer bands only win while a tree has leaves to
    #: spare (EXPERIMENTS.md, "Speed-banded keys").  A model no wider
    #: than this is one band — the paper's ``(b, oid)`` order.
    BAND_RATIO = 4.0
    #: Optional crash-point hook consulted by the bulk machinery (fires
    #: ``"bulk.mid_pack"`` between tree packs); class-level so the
    #: ``bulk_build`` alternate constructor inherits the ``None``
    #: default without running ``__init__``.
    crash_hook: Optional[Callable[[str], None]] = None

    def __init__(
        self,
        model: MotionModel,
        c: int = 4,
        leaf_capacity: int | None = None,
    ) -> None:
        self._start_empty(model, c, leaf_capacity)
        for key in self._tree_keys():
            disk = DiskSimulator()
            self._tree_disks[key] = disk
            self._trees[key] = ObservationTree(
                disk, self._tree_capacity(disk)
            )

    def _start_empty(
        self, model: MotionModel, c: int, leaf_capacity: int | None
    ) -> None:
        """What :meth:`__init__` and :meth:`bulk_build` share: the
        checked parameters, the derived geometry and no tree yet."""
        MobileIndex1D.__init__(self, model)
        if c < 1:
            raise ValueError(f"need at least one observation index, got c={c}")
        self.c = c
        self._leaf_capacity = leaf_capacity
        self.horizons = observation_horizons(model.terrain.y_max, c)
        self.band_edges = speed_bands(
            model.v_min, model.v_max, self.BAND_RATIO
        )
        self._tree_disks: Dict[Tuple[int, int], DiskSimulator] = {}
        self._trees: Dict[Tuple[int, int], ObservationTree] = {}
        #: The motion of every object the trees hold, as a table row;
        #: where a motion is stored is a function of it
        #: (:meth:`_placement`), recomputed when it leaves.  The
        #: forest's own table, until a shard shares its object table
        #: (:meth:`share_motions`).
        self._motions = MotionColumns()
        self._shared = False

    def _tree_keys(self) -> Iterator[Tuple[int, int]]:
        """``(sign, horizon)`` of every observation tree, in disk order."""
        return ((sign, i) for sign in (1, -1) for i in range(self.c))

    def _tree_capacity(self, disk: DiskSimulator) -> int:
        return self._leaf_capacity or BPTREE_ENTRY.capacity(disk.page_size)

    # -- bulk construction ---------------------------------------------------------

    @classmethod
    def bulk_build(
        cls,
        model: MotionModel,
        objects: Sequence[MobileObject1D],
        c: int = 4,
        leaf_capacity: int | None = None,
        fill: float = 0.8,
        crash_hook: Optional[Callable[[str], None]] = None,
        *,
        _own_table: bool = True,
    ) -> "HoughYForestIndex":
        """Build the forest from a whole population in ``O(c n log n)``.

        Each observation tree is bulk-loaded from externally sorted
        ``(band, b, oid)`` runs instead of ``N`` root-to-leaf inserts —
        the classic way to stand up the paper's structure over an
        existing fleet.  ``fill < 1`` leaves slack for later updates.
        ``crash_hook`` (chaos testing) fires ``"bulk.mid_pack"`` after
        each observation tree is packed.

        The population is columns throughout — read as they are from
        :class:`~repro.vector.columns.MotionRows`, converted once from
        objects; one admission mask (:meth:`~repro.core.model.
        MotionModel.admit_mask` and the moving band) and one duplicate
        test; keys by the float expressions of :meth:`_oriented`,
        ``time_at`` and :meth:`_band`, blocks sorted and packed
        (DESIGN.md §5.8) — and pages, pids and I/O counts are the
        record-at-a-time build's.  The forest's own table takes the
        rows as arrays.  A shard's forest reads the shard's table, so
        its rebuild (:meth:`_rebuild`, the one caller of the private
        ``_own_table=False``) builds none.
        """
        index = cls.__new__(cls)
        index._start_empty(model, c, leaf_capacity)
        rows = MotionRows.of(objects)
        oid, y0, v, t0 = rows.oid, rows.y0, rows.v, rows.t0
        ordered = np.sort(oid)
        if not (
            (model.admit_mask(oid, y0, v, t0) & model.moving_mask(v)).all()
        ) or (ordered[1:] == ordered[:-1]).any():
            index._raise_first_rejection(objects)
        forward, band, speed, b = index._placements(y0, v, t0)
        # Each sign's rows, input order kept: band, b a tree, oid, speed.
        views = {
            sign: (band[at], b[:, at], oid[at], speed[at])
            for sign, at in (
                (1, np.flatnonzero(forward)), (-1, np.flatnonzero(~forward))
            )
        }
        for sign, i in index._tree_keys():
            bands, keys, oids, speeds = views[sign]
            records = ObservationRecords.from_columns(
                bands, keys[i], oids, speeds
            )
            disk = DiskSimulator()
            capacity = index._tree_capacity(disk)
            run = external_sort(disk, records, page_capacity=capacity)
            tree = ObservationTree.bulk_load(
                disk, run.read_block(), capacity, fill=fill
            )
            run.destroy()
            index._tree_disks[(sign, i)] = disk
            index._trees[(sign, i)] = tree
            if crash_hook is not None:
                crash_hook("bulk.mid_pack")
        if _own_table:
            index._motions = MotionColumns(len(rows))
            index._motions.apply_events((), rows)
        return index

    def _raise_first_rejection(self, objects: Sequence[MobileObject1D]) -> None:
        """The scalar admission loop, run once the mask has refused a
        row, for its exception: the first offender's, in input order."""
        seen: Set[int] = set()
        for obj in objects:
            if obj.oid in seen:
                raise DuplicateObjectError(
                    f"object {obj.oid} appears twice in the bulk input"
                )
            self._check(obj)
            seen.add(obj.oid)
        raise InvalidMotionError("bulk input holds a field no column can store")

    # -- maintenance -------------------------------------------------------------

    def _check(self, obj: MobileObject1D) -> None:
        """Reject what the trees cannot hold: a motion outside the
        model or with a field that is not a real number, an oid outside
        the records' int64 column — each as :class:`InvalidMotionError`."""
        check_oid(obj.oid)
        self.model.validate(obj.motion)

    def _oriented(self, motion: LinearMotion1D) -> Tuple[int, LinearMotion1D]:
        """Velocity sign and the positive-velocity view of the motion."""
        if motion.v > 0:
            return (1, motion)
        return (-1, reflect_motion(motion, self.model.terrain.y_max))

    def _band(self, speed: float) -> int:
        """The speed band ``j`` leading a record's tree key:
        ``band_edges[j] <= speed < band_edges[j + 1]`` (the last band
        closed).  Derived from the speed the record and the stored motion
        already hold, so it is stored nowhere else."""
        edges = self.band_edges
        return bisect_right(edges, speed, 1, len(edges) - 1) - 1

    def _placement(
        self, motion: LinearMotion1D
    ) -> Tuple[int, float, List[float]]:
        """Where a motion is stored: its velocity sign, the speed kept
        as the record value and the ``b`` key in each observation tree
        — a pure function of the motion, so a delete recomputes what
        the insert stored and no map keeps either."""
        sign, oriented = self._oriented(motion)
        crossings = [oriented.time_at(y_r) for y_r in self.horizons]
        return sign, oriented.v, crossings

    def _placements(
        self, y0: np.ndarray, v: np.ndarray, t0: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_placement` and :meth:`_band` of many motions at once:
        which move forward (sign 1), their bands, their speeds, and
        their ``b`` in each observation tree, shape ``(c, n)``.  The
        scalar float expressions in the scalar order, so every key is
        bit for bit the scalar one."""
        forward = v > 0
        start = np.where(forward, y0, self.model.terrain.y_max - y0)
        speed = np.where(forward, v, -v)
        band = np.searchsorted(self.band_edges[1:-1], speed, "right")
        b = t0 + (np.array(self.horizons)[:, None] - start) / speed
        return forward, band, speed, b

    def _put(self, obj: MobileObject1D) -> None:
        """Index an admitted object: its records into every tree of its
        sign."""
        sign, speed, crossings = self._placement(obj.motion)
        band = self._band(speed)
        for i, b in enumerate(crossings):
            self._trees[(sign, i)].insert((band, b, obj.oid), speed)
        if not self._shared:
            self._motions.upsert(obj.oid, obj.motion)

    def _drop(self, oid: int, motion: LinearMotion1D) -> None:
        """Remove an indexed object whose stored motion is ``motion``."""
        sign, speed, crossings = self._placement(motion)
        band = self._band(speed)
        for i, b in enumerate(crossings):
            self._trees[(sign, i)].delete((band, b, oid))
        if not self._shared:
            self._motions.delete(oid)

    def insert(self, obj: MobileObject1D) -> None:
        if obj.oid in self:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self._check(obj)
        self._put(obj)

    def delete(self, oid: int) -> None:
        self._drop(oid, self._held(oid))

    def update(self, obj: MobileObject1D) -> None:
        """Delete + insert (paper §3), both checked first: a refused
        motion leaves the object where it was."""
        motion = self._held(obj.oid)
        self._check(obj)
        self._drop(obj.oid, motion)
        self._put(obj)

    # -- the motions the trees hold ------------------------------------------------

    def share_motions(self, table: Any) -> None:
        """Read motions from ``table`` — the owning shard's object table
        (:class:`~repro.vector.columns.MotionColumns`) — instead of
        keeping a map of the forest's own.

        The table holds every object of the shard, slow ones too; the
        forest's are those whose motion the model calls moving.  The
        shard admits a write before the index sees it and writes the
        row after the index call, so during a call a row still holds
        the motion the trees hold — what a delete recomputes its keys
        from — and recording the new one is the shard's job.
        """
        if len(self):
            raise ValueError("only an empty forest can share a table")
        self._motions = table
        self._shared = True

    def _motion(self, oid: int) -> Optional[LinearMotion1D]:
        """The motion the trees hold for ``oid``, or ``None``."""
        motion = self._motions.get(oid)
        if motion is None or not self.model.is_moving(motion):
            return None
        return motion

    def _held(self, oid: int) -> LinearMotion1D:
        motion = self._motion(oid)
        if motion is None:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        return motion

    def __contains__(self, oid: int) -> bool:
        return self._motion(oid) is not None

    def motion_snapshot(self) -> Dict[int, LinearMotion1D]:
        """The oid → motion map of the objects the trees hold (a fresh
        dict): a shard's in oid order, the forest's own table in the
        order its rows arrived."""
        if self._shared:
            pairs = self._motions.items()
        else:
            oid, y0, v, t0 = (
                column.tolist() for column in self._motions.arrays()
            )
            pairs = zip(oid, map(LinearMotion1D, y0, v, t0))
        return {
            oid: motion
            for oid, motion in pairs
            if self.model.is_moving(motion)
        }

    # -- batched writes ------------------------------------------------------------

    def _adopt(self, rebuilt: "HoughYForestIndex") -> None:
        """Swap in the structure of a freshly bulk-built forest.

        The disks are replaced wholesale but their counters are not:
        each old disk's :class:`~repro.io_sim.stats.IOStats` absorbs
        what the rebuild cost on its successor and moves over to it,
        so per-disk totals (and an attached listener's) only ever grow.
        """
        for old, new in zip(self.disks, rebuilt.disks):
            old.stats.absorb(new.stats)
            new.stats = old.stats
        self._tree_disks = rebuilt._tree_disks
        self._trees = rebuilt._trees
        if not self._shared:
            self._motions = rebuilt._motions

    def _rebuild(self, objects: Sequence[MobileObject1D]) -> None:
        self._adopt(
            type(self).bulk_build(
                self.model,
                objects,
                c=self.c,
                leaf_capacity=self._leaf_capacity,
                fill=self.REBUILD_FILL,
                crash_hook=self.crash_hook,
                _own_table=not self._shared,
            )
        )

    def _apply_grouped(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """Drop ``leaving`` and index ``arriving`` leaf-at-a-time.

        An oid on both sides is an update.  The whole group is checked
        first (membership, model band and terrain), so a rejected group
        leaves the forest untouched.  Then every observation tree
        receives its share of the group as **one** key-sorted run: a
        leaf the batch touches many times is read and written once.  A
        group of at least :data:`COLUMNS_MIN_GROUP` ops is columns
        throughout (:meth:`_apply_columns`), a smaller one is keyed and
        sorted record by record (:meth:`_apply_records`); the two build
        the same trees.
        """
        if len(leaving) + len(arriving) < self.COLUMNS_MIN_GROUP:
            self._apply_records(leaving, arriving)
        else:
            self._apply_columns(leaving, arriving)

    def _apply_records(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """The grouped write one record at a time: the scalar checks,
        one ``(key, kind, value)`` tuple an op from :meth:`_placement`,
        sorted by :data:`~repro.bptree.tree.batch_order` and applied by
        :meth:`~repro.bptree.tree.BPlusTree.apply_sorted`."""
        arriving = list(arriving)
        departed = self._check_group(leaving, arriving)
        tree_ops: Dict[Tuple[int, int], List[BatchOp]] = {
            key: [] for key in self._trees
        }
        for oid, motion in zip(leaving, departed):
            sign, speed, crossings = self._placement(motion)
            band = self._band(speed)
            for i, b in enumerate(crossings):
                tree_ops[(sign, i)].append(((band, b, oid), DELETE, None))
        for obj in arriving:
            sign, speed, crossings = self._placement(obj.motion)
            band = self._band(speed)
            for i, b in enumerate(crossings):
                tree_ops[(sign, i)].append(
                    ((band, b, obj.oid), INSERT, speed)
                )
        if not self._shared:
            self._motions.apply_events(leaving, ())
            self._motions.apply_events((), arriving)
        for key, ops in tree_ops.items():
            ops.sort(key=batch_order)
            self._trees[key].apply_sorted(ops)

    def _apply_columns(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """The grouped write as columns: ``arriving`` as
        :class:`~repro.vector.columns.MotionRows`, the departing
        motions gathered from the table, a few mask passes admit both
        (a refusal runs :meth:`_check_group`, for its exception), one
        :meth:`_placements` pass keys them all, one ``np.lexsort`` a
        sign orders the ops of its ``c`` trees, and each tree takes its
        ops as columns (:meth:`ObservationTree.apply_sorted_columns`,
        which splices long insert-only leaf runs)."""
        rows = MotionRows.of(arriving)
        y0, v, t0 = self._admit(leaving, rows)
        if not self._shared:
            self._motions.apply_events(leaving, ())
            self._motions.apply_events((), rows)
        out = len(leaving)
        oid = np.concatenate((np.fromiter(leaving, np.int64, out), rows.oid))
        kind = np.full(len(oid), INSERT, np.int8)
        kind[:out] = DELETE
        forward, band, speed, b = self._placements(y0, v, t0)
        trees = np.arange(self.c)[:, None]
        for sign, chosen in ((1, forward), (-1, ~forward)):
            at = np.flatnonzero(chosen)
            if len(at) == 0:
                continue
            # Row ``i``: the positions of tree ``i``'s ops in
            # batch_order, one lexsort for all ``c`` trees of the sign.
            # It is stable and the deletes come first, so a delete and
            # an insert of one key need no kind column to keep order.
            at = np.repeat(at[None], self.c, axis=0)
            at = at[0][np.lexsort((oid[at], b[trees, at], band[at]))]
            columns = band[at], b[trees, at], oid[at], kind[at], speed[at]
            for i, fields in enumerate(zip(*columns)):
                self._trees[(sign, i)].apply_sorted_columns(
                    *fields, min_run=self.SPLICE_MIN_RUN
                )

    def _admit(
        self, leaving: Sequence[int], rows: MotionRows
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Admit a group as columns: a few mask passes, and on a
        refusal the scalar checks (:meth:`_check_group`) for the first
        offender's exception.  Returns the departing motions' then the
        arriving ones' ``(y0, v, t0)``."""
        table = self._motions
        gone = set(leaving)
        admitted = (
            len(gone) == len(leaving)
            and len(set(rows.keys)) == len(rows)
            and table.holds(leaving).all()
            and not self._holds_moving(
                [oid for oid in rows.keys if oid not in gone]
            )
            and self.model.admit_mask(rows.oid, rows.y0, rows.v, rows.t0).all()
        )
        if admitted:
            y0, v, t0 = (
                np.concatenate(halves)
                for halves in zip(
                    table.gather(leaving), (rows.y0, rows.v, rows.t0)
                )
            )
        # Moving: every departing motion is held, every arriving one
        # in the model's band.
        if not admitted or not self.model.moving_mask(v).all():
            self._check_group(leaving, rows)
            raise InvalidMotionError(
                "batch holds a field no column can store"
            )
        return y0, v, t0

    def _holds_moving(self, oids: Sequence[int]) -> bool:
        """Whether the forest holds any of ``oids`` (its table holds
        them with a moving motion)."""
        held = self._motions.holds(oids)
        return bool(held.any()) and bool(
            self.model.moving_mask(
                self._motions.gather(list(compress(oids, held)))[1]
            ).any()
        )

    def _check_group(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> List[LinearMotion1D]:
        """The scalar checks of a group, in order: the first offender's
        exception, else the departing motions."""
        gone = set(leaving)
        if len(gone) != len(leaving):
            raise DuplicateObjectError("an object is deleted twice in the batch")
        departed = [self._held(oid) for oid in leaving]
        seen: Set[int] = set()
        for obj in arriving:
            if obj.oid in seen or (obj.oid not in gone and obj.oid in self):
                raise DuplicateObjectError(
                    f"object {obj.oid} already indexed"
                )
            seen.add(obj.oid)
            self._check(obj)
        return departed

    def apply_group(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """Apply one group, rebuilding in bulk when it is large.

        Most groups become one key-sorted run per tree
        (:meth:`_apply_grouped`): ``O(c · (touched leaves + m/B))``
        page accesses against the scalar loop's ``O(m · c log_B n)``
        (Lemma 1), same answers.  An empty forest taking two or more
        objects, and a group updating (an oid on both sides) at least
        :data:`REBUILD_MIN_BATCH` objects and :data:`REBUILD_FRACTION`
        of the population, is instead the post-group population rebuilt
        via :meth:`bulk_build` — externally sorted ``(band, b, oid)``
        runs packed bottom-up at :data:`REBUILD_FILL` — which answers
        every query identically but costs one sort + pack.  Deletes and
        inserts into a non-empty forest never rebuild, so the three
        batch verbs, this method's pure-kind groups, decide as they
        always did.
        """
        if self._rebuilds(leaving, arriving):
            self._rebuild_group(leaving, arriving)
        else:
            self._apply_grouped(leaving, arriving)

    def _rebuilds(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> bool:
        if not len(self):
            return not len(leaving) and len(arriving) >= 2
        least = max(self.REBUILD_MIN_BATCH, self.REBUILD_FRACTION * len(self))
        if min(len(leaving), len(arriving)) < least:
            return False
        keys = (
            arriving.keys if isinstance(arriving, MotionRows)
            else [obj.oid for obj in arriving]
        )
        return len(set(leaving).intersection(keys)) >= least

    def _rebuild_group(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """Rebuild from the post-group population, read as columns: the
        table's moving rows but the departing ones, then ``arriving`` —
        an empty forest's is ``arriving`` alone, which the build
        admits."""
        if len(self):
            rows = MotionRows.of(arriving)
            self._admit(leaving, rows)
            oid, y0, v, t0 = self._motions.arrays()
            kept = self.model.moving_mask(v) & ~np.isin(
                oid, np.fromiter(leaving, np.int64, len(leaving))
            )
            arriving = MotionRows(
                oid[kept].tolist() + list(rows.keys),
                *(
                    np.concatenate((column[kept], arrived))
                    for column, arrived in zip(
                        (oid, y0, v, t0), (rows.oid, rows.y0, rows.v, rows.t0)
                    )
                ),
            )
        self._rebuild(arriving)

    def insert_batch(self, objs: Sequence[MobileObject1D]) -> None:
        self.apply_group((), objs)

    def update_batch(self, objs: Sequence[MobileObject1D]) -> None:
        rows = MotionRows.of(objs)
        self.apply_group(rows.keys, rows)

    def delete_batch(self, oids: Sequence[int]) -> None:
        self.apply_group(oids, ())

    # -- querying ------------------------------------------------------------------

    def query(self, query: MORQuery1D) -> Set[int]:
        """One observation-tree range scan per sign and band, whatever
        the query's width (:meth:`scan_plan`)."""
        result: Set[int] = set()
        for oid, hit in self._scan(query):
            result.update(oid[hit].tolist())
        return result

    def scan_plan(
        self, query: MORQuery1D
    ) -> Iterator[
        Tuple[Tuple[int, int], MORQuery1D, float, Tuple, Tuple]
    ]:
        """The scans that answer a query, one per velocity sign and
        speed band: ``(tree, oriented query, y_r, lo key, hi key)``.

        The tree is the one whose horizon minimises ``|y2 - y_r| +
        |y1 - y_r|``.  Nothing here depends on the query being narrow:
        :func:`~repro.core.duality.hough_y_b_range` takes the extreme
        corners of the slab wherever ``y_r`` lies, and once the query is
        wider than a subterrain some horizon is inside it, every such
        horizon ties at the query's own extent ``W`` and equation (1)
        reads ``E = (1/2) * spread^2 * W`` — no distance term.

        Each band's ``b``-range is computed from the band's own edges,
        so it lies inside the whole model's (both bounds are linear in
        ``1/v``): banding never fetches a record one band would not.
        """
        for sign in (1, -1):
            oriented = (
                query
                if sign == 1
                else reflect_query(query, self.model.terrain.y_max)
            )
            i = best_observation_horizon(oriented, self.horizons)
            y_r = self.horizons[i]
            for band, (v_lo, v_hi) in enumerate(
                zip(self.band_edges, self.band_edges[1:])
            ):
                b_lo, b_hi = hough_y_b_range(oriented, y_r, v_lo, v_hi)
                yield (
                    (sign, i),
                    oriented,
                    y_r,
                    (band, b_lo, float("-inf")),
                    (band, b_hi, float("inf")),
                )

    def _scan(
        self, query: MORQuery1D
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Run the scan plan: per fetched leaf slice, its oids and the
        mask of the answers among them — one dual filter call per slice
        (:func:`~repro.vector.kernels.hough_y_exact_mask`), whose
        records within its slack of an edge are decided by the primal
        predicate over their table rows
        (:func:`~repro.vector.kernels.mor_mask`, bit for bit
        :func:`~repro.core.predicates.matches_1d`)."""
        for key, oriented, y_r, lo, hi in self.scan_plan(query):
            for b, oid, speed in self._trees[key].range_columns(lo, hi):
                hit, sure = hough_y_exact_mask(1.0 / speed, b, oriented, y_r)
                near = hit & ~sure
                if near.any():
                    hit[near] = mor_mask(
                        *self._motions.gather(oid[near].tolist()), query
                    )
                yield oid, hit

    def _candidates(
        self, query: MORQuery1D
    ) -> Iterator[Tuple[int, bool]]:
        """Every record the scan plan fetches: ``(oid, is an answer)``."""
        for oid, hit in self._scan(query):
            yield from zip(oid.tolist(), hit.tolist())

    def approximation_overhead(self, query: MORQuery1D) -> Tuple[int, int]:
        """Measure ``(fetched, exact)`` record counts of the scan plan.

        Exposes the paper's ``K + K'`` versus ``K`` so benchmarks can
        chart the approximation error against the equation (1)/(2)
        bounds.
        """
        fetched = exact = 0
        for oid, hit in self._scan(query):
            fetched += len(oid)
            exact += int(np.count_nonzero(hit))
        return (fetched, exact)

    def __len__(self) -> int:
        """Every object has one record in each tree of its sign."""
        return len(self._trees[(1, 0)]) + len(self._trees[(-1, 0)])

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return tuple(self._tree_disks.values())


@register_index
class PaperForestIndex(HoughYForestIndex):
    """The §3.5.2 forest as published and as Figures 6–9 measure it.

    One speed band (observation trees in the paper's ``(b, oid)``
    order) plus the ``c`` **subterrain interval indexes** (shared
    between signs: residence is direction-independent): index ``i``
    stores the time interval each object spends inside subterrain
    ``i``.  A query wider than a subterrain is answered by the paper's
    case (ii): one exact interval-stabbing subquery per fully contained
    subterrain, plus two narrow endpoint subqueries handled as in case
    (i).  A residence is kept from the motion's reference time on, so
    case (ii) answers the MOR model's queries about the future — not one
    that starts before an object last reported, which the scan answers
    too.  Everything about the interval indexes lives in this class.
    """

    name = "hough-y-forest-paper"

    BAND_RATIO = float("inf")

    def __init__(
        self,
        model: MotionModel,
        c: int = 4,
        leaf_capacity: int | None = None,
    ) -> None:
        super().__init__(model, c, leaf_capacity)
        self._interval_disks = [DiskSimulator() for _ in range(c)]
        self._intervals = [
            IntervalIndex(disk, self._interval_capacity(disk))
            for disk in self._interval_disks
        ]

    def _interval_capacity(self, disk: DiskSimulator) -> int:
        return self._leaf_capacity or INTERVAL_ENTRY.capacity(disk.page_size)

    def _residences(
        self, motion: LinearMotion1D
    ) -> List[Tuple[int, float, float]]:
        """``(subterrain, left, right)`` for every subterrain the motion
        spends time in from its reference time on — a function of the
        motion alone, so a delete recomputes what the insert stored."""
        y_max = self.model.terrain.y_max
        residences: List[Tuple[int, float, float]] = []
        for i in range(self.c):
            lo, hi = subterrain_bounds(y_max, self.c, i)
            interval = residence_interval(motion, lo, hi, t_from=motion.t0)
            if interval is not None:
                residences.append((i, *interval))
        return residences

    @classmethod
    def bulk_build(
        cls,
        model: MotionModel,
        objects: Sequence[MobileObject1D],
        c: int = 4,
        leaf_capacity: int | None = None,
        fill: float = 0.8,
        crash_hook: Optional[Callable[[str], None]] = None,
        *,
        _own_table: bool = True,
    ) -> "PaperForestIndex":
        """The trees as the served forest builds them, then the
        subterrain interval indexes, also bulk-loaded."""
        index = super().bulk_build(
            model, objects, c, leaf_capacity, fill, crash_hook,
            _own_table=_own_table,
        )
        per_subterrain: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(c)
        ]
        for obj in objects:
            for i, left, right in index._residences(obj.motion):
                per_subterrain[i].append((obj.oid, left, right))
        index._interval_disks = [DiskSimulator() for _ in range(c)]
        index._intervals = [
            IntervalIndex.bulk_build(
                disk, residents, index._interval_capacity(disk), fill=fill
            )
            for disk, residents in zip(index._interval_disks, per_subterrain)
        ]
        return index

    def _put(self, obj: MobileObject1D) -> None:
        super()._put(obj)
        for i, left, right in self._residences(obj.motion):
            self._intervals[i].insert(obj.oid, left, right)

    def _drop(self, oid: int, motion: LinearMotion1D) -> None:
        super()._drop(oid, motion)
        for i, _, _ in self._residences(motion):
            self._intervals[i].delete(oid)

    def _adopt(self, rebuilt: "PaperForestIndex") -> None:
        super()._adopt(rebuilt)
        self._interval_disks = rebuilt._interval_disks
        self._intervals = rebuilt._intervals

    def _apply_grouped(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """The trees' grouped runs, then one batch per interval index."""
        departed = [self._motion(oid) for oid in leaving]
        super()._apply_grouped(leaving, arriving)
        deletes: List[List[int]] = [[] for _ in range(self.c)]
        inserts: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(self.c)
        ]
        for oid, motion in zip(leaving, departed):
            for i, _, _ in self._residences(motion):
                deletes[i].append(oid)
        for obj in arriving:
            for i, left, right in self._residences(obj.motion):
                inserts[i].append((obj.oid, left, right))
        for i in range(self.c):
            self._intervals[i].apply_batch(deletes[i], inserts[i])

    def query(self, query: MORQuery1D) -> Set[int]:
        width = self.model.terrain.y_max / self.c
        if query.y_extent <= width:
            return super().query(query)
        # Case (ii): decompose around fully-contained subterrains.
        result: Set[int] = set()
        contained = [
            i
            for i in range(self.c)
            if query.y1 <= i * width and (i + 1) * width <= query.y2
        ]
        if contained:
            lo_edge = contained[0] * width
            hi_edge = (contained[-1] + 1) * width
        else:
            # The query spans exactly one interior boundary; split there.
            boundary = width * (int(query.y1 // width) + 1)
            lo_edge = hi_edge = boundary
        for i in contained:
            result.update(self._intervals[i].overlapping(query.t1, query.t2))
        if query.y1 < lo_edge:
            result.update(
                super().query(
                    MORQuery1D(query.y1, lo_edge, query.t1, query.t2)
                )
            )
        if hi_edge < query.y2:
            result.update(
                super().query(
                    MORQuery1D(hi_edge, query.y2, query.t1, query.t2)
                )
            )
        return result

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return super().disks + tuple(self._interval_disks)
