"""The paper's practical method: the Hough-Y observation B+-tree forest
with subterrain interval indexes (§3.5.2, Lemma 1).

Structure, per velocity sign (negative velocities are reflected through
the terrain midpoint so one positive-velocity code path serves both):

* ``c`` **observation B+-trees**.  Tree ``i`` stores, for every object,
  the time ``b`` its trajectory crosses the observation horizon
  ``y_r(i) = (i + 1/2) * y_max / c``, keyed ``(speed band, b, oid)``
  with the speed as the record value (record = b + speed + pointer,
  the paper's ``B = 341`` layout: the band is a function of the stored
  speed, :func:`~repro.core.duality.speed_bands`, not a field).
* ``c`` **subterrain interval indexes** (shared between signs: residence
  is direction-independent).  Index ``i`` stores the time interval the
  object spends inside subterrain ``i``.

Query processing follows the paper's two cases:

(i) a query no wider than a subterrain is routed to the observation
    tree minimising ``|y2 - y_r| + |y1 - y_r|``; the wedge is
    over-approximated, band by band, by the ``b``-range of
    :func:`~repro.core.duality.hough_y_b_range` and false positives are
    discarded with the stored speed.  Equation (2) bounds the extra
    fetched area by ``(1/2) * ((vmax - vmin)/(vmin*vmax))^2 * y_max/c``
    with ``vmin``, ``vmax`` the edges of one band — §7's clustering of
    similarly moving objects, folded into the sort order.

(ii) a wider query is decomposed: one exact interval-stabbing subquery
    per fully-contained subterrain, plus two narrow endpoint subqueries
    handled as in (i).

Costs match Lemma 1: query ``O(log_B n + (K + K')/B)``, space
``O(c n)``, update ``O(c log_B n)`` per object through the scalar verbs
— descents, mostly: a tree writes back only the pages a verb changed
(:mod:`repro.bptree.tree`), typically its one leaf.
A batch of ``m`` writes is cheaper: grouped into one key-sorted run per
tree it costs ``O(c * (touched leaves + m/B))`` page accesses
(:meth:`~repro.bptree.tree.BPlusTree.apply_sorted`), and past
:data:`HoughYForestIndex.REBUILD_FRACTION` of the population one STR
sort + pack of everything.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bptree.tree import DELETE, INSERT, BatchOp, BPlusTree, batch_order
from repro.io_sim.extsort import external_sort
from repro.core.duality import (
    best_observation_horizon,
    hough_y,
    hough_y_b_range,
    hough_y_matches,
    observation_horizons,
    reflect_motion,
    reflect_query,
    residence_interval,
    speed_bands,
    subterrain_bounds,
)
from repro.core.model import LinearMotion1D, MobileObject1D, MotionModel
from repro.core.queries import MORQuery1D
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.indexes.base import MobileIndex1D, register_index
from repro.interval.tree import IntervalIndex
from repro.io_sim.layout import BPTREE_ENTRY, INTERVAL_ENTRY
from repro.io_sim.pager import DiskSimulator


@register_index
class HoughYForestIndex(MobileIndex1D):
    """The §3.5.2 query-approximation index ("B+-forest").

    ``c`` controls the observation-index count: more trees shrink the
    approximation error ``E`` (equation (2)) at the cost of ``c`` times
    the space and update work — the tradeoff the paper sweeps with
    ``c = 4, 6, 8``.
    """

    name = "hough-y-forest"

    #: ``update_batch`` switches from grouped tree maintenance to a
    #: full STR-style rebuild (sort + pack via :meth:`bulk_build`) once
    #: a batch touches at least this fraction of the population: the
    #: grouped path visits every touched leaf of every tree (all of
    #: them, for a batch this large) while the rebuild costs one
    #: ``O(c · n log n)`` sort + linear pack and restores the fill
    #: factor, so large update storms amortize strictly better.
    REBUILD_FRACTION = 0.3
    #: Never rebuild below this batch size — fixed rebuild overhead
    #: dominates tiny populations.
    REBUILD_MIN_BATCH = 256
    #: Leaf fill factor used by batch-triggered rebuilds.
    REBUILD_FILL = 0.8
    #: Widest ``v_hi / v_lo`` of one speed band of the tree keys.  A
    #: narrow query scans one ``b``-range per band, each as tight as a
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
        wide_strategy: str = "intervals",
    ) -> None:
        super().__init__(model)
        if c < 1:
            raise ValueError(f"need at least one observation index, got c={c}")
        if wide_strategy not in ("intervals", "piecewise"):
            raise ValueError(
                f"wide_strategy must be 'intervals' or 'piecewise', "
                f"got {wide_strategy!r}"
            )
        #: How case-(ii) queries (wider than a subterrain) are processed:
        #: "intervals" is the paper's decomposition (exact subterrain
        #: interval indexes + two endpoint pieces); "piecewise" splits
        #: the whole query into subterrain-aligned narrow pieces, each
        #: answered by an observation tree with bounded E — the paper's
        #: case (i) applied repeatedly.  The ablation bench compares.
        self.wide_strategy = wide_strategy
        self.c = c
        self._leaf_capacity = leaf_capacity
        y_max = model.terrain.y_max
        self.horizons = observation_horizons(y_max, c)
        self.band_edges = speed_bands(
            model.v_min, model.v_max, self.BAND_RATIO
        )
        self._tree_disks: Dict[Tuple[int, int], DiskSimulator] = {}
        self._trees: Dict[Tuple[int, int], BPlusTree] = {}
        for sign in (1, -1):
            for i in range(c):
                disk = DiskSimulator()
                capacity = leaf_capacity or BPTREE_ENTRY.capacity(
                    disk.page_size
                )
                self._tree_disks[(sign, i)] = disk
                self._trees[(sign, i)] = BPlusTree(disk, capacity)
        self._interval_disks: List[DiskSimulator] = []
        self._intervals: List[IntervalIndex] = []
        for _ in range(c):
            disk = DiskSimulator()
            capacity = leaf_capacity or INTERVAL_ENTRY.capacity(disk.page_size)
            self._interval_disks.append(disk)
            self._intervals.append(IntervalIndex(disk, capacity))
        #: oid -> (motion, sign, per-tree b keys, subterrains holding an interval)
        self._catalog: Dict[
            int, Tuple[LinearMotion1D, int, List[float], List[int]]
        ] = {}

    # -- bulk construction ---------------------------------------------------------

    @classmethod
    def bulk_build(
        cls,
        model: MotionModel,
        objects: Sequence[MobileObject1D],
        c: int = 4,
        leaf_capacity: int | None = None,
        fill: float = 0.8,
        wide_strategy: str = "intervals",
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> "HoughYForestIndex":
        """Build the forest from a whole population in ``O(c n log n)``.

        Each observation tree is bulk-loaded from externally sorted
        ``(band, b, oid)`` runs instead of ``N`` root-to-leaf inserts —
        the classic way to stand up the paper's structure over an
        existing fleet.  ``fill < 1`` leaves slack for later updates.
        ``crash_hook`` (chaos testing) fires ``"bulk.mid_pack"`` after
        each observation tree is packed.
        """
        index = cls.__new__(cls)
        MobileIndex1D.__init__(index, model)
        if c < 1:
            raise ValueError(f"need at least one observation index, got c={c}")
        if wide_strategy not in ("intervals", "piecewise"):
            raise ValueError(f"bad wide_strategy {wide_strategy!r}")
        index.wide_strategy = wide_strategy
        index.c = c
        index._leaf_capacity = leaf_capacity
        y_max = model.terrain.y_max
        index.horizons = observation_horizons(y_max, c)
        index.band_edges = speed_bands(
            model.v_min, model.v_max, cls.BAND_RATIO
        )
        index._tree_disks = {}
        index._trees = {}
        index._interval_disks = []
        index._intervals = []
        index._catalog = {}
        # Validate and orient everything once.
        oriented: List[Tuple[MobileObject1D, int, LinearMotion1D, int]] = []
        for obj in objects:
            if obj.oid in index._catalog:
                raise DuplicateObjectError(
                    f"object {obj.oid} appears twice in the bulk input"
                )
            model.validate(obj.motion)
            sign, view = index._oriented(obj.motion)
            oriented.append((obj, sign, view, index._band(view.v)))
            index._catalog[obj.oid] = (obj.motion, sign, [], [])
        # Observation trees: external sort per (sign, horizon), bulk load.
        for sign in (1, -1):
            for i, y_r in enumerate(index.horizons):
                disk = DiskSimulator()
                capacity = leaf_capacity or BPTREE_ENTRY.capacity(
                    disk.page_size
                )
                records = []
                for obj, s, view, band in oriented:
                    if s != sign:
                        continue
                    _, b = hough_y(view, y_r)
                    records.append(((band, b, obj.oid), view.v))
                    index._catalog[obj.oid][2].append(b)
                run = external_sort(
                    disk, records, page_capacity=capacity,
                    key=lambda record: record[0],
                )
                tree = BPlusTree.bulk_load(
                    disk, list(run.scan()), capacity, fill=fill
                )
                run.destroy()
                index._tree_disks[(sign, i)] = disk
                index._trees[(sign, i)] = tree
                if crash_hook is not None:
                    crash_hook("bulk.mid_pack")
        # Subterrain interval indexes, also bulk-loaded.
        per_subterrain: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(c)
        ]
        for obj, _, _, _ in oriented:
            subterrains = index._catalog[obj.oid][3]
            for i in range(c):
                lo, hi = subterrain_bounds(y_max, c, i)
                interval = residence_interval(
                    obj.motion, lo, hi, t_from=obj.motion.t0
                )
                if interval is not None:
                    per_subterrain[i].append((obj.oid, *interval))
                    subterrains.append(i)
        for i in range(c):
            disk = DiskSimulator()
            capacity = leaf_capacity or INTERVAL_ENTRY.capacity(disk.page_size)
            index._interval_disks.append(disk)
            index._intervals.append(
                IntervalIndex.bulk_build(
                    disk, per_subterrain[i], capacity, fill=fill
                )
            )
        return index

    # -- maintenance -------------------------------------------------------------

    def _oriented(self, motion: LinearMotion1D) -> Tuple[int, LinearMotion1D]:
        """Velocity sign and the positive-velocity view of the motion."""
        if motion.v > 0:
            return (1, motion)
        return (-1, reflect_motion(motion, self.model.terrain.y_max))

    def _band(self, speed: float) -> int:
        """The speed band ``j`` leading a record's tree key:
        ``band_edges[j] <= speed < band_edges[j + 1]`` (the last band
        closed).  Derived from the speed the record and the catalogued
        motion already hold, so it is stored nowhere else."""
        edges = self.band_edges
        return bisect_right(edges, speed, 1, len(edges) - 1) - 1

    def _placement(
        self, motion: LinearMotion1D
    ) -> Tuple[int, float, List[float], List[Tuple[int, float, float]]]:
        """Where a motion is stored: its velocity sign, the speed kept
        as the record value, the ``b`` key in each observation tree and
        the ``(subterrain, left, right)`` residence intervals."""
        sign, oriented = self._oriented(motion)
        b_keys = [hough_y(oriented, y_r)[1] for y_r in self.horizons]
        residences: List[Tuple[int, float, float]] = []
        y_max = self.model.terrain.y_max
        for i in range(self.c):
            lo, hi = subterrain_bounds(y_max, self.c, i)
            interval = residence_interval(motion, lo, hi, t_from=motion.t0)
            if interval is not None:
                residences.append((i, *interval))
        return sign, oriented.v, b_keys, residences

    def insert(self, obj: MobileObject1D) -> None:
        if obj.oid in self._catalog:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self.model.validate(obj.motion)
        sign, speed, b_keys, residences = self._placement(obj.motion)
        band = self._band(speed)
        for i, b in enumerate(b_keys):
            self._trees[(sign, i)].insert((band, b, obj.oid), speed)
        for i, left, right in residences:
            self._intervals[i].insert(obj.oid, left, right)
        self._catalog[obj.oid] = (
            obj.motion, sign, b_keys, [i for i, _, _ in residences]
        )

    def delete(self, oid: int) -> None:
        entry = self._catalog.pop(oid, None)
        if entry is None:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        motion, sign, b_keys, subterrains = entry
        band = self._band(abs(motion.v))
        for i, b in enumerate(b_keys):
            self._trees[(sign, i)].delete((band, b, oid))
        for i in subterrains:
            self._intervals[i].delete(oid)

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
        self._interval_disks = rebuilt._interval_disks
        self._intervals = rebuilt._intervals
        self._catalog = rebuilt._catalog

    def _rebuild(self, objects: List[MobileObject1D]) -> None:
        self._adopt(
            type(self).bulk_build(
                self.model,
                objects,
                c=self.c,
                leaf_capacity=self._leaf_capacity,
                fill=self.REBUILD_FILL,
                wide_strategy=self.wide_strategy,
                crash_hook=self.crash_hook,
            )
        )

    def _apply_grouped(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """Drop ``leaving`` and index ``arriving`` leaf-at-a-time.

        An oid on both sides is an update.  The whole group is checked
        first (catalog membership, model band and terrain), so a
        rejected group leaves the forest untouched.  Then every
        observation tree and every subterrain interval index receives
        its share of the group as **one** key-sorted run
        (:meth:`~repro.bptree.tree.BPlusTree.apply_sorted`): a leaf the
        batch touches many times is read and written once.
        """
        gone = set(leaving)
        if len(gone) != len(leaving):
            raise DuplicateObjectError("an object is deleted twice in the batch")
        for oid in leaving:
            if oid not in self._catalog:
                raise ObjectNotFoundError(f"object {oid} is not indexed")
        seen: Set[int] = set()
        for obj in arriving:
            if obj.oid in seen or (
                obj.oid in self._catalog and obj.oid not in gone
            ):
                raise DuplicateObjectError(
                    f"object {obj.oid} already indexed"
                )
            seen.add(obj.oid)
            self.model.validate(obj.motion)

        tree_ops: Dict[Tuple[int, int], List[BatchOp]] = {
            key: [] for key in self._trees
        }
        interval_deletes: List[List[int]] = [[] for _ in range(self.c)]
        interval_inserts: List[List[Tuple[int, float, float]]] = [
            [] for _ in range(self.c)
        ]
        for oid in leaving:
            motion, sign, b_keys, subterrains = self._catalog.pop(oid)
            band = self._band(abs(motion.v))
            for i, b in enumerate(b_keys):
                tree_ops[(sign, i)].append(((band, b, oid), DELETE, None))
            for i in subterrains:
                interval_deletes[i].append(oid)
        for obj in arriving:
            sign, speed, b_keys, residences = self._placement(obj.motion)
            band = self._band(speed)
            for i, b in enumerate(b_keys):
                tree_ops[(sign, i)].append(
                    ((band, b, obj.oid), INSERT, speed)
                )
            for i, left, right in residences:
                interval_inserts[i].append((obj.oid, left, right))
            self._catalog[obj.oid] = (
                obj.motion, sign, b_keys, [i for i, _, _ in residences]
            )
        for key, ops in tree_ops.items():
            ops.sort(key=batch_order)
            self._trees[key].apply_sorted(ops)
        for i in range(self.c):
            self._intervals[i].apply_batch(
                interval_deletes[i], interval_inserts[i]
            )

    def insert_batch(self, objs: Sequence[MobileObject1D]) -> None:
        """Bulk-load an empty forest; one grouped run per tree otherwise."""
        if self._catalog or len(objs) < 2:
            self._apply_grouped([], objs)
            return
        self._rebuild(list(objs))

    def delete_batch(self, oids: Sequence[int]) -> None:
        """Remove many objects with one grouped run per tree."""
        self._apply_grouped(oids, [])

    def update_batch(self, objs: Sequence[MobileObject1D]) -> None:
        """Apply an update storm, rebuilding in bulk when it is large.

        Below the :data:`REBUILD_FRACTION` threshold the batch becomes
        one key-sorted delete+insert run per tree
        (:meth:`_apply_grouped`): ``O(c · (touched leaves + m/B))``
        page accesses against the scalar loop's ``O(m · c log_B n)``
        (Lemma 1), same answers.  At or above it, the post-batch
        population is rebuilt via :meth:`bulk_build` — externally
        sorted ``(band, b, oid)`` runs packed bottom-up at
        :data:`REBUILD_FILL` — which answers every query identically
        but costs one sort + pack.  Callers guarantee oid-uniqueness in
        ``objs``.
        """
        if (
            len(objs) < self.REBUILD_MIN_BATCH
            or len(objs) < self.REBUILD_FRACTION * len(self._catalog)
        ):
            self._apply_grouped([obj.oid for obj in objs], objs)
            return
        for obj in objs:
            if obj.oid not in self._catalog:
                raise ObjectNotFoundError(
                    f"object {obj.oid} is not indexed"
                )
        motions = {oid: entry[0] for oid, entry in self._catalog.items()}
        for obj in objs:
            motions[obj.oid] = obj.motion
        self._rebuild(
            [MobileObject1D(oid, motion) for oid, motion in motions.items()]
        )

    # -- querying ------------------------------------------------------------------

    def query(self, query: MORQuery1D) -> Set[int]:
        y_max = self.model.terrain.y_max
        width = y_max / self.c
        if query.y_extent <= width:
            return self._narrow_query(query)
        if self.wide_strategy == "piecewise":
            return self._piecewise_query(query, width)
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
                self._narrow_query(
                    MORQuery1D(query.y1, lo_edge, query.t1, query.t2)
                )
            )
        if hi_edge < query.y2:
            result.update(
                self._narrow_query(
                    MORQuery1D(hi_edge, query.y2, query.t1, query.t2)
                )
            )
        return result

    def _piecewise_query(self, query: MORQuery1D, width: float) -> Set[int]:
        """Alternative case (ii): subterrain-aligned narrow pieces only."""
        result: Set[int] = set()
        y = query.y1
        while y < query.y2:
            # Cut at the next subterrain boundary so every piece stays
            # within one subterrain (bounded E, eq. 2).
            boundary = width * (int(y // width) + 1)
            y_next = min(boundary, query.y2)
            result.update(
                self._narrow_query(
                    MORQuery1D(y, y_next, query.t1, query.t2)
                )
            )
            y = y_next
        return result

    def narrow_plan(
        self, query: MORQuery1D
    ) -> Iterator[
        Tuple[Tuple[int, int], MORQuery1D, float, Tuple, Tuple]
    ]:
        """The case-(i) scans of a narrow query, one per velocity sign
        and speed band: ``(tree, oriented query, y_r, lo key, hi key)``.

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
                    (band, b_lo, -1),
                    (band, b_hi, float("inf")),
                )

    def _narrow_candidates(
        self, query: MORQuery1D
    ) -> Iterator[Tuple[int, bool]]:
        """Every record a narrow query fetches: ``(oid, is an answer)``."""
        for key, oriented, y_r, lo, hi in self.narrow_plan(query):
            for (_, b, oid), v in self._trees[key].range_items(lo, hi):
                yield oid, hough_y_matches(1.0 / v, b, oriented, y_r)

    def _narrow_query(self, query: MORQuery1D) -> Set[int]:
        """Case (i): one observation-tree range scan per sign and band."""
        return {oid for oid, hit in self._narrow_candidates(query) if hit}

    def approximation_overhead(self, query: MORQuery1D) -> Tuple[int, int]:
        """Measure ``(fetched, exact)`` record counts for a narrow query.

        Exposes the paper's ``K + K'`` versus ``K`` so benchmarks can
        chart the approximation error against the equation (2) bound.
        """
        hits = [hit for _, hit in self._narrow_candidates(query)]
        return (len(hits), sum(hits))

    def __len__(self) -> int:
        return len(self._catalog)

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return tuple(self._tree_disks.values()) + tuple(self._interval_disks)
