"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

This is the engine's Spark-RDD workalike.  An :class:`RDD` is a lazily
evaluated description of a partitioned dataset; transformations build
lineage and actions (``collect``, ``count``, ...) trigger execution through
the context's scheduler, which times tasks and accounts shuffles.

Narrow transformations (``map``, ``filter``, ``flatMap``, ...) pipeline
within a partition.  Wide transformations (``reduceByKey``, ``groupByKey``,
``join``, ``cogroup``, ``partitionBy``) insert a :class:`ShuffledRDD` or
:class:`CoGroupedRDD` whose first evaluation runs a measured shuffle.
The nodes only *describe* that work: the task-graph compiler
(:mod:`repro.engine.taskgraph`) turns it into tasks — for the job that
first needs the node, or for the node alone when something reads it
outside a job.  A wide node keeps its output partitions behind whatever
handle the block manager gives it (``BlockManager.new_output``): a plain
list, or budget-managed, spillable partitions under a ``memory_limit`` —
the nodes themselves never ask which.

The subset implemented is the one the SAC planner and the MLlib-workalike
baseline generate.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TypeVar

from .batch import TileBatch
from .partitioner import HashPartitioner, Partitioner
from .block_manager import SpillLostError
from .shuffle import Aggregator, MapOutputStatistics, _combine_map_side

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .context import EngineContext

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class RDD:
    """A lazily evaluated, partitioned dataset.

    Subclasses implement :meth:`compute`; everything else — caching,
    transformations, actions — lives here.
    """

    def __init__(
        self,
        ctx: "EngineContext",
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
    ):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.ctx = ctx
        self.id = ctx._register_rdd()
        self._num_partitions = num_partitions
        #: Known reduce-side partitioner, when this RDD is the direct
        #: output of a shuffle (lets later shuffles on the same key skip
        #: the network, as in Spark).
        self.partitioner = partitioner
        self._cached = False
        #: Per-lineage opt-in to shuffle-output reuse (set by the
        #: planner's CSE pass via :meth:`mark_shuffle_reuse`); only
        #: marked lineages have the BlockManager retain/serve their
        #: shuffle outputs.
        self._reuse_opt_in = False

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def dependencies(self) -> list["RDD"]:
        """Direct parent RDDs in the lineage graph."""
        return []

    def mark_shuffle_reuse(self) -> None:
        """Opt this RDD's whole lineage into shuffle-output reuse.

        A shuffle consuming a marked RDD registers its map outputs with
        the BlockManager and equal later shuffles over the same marked
        parent are served from them; no other shuffle is retained.
        Only the planner should call this, and only for plans whose IR
        fingerprint proves that re-executing reads the very same
        storages.
        """
        seen: set[int] = set()
        stack: list["RDD"] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            node._reuse_opt_in = True
            stack.extend(node.dependencies)

    def compute(self, split: int) -> Iterable:
        """Produce the records of partition ``split``: an iterator, or a
        :class:`~repro.engine.batch.TileBatch` handed on as it is."""
        raise NotImplementedError

    def iterator(self, split: int) -> Iterable:
        """Like :meth:`compute` but honouring :meth:`cache`.

        Cached partitions live in the context's
        :class:`~repro.engine.block_manager.BlockManager`; a partition
        evicted under memory pressure is transparently recomputed.
        """
        if not self._cached:
            return self.compute(split)
        blocks = self.ctx.block_manager
        stored = blocks.get(self.id, split)
        if stored is None:
            stored = self.compute(split)
            if type(stored) is not TileBatch:
                stored = list(stored)
            blocks.put(self.id, split, stored)
        return stored if type(stored) is TileBatch else iter(stored)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def cache(self) -> "RDD":
        """Materialize partitions on first use and reuse them afterwards."""
        self._cached = True
        return self

    persist = cache

    def unpersist(self) -> "RDD":
        """Drop cached partitions."""
        self._cached = False
        self.ctx.block_manager.remove_rdd(self.id)
        return self

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map_partitions(
        self,
        func: Callable[[Iterator], Iterator],
        preserves_partitioning: bool = False,
        elementwise: bool = False,
    ) -> "RDD":
        """Apply ``func`` to each whole partition iterator.

        Pass ``elementwise=True`` only when ``func`` maps each record
        independently of its neighbours and the split index (e.g. a
        fused per-record kernel); it licenses the skew splitter to
        replay the function over partition slices.
        """
        return MapPartitionsRDD(
            self, lambda _idx, it: func(it), preserves_partitioning,
            elementwise=elementwise,
        )

    def map(self, func: Callable[[T], U]) -> "RDD":
        """Element-wise transform."""
        return MapPartitionsRDD(
            self, lambda _i, it: map(func, it), elementwise=True
        )

    def flat_map(self, func: Callable[[T], Iterable[U]]) -> "RDD":
        """Element-wise transform producing zero or more outputs each."""
        return MapPartitionsRDD(
            self,
            lambda _i, it: itertools.chain.from_iterable(map(func, it)),
            elementwise=True,
        )

    def filter(self, predicate: Callable[[T], bool]) -> "RDD":
        """Keep elements satisfying ``predicate`` (keyed partitioning survives)."""
        return MapPartitionsRDD(
            self,
            lambda _i, it: filter(predicate, it),
            preserves_partitioning=True,
            elementwise=True,
        )

    def map_values(self, func: Callable[[V], U]) -> "RDD":
        """Transform the value of each ``(key, value)`` pair, keeping keys."""
        return MapPartitionsRDD(
            self,
            lambda _i, it: ((k, func(v)) for k, v in it),
            preserves_partitioning=True,
            elementwise=True,
        )

    def flat_map_values(self, func: Callable[[V], Iterable[U]]) -> "RDD":
        """Expand each value to several, pairing each with the original key."""

        def expand(_i: int, it: Iterator) -> Iterator:
            for key, value in it:
                for out in func(value):
                    yield key, out

        return MapPartitionsRDD(
            self, expand, preserves_partitioning=True, elementwise=True
        )

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs ``(a, b)``; partition count multiplies."""
        return CartesianRDD(self, other)

    def subtract_by_key(self, other: "RDD") -> "RDD":
        """Keyed pairs whose key does not appear in ``other``."""

        def keep(groups: tuple[list, list]) -> Iterator:
            mine, theirs = groups
            if not theirs:
                yield from mine

        return self.cogroup(other).flat_map_values(keep)

    def subtract(self, other: "RDD") -> "RDD":
        """Elements of this RDD not present in ``other`` (set difference,
        preserving this side's duplicates like Spark)."""
        return (
            self.map(lambda x: (x, None))
            .subtract_by_key(other.map(lambda x: (x, None)))
            .keys()
        )

    def stats(self) -> "StatCounter":
        """Count, mean, variance, min, max in one pass."""
        return self.aggregate(
            StatCounter(), lambda acc, x: acc.add(x), lambda a, b: a.merge(b)
        )

    # ------------------------------------------------------------------
    # Wide (shuffling) transformations
    # ------------------------------------------------------------------

    def _default_shuffle_partitions(self, num_partitions: Optional[int]) -> int:
        if num_partitions is not None:
            return num_partitions
        return self._num_partitions

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Redistribute ``(key, value)`` pairs according to ``partitioner``."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner, None)

    def combine_by_key(
        self,
        create_combiner: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        """General keyed aggregation (the primitive under reduce/group)."""
        if partitioner is None:
            partitioner = HashPartitioner(self._default_shuffle_partitions(num_partitions))
        aggregator = Aggregator(
            create_combiner, merge_value, merge_combiners, map_side_combine
        )
        return ShuffledRDD(self, partitioner, aggregator)

    def reduce_by_key(
        self,
        func: Callable[[V, V], V],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """Merge values per key with ``func``, combining map-side first.

        This is the operation the paper's Rule (13) targets: grouped
        values are partially reduced *before* they are shuffled.
        """
        return self.combine_by_key(
            lambda v: v, func, func, num_partitions, partitioner
        )

    def group_by_key(
        self,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """Collect all values per key into a list — no map-side combining.

        Deliberately shuffles every record, exactly like Spark: the paper's
        optimizations exist to *avoid* this operation when an aggregation
        follows.
        """
        if partitioner is None:
            partitioner = HashPartitioner(self._default_shuffle_partitions(num_partitions))
        aggregator = Aggregator(
            create_combiner=lambda v: [v],
            merge_value=lambda acc, v: acc + [v],
            merge_combiners=lambda a, b: a + b,
            map_side_combine=False,
        )
        return ShuffledRDD(self, partitioner, aggregator)

    def cogroup(
        self,
        other: "RDD",
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """Group both RDDs by key: ``(key, (values_self, values_other))``."""
        if partitioner is None:
            partitions = num_partitions or max(
                self._num_partitions, other._num_partitions
            )
            partitioner = HashPartitioner(partitions)
        return CoGroupedRDD(self.ctx, [self, other], partitioner)

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner join on keys: ``(key, (v_self, v_other))`` per match pair."""

        def flatten(groups: tuple[list, list]) -> Iterator:
            left, right = groups
            for lv in left:
                for rv in right:
                    yield lv, rv

        cogrouped = self.cogroup(other, num_partitions)
        if isinstance(cogrouped, CoGroupedRDD):
            # The grouped record feeding ``flatten`` is a cartesian
            # product, so the adaptive skew splitter may break one side's
            # value list into chunks without changing the joined pair
            # multiset.  The cogroup object itself never escapes this
            # method, so the marking cannot affect user-visible grouping.
            cogrouped._splittable_values = True
        return cogrouped.flat_map_values(flatten)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> list:
        """All records, in partition order."""
        parts = self.ctx.run_job(self, list, description="collect")
        return list(itertools.chain.from_iterable(parts))

    def count(self) -> int:
        parts = self.ctx.run_job(self, _length, description="count")
        return sum(parts)

    def reduce(self, func: Callable[[T, T], T]) -> T:
        """Reduce all records with an associative ``func``."""
        sentinel = object()

        def reduce_partition(it: Iterator) -> Any:
            acc: Any = sentinel
            for item in it:
                acc = item if acc is sentinel else func(acc, item)
            return acc

        parts = [
            p
            for p in self.ctx.run_job(self, reduce_partition, description="reduce")
            if p is not sentinel
        ]
        if not parts:
            raise ValueError("reduce() on an empty RDD")
        acc = parts[0]
        for item in parts[1:]:
            acc = func(acc, item)
        return acc

    def fold(self, zero: T, func: Callable[[T, T], T]) -> T:
        """Fold with a zero element.

        Like Spark, the zero is (deep-)copied per partition, so mutable
        accumulators are safe.
        """
        import copy

        parts = self.ctx.run_job(
            self,
            lambda it: _fold_iter(it, copy.deepcopy(zero), func),
            description="fold",
        )
        acc = copy.deepcopy(zero)
        for part in parts:
            acc = func(acc, part)
        return acc

    def aggregate(
        self,
        zero: U,
        seq_func: Callable[[U, T], U],
        comb_func: Callable[[U, U], U],
    ) -> U:
        """Aggregate with different within- and across-partition combines.

        The zero is (deep-)copied per partition (Spark serializes it per
        task), so mutable accumulators are safe.
        """
        import copy

        parts = self.ctx.run_job(
            self,
            lambda it: _fold_iter(it, copy.deepcopy(zero), seq_func),
            description="aggregate",
        )
        acc = copy.deepcopy(zero)
        for part in parts:
            acc = comb_func(acc, part)
        return acc

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def foreach(self, func: Callable[[T], None]) -> None:
        def run(it: Iterator) -> None:
            for item in it:
                func(item)

        self.ctx.run_job(self, run, description="foreach")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id}, partitions={self._num_partitions})"


def _length(part: Iterable) -> int:
    if type(part) is TileBatch:
        return len(part)
    return sum(1 for _ in part)


def _fold_iter(it: Iterator, zero: Any, func: Callable[[Any, Any], Any]) -> Any:
    acc = zero
    for item in it:
        acc = func(acc, item)
    return acc


class StatCounter:
    """Streaming count/mean/variance/min/max (Welford merge, like Spark)."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> "StatCounter":
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        return self

    def merge(self, other: "StatCounter") -> "StatCounter":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else float("nan")

    @property
    def stdev(self) -> float:
        return self.variance ** 0.5

    def __repr__(self) -> str:
        return (
            f"StatCounter(count={self.count}, mean={self.mean:.4f}, "
            f"stdev={self.stdev:.4f}, min={self.minimum}, max={self.maximum})"
        )


class ParallelCollectionRDD(RDD):
    """An RDD over in-memory partitions: record lists or tile batches."""

    def __init__(self, ctx: "EngineContext", slices: list):
        super().__init__(ctx, len(slices))
        self._slices = slices

    def compute(self, split: int) -> Iterable:
        part = self._slices[split]
        return part if type(part) is TileBatch else iter(part)


def _slice(items: list, num_partitions: int) -> list[list]:
    """Split ``items`` into ``num_partitions`` contiguous, balanced runs."""
    length = len(items)
    slices = []
    for i in range(num_partitions):
        start = (i * length) // num_partitions
        end = ((i + 1) * length) // num_partitions
        slices.append(items[start:end])
    return slices


class MapPartitionsRDD(RDD):
    """Narrow transformation: ``func(index, parent_iterator)`` per split.

    ``elementwise`` marks functions that treat the partition as a plain
    record stream — each input record contributes outputs independently
    of its neighbours and of the split index (``map``, ``filter``,
    ``flat_map`` and the ``*_values`` variants).  The adaptive skew
    splitter may re-run such a function over a *slice* of a partition;
    opaque ``map_partitions`` functions (stateful scans, index-seeded
    samplers) never get that flag and stop the splitter's lineage walk.
    """

    def __init__(
        self,
        parent: RDD,
        func: Callable[[int, Iterator], Iterator],
        preserves_partitioning: bool = False,
        elementwise: bool = False,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            parent.partitioner if preserves_partitioning else None,
        )
        self._parent = parent
        self._func = func
        self._elementwise = elementwise

    @property
    def dependencies(self) -> list[RDD]:
        return [self._parent]

    def compute(self, split: int) -> Iterable:
        out = self._func(split, self._parent.iterator(split))
        return out if type(out) is TileBatch else iter(out)


class _WideRDD(RDD):
    """What the two wide nodes share: a retained output, built once.

    ``_output`` is the block manager's output handle holding the node's
    partitions once every one of them has landed.  While a job's task
    graph is producing the node, the tasks of that job read the
    partitions that have landed so far through ``_inflight`` (the
    compiler's record of the build, which refuses a partition that has
    not).  Whoever builds the node holds ``_materialize_lock``: another
    job that needs it waits there when it compiles, a lazy reader when
    it calls :meth:`_materialize`.
    """

    _output: Any = None
    _inflight: Any = None

    def __init__(self, ctx: "EngineContext", partitioner: Partitioner):
        super().__init__(ctx, partitioner.num_partitions, partitioner)
        #: Held by whoever is building the node: the job that compiled
        #: it into its graph, or a lazy :meth:`_materialize`.
        self._materialize_lock = threading.Lock()

    def _materialize(self) -> Any:
        """The node's output handle, building the node first if needed.

        The lazy path (everything inside a job is built by the job's own
        graph): the scheduler compiles the graph of this one node and
        walks it serially on the calling thread.  Concurrent readers
        race here; one thread builds (and accounts) the node, the rest
        reuse its output.
        """
        output = self._output
        if output is None:
            with self._materialize_lock:
                if self._output is None:
                    self.ctx.scheduler.materialize(self)
                output = self._output
        return output

    def _discard_lost_output(self, output: Any) -> None:
        """Forget a materialized output whose spilled partition was lost.

        Only discards when ``output`` is still the current one, so a
        concurrent reader that failed on the *previous* generation never
        throws away a freshly rebuilt output.
        """
        with self._materialize_lock:
            if self._output is output:
                owner = getattr(output, "owner", None)
                if owner is not None:
                    self.ctx.block_manager.drop_managed(owner)
                self._output = None

    def compute(self, split: int) -> Iterator:
        build = self._inflight
        if build is not None:
            return iter(build.read(split))
        # A spilled output partition that cannot be restored (deleted or
        # corrupt spill object) falls back to lineage recomputation: the
        # whole node re-runs, exactly as if the output had never been
        # retained.
        for _attempt in range(2):
            output = None
            try:
                output = self._materialize()
                return iter(output[split])
            except SpillLostError:
                if output is not None:
                    self._discard_lost_output(output)
        raise SpillLostError(
            f"partition {split} of rdd {self.id} lost twice in a row"
        )


class ShuffledRDD(_WideRDD):
    """Wide dependency: repartitions (and optionally combines) by key.

    The shuffle runs once, on first access to any output partition, and its
    results are retained for the lifetime of the RDD object (mirroring
    Spark's shuffle files surviving for later stages).

    When the parent is already partitioned by an equal partitioner the
    records do not move: each output partition derives from exactly the
    matching parent partition, no shuffle bytes are recorded, and only the
    combining work runs (Spark's "shuffle avoided" narrow path).
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
    ):
        super().__init__(parent.ctx, partitioner)
        self._parent = parent
        self._aggregator = aggregator
        self._map_stats: Optional[MapOutputStatistics] = None

    @property
    def dependencies(self) -> list[RDD]:
        return [self._parent]

    def output_statistics(self) -> Optional[MapOutputStatistics]:
        """Measured per-partition map-output histogram of this shuffle.

        Materializes the shuffle if needed (this is how the adaptive
        layer plans from a stage that is not part of the running job:
        it must finish before its statistics can steer the next one).
        ``None`` when the data never crossed the shuffle machinery
        (co-partitioned local combine).
        """
        self._materialize()
        return self._map_stats

    def _combine_partition(self, split: int) -> tuple[list, float]:
        """The in-place combine work for one co-partitioned partition;
        returns ``(combined, own_seconds)``."""
        with self.ctx.metrics.task_timer() as timer:
            self.ctx.runner.fault_point(f"combine:{self.id}", split)
            records = self._parent.iterator(split)
            if self._aggregator is None:
                combined = list(records)
            else:
                combined = _combine_map_side(records, self._aggregator)
        return combined, timer.own_seconds


class CoGroupedRDD(_WideRDD):
    """Groups several keyed RDDs by key into ``(key, (list_0, list_1, ...))``.

    Each parent that is not already partitioned compatibly is shuffled
    (without combining — cogroup moves every record, like Spark).
    """

    def __init__(
        self, ctx: "EngineContext", parents: list[RDD], partitioner: Partitioner
    ):
        super().__init__(ctx, partitioner)
        self._parents = parents
        #: Per-parent map-output histograms, filled as the node is built
        #: (``None`` for a parent that never crossed the shuffle).
        self._parent_stats: list[Optional[MapOutputStatistics]] = []
        #: Set by :meth:`RDD.join`: the grouped value lists only ever feed
        #: a cartesian flatten, so the skew splitter may chunk them.
        self._splittable_values = False

    @property
    def dependencies(self) -> list[RDD]:
        return list(self._parents)

    def output_statistics(self) -> Optional[MapOutputStatistics]:
        """Combined per-partition histogram over all shuffled parents.

        ``None`` when any parent was co-partitioned (its bytes never
        moved, so there is no measured histogram to combine).
        """
        self._materialize()
        return self._combined_statistics()

    def _combined_statistics(self) -> Optional[MapOutputStatistics]:
        """The parents' histograms summed, as far as they have landed."""
        combined: Optional[MapOutputStatistics] = None
        for stats in self._parent_stats:
            if stats is None:
                return None
            combined = stats if combined is None else combined.merged_with(stats)
        return combined

    def _drain_partition(self, parent: RDD, index: int, split: int) -> tuple:
        """Drain one co-partitioned parent partition in place; returns
        ``(records, own_seconds)``."""
        with self.ctx.metrics.task_timer() as timer:
            self.ctx.runner.fault_point(f"drain:{self.id}.{index}", split)
            records = list(parent.iterator(split))
        return records, timer.own_seconds


class UnionRDD(RDD):
    """Concatenation of several RDDs; partitions are juxtaposed."""

    def __init__(self, ctx: "EngineContext", parents: list[RDD]):
        super().__init__(ctx, sum(p.num_partitions for p in parents))
        self._parents = parents

    @property
    def dependencies(self) -> list[RDD]:
        return list(self._parents)

    def compute(self, split: int) -> Iterator:
        for parent in self._parents:
            if split < parent.num_partitions:
                return parent.iterator(split)
            split -= parent.num_partitions
        raise IndexError(f"partition {split} out of range")


class CartesianRDD(RDD):
    """All pairs of two RDDs; ``n * m`` partitions."""

    def __init__(self, left: RDD, right: RDD):
        super().__init__(left.ctx, left.num_partitions * right.num_partitions)
        self._left = left
        self._right = right

    @property
    def dependencies(self) -> list[RDD]:
        return [self._left, self._right]

    def compute(self, split: int) -> Iterator:
        left_split, right_split = divmod(split, self._right.num_partitions)
        left_items = list(self._left.iterator(left_split))
        for right_item in self._right.iterator(right_split):
            for left_item in left_items:
                yield left_item, right_item
