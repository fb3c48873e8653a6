"""Shuffle execution: the only way data crosses "the network".

A shuffle takes the keyed output of every map-side partition, buckets each
record by a :class:`~repro.engine.partitioner.Partitioner`, and hands each
reduce-side partition the merged contents of its bucket.  Two regimes
mirror Spark:

* **With an aggregator and map-side combining** (``reduceByKey``,
  ``combineByKey``): values are combined into per-key combiners *before*
  they are counted against the network, so a sum over a billion records
  shuffles one combiner per key per map partition.  This is the
  mechanism behind the paper's insistence on translating group-bys to
  ``reduceByKey`` (Sections 4 and 5.3).

* **Without map-side combining** (``groupByKey``, ``cogroup``): every
  record crosses the network individually.  The ablation benchmark E5
  measures exactly this difference.

Shuffled bytes are *measured* from the actual records via
:mod:`repro.engine.serialization`, not assumed — but through the
:class:`~repro.engine.serialization.RecordSizeAccountant` fast path, so
pricing a homogeneous tile stream costs a memo lookup per record rather
than a recursive walk, and the accounting is batched per map partition.

Map tasks (read + combine + bucket + account one map partition) and
reduce tasks (merge one bucket) are independent, so the task-graph
compiler (:mod:`repro.engine.taskgraph`) issues each as its own task —
for a ``ShuffledRDD`` and for each parent of a cogroup alike, which
reaches the cogroup through a ``ShuffledRDD`` of its own.
A reduce bucket concatenates the map slots' pieces in map-partition
order, which makes the output — and every recorded counter — identical
to a serial drain.

There is one shuffle, :class:`Shuffle`, and one thing varies around it:
**where its map buckets live** between the phases — the *bucket store*:
:class:`_MemoryBuckets`, or :class:`_BucketSpiller` when the block
manager has a spill tier.  The block manager chooses
(``BlockManager.bucket_store``), from the ``memory_limit`` the user set;
the shuffle never asks which one it got.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from .metrics import MetricsRegistry
from .partitioner import Partitioner
from .scheduler import TaskRunner
from .serialization import RecordSizeAccountant


@dataclass(frozen=True)
class MapOutputStatistics:
    """Per-reduce-partition histogram of one shuffle's map output.

    Collected unconditionally during the map phase of every shuffle: each
    map task prices its buckets separately through the same
    :class:`RecordSizeAccountant` that priced the whole partition before,
    so ``sum(bytes_per_partition)`` is integer-identical to the recorded
    ``shuffle_bytes`` contribution and collecting the histogram never
    perturbs a counter.  The adaptive layer reads these numbers to decide
    skew splits and join-strategy downgrades.
    """

    bytes_per_partition: tuple[int, ...]
    records_per_partition: tuple[int, ...]

    @property
    def num_partitions(self) -> int:
        return len(self.bytes_per_partition)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_partition)

    @property
    def total_records(self) -> int:
        return sum(self.records_per_partition)

    def merged_with(self, other: "MapOutputStatistics") -> "MapOutputStatistics":
        """Elementwise sum with another shuffle's histogram (cogroups)."""
        return MapOutputStatistics(
            tuple(a + b for a, b in zip(self.bytes_per_partition,
                                        other.bytes_per_partition)),
            tuple(a + b for a, b in zip(self.records_per_partition,
                                        other.records_per_partition)),
        )

    def summary(self) -> str:
        nonzero = [b for b in self.bytes_per_partition if b]
        top = max(self.bytes_per_partition) if self.bytes_per_partition else 0
        return (
            f"{self.num_partitions} partitions, {self.total_bytes} bytes "
            f"({len(nonzero)} non-empty, largest {top})"
        )


@dataclass
class Aggregator:
    """Spark-style map/reduce-side combining functions.

    ``create_combiner`` turns the first value for a key into a combiner,
    ``merge_value`` folds another value into an existing combiner, and
    ``merge_combiners`` merges two combiners on the reduce side.
    """

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]
    map_side_combine: bool = True


def _combine_map_side(
    records: Iterator[tuple[Any, Any]], aggregator: Aggregator
) -> list[tuple[Any, Any]]:
    """Fold values into one combiner per key within a map partition."""
    combiners: dict[Any, Any] = {}
    for key, value in records:
        if key in combiners:
            combiners[key] = aggregator.merge_value(combiners[key], value)
        else:
            combiners[key] = aggregator.create_combiner(value)
    return list(combiners.items())


def _merge_reduce_side(
    bucket: list[tuple[Any, Any]], aggregator: Aggregator
) -> list[tuple[Any, Any]]:
    """Merge the (pre-combined or raw) records of one reduce bucket."""
    merged: dict[Any, Any] = {}
    if aggregator.map_side_combine:
        for key, combiner in bucket:
            if key in merged:
                merged[key] = aggregator.merge_combiners(merged[key], combiner)
            else:
                merged[key] = combiner
    else:
        for key, value in bucket:
            if key in merged:
                merged[key] = aggregator.merge_value(merged[key], value)
            else:
                merged[key] = aggregator.create_combiner(value)
    return list(merged.items())


def merge_cogroup_bucket(
    table: dict[Any, tuple[list, ...]], bucket: Iterable[tuple[Any, Any]],
    index: int, arity: int,
) -> None:
    """Fold parent ``index``'s bucket into one split's cogroup table.

    Parents must be folded in ascending ``index`` order: key insertion
    order (hence the output's record order) is that of first appearance.
    """
    for key, value in bucket:
        entry = table.get(key)
        if entry is None:
            entry = tuple([] for _ in range(arity))
            table[key] = entry
        entry[index].append(value)


#: Below this many records the numpy batch setup costs more than the
#: per-record ``partition`` calls it saves.
_BATCH_SCATTER_MIN = 32


def _scatter_records(
    records: list[tuple[Any, Any]],
    partitioner: Partitioner,
    num_reducers: int,
) -> list[list]:
    """Bucket ``records`` by reducer, vectorizing when the keys allow.

    The batch path hashes every key in one numpy pass
    (:meth:`Partitioner.partition_batch`), then scatters with a *stable*
    argsort — each bucket keeps its records in original partition order,
    so the result is list-identical (hence byte- and counter-identical)
    to the per-record loop it replaces.
    """
    local_buckets: list[list] = [[] for _ in range(num_reducers)]
    bucket_ids = None
    if (
        num_reducers > 1
        and len(records) >= _BATCH_SCATTER_MIN
        and partitioner.num_partitions == num_reducers
    ):
        bucket_ids = partitioner.partition_batch(
            [record[0] for record in records]
        )
    if bucket_ids is None:
        partition = partitioner.partition
        for record in records:
            local_buckets[partition(record[0])].append(record)
        return local_buckets
    order = np.argsort(bucket_ids, kind="stable")
    starts = np.searchsorted(bucket_ids[order], np.arange(num_reducers + 1))
    for reducer in range(num_reducers):
        lo, hi = int(starts[reducer]), int(starts[reducer + 1])
        if lo != hi:
            local_buckets[reducer] = [records[i] for i in order[lo:hi]]
    return local_buckets


def _map_partition(
    partition_iter: Iterator[tuple[Any, Any]],
    partitioner: Partitioner,
    aggregator: Optional[Aggregator],
    accountant: RecordSizeAccountant,
    num_reducers: int,
) -> tuple[list[list], list[int], int]:
    """The map-side work for one partition: drain, combine, bucket, price.

    Pricing each bucket separately sums the same
    memoized per-record sizes as a single ``batch_size(records)`` call —
    the per-reducer histogram is free.
    """
    if aggregator is not None and aggregator.map_side_combine:
        records = _combine_map_side(partition_iter, aggregator)
    else:
        records = list(partition_iter)
    local_buckets = _scatter_records(records, partitioner, num_reducers)
    bucket_bytes = [
        accountant.batch_size(bucket) if bucket else 0
        for bucket in local_buckets
    ]
    return local_buckets, bucket_bytes, len(records)


class _MemoryBuckets:
    """Map-output buckets held in memory, one list of buckets per slot."""

    def __init__(self) -> None:
        #: slot -> that slot's per-reducer bucket lists.
        self._slots: dict[Any, list] = {}
        self._lock = threading.Lock()

    def write(self, slot: Any, local_buckets: list[list],
              bucket_bytes: list[int]) -> None:
        """Keep one map slot's buckets (idempotent: a retry overwrites)."""
        with self._lock:
            self._slots[slot] = local_buckets

    def read_bucket(self, reducer: int) -> list:
        """One reducer's bucket, concatenated in ascending slot order.

        Same contract as :meth:`_BucketSpiller.read_bucket`: the slots'
        pieces are released only after the whole bucket assembled, so a
        task retried partway through a read still finds every piece —
        and a consumed bucket no longer pins its map slots' records.
        """
        with self._lock:
            ordered = [self._slots[slot] for slot in sorted(self._slots)]
        bucket: list = []
        for local_buckets in ordered:
            bucket.extend(local_buckets[reducer])
        for local_buckets in ordered:
            local_buckets[reducer] = ()
        return bucket

    def discard(self) -> None:
        """Let go of whatever was written and never read."""
        with self._lock:
            self._slots.clear()


class _BucketSpiller:
    """Map-output buckets written straight to the spill store.

    With a spill tier the map phase never accumulates its buckets in
    driver memory: each map slot's non-empty buckets are serialized to
    the object store as the slot lands.  The reduce side reads a
    reducer's buckets back in ascending map-slot order — the same
    concatenation order as :class:`_MemoryBuckets`, so reduce inputs are
    byte-identical — consuming (deleting) each object as it goes.
    Spilled and restored bytes use the accountant's bucket sizes so the
    counters pair up exactly.
    """

    def __init__(self, store: Any, metrics: MetricsRegistry, label: str):
        self._store = store
        self._metrics = metrics
        self._label = label
        #: (slot, reducer) -> accounted bucket bytes.
        self._written: dict[tuple[Any, int], int] = {}
        self._lock = threading.Lock()

    def _key(self, slot: Any, reducer: int) -> str:
        return f"shufmap/{self._label}/{slot}/{reducer}"

    def write(self, slot: Any, local_buckets: list[list],
              bucket_bytes: list[int]) -> None:
        """Persist one map slot's non-empty buckets (idempotent)."""
        for reducer, bucket in enumerate(local_buckets):
            if not bucket:
                continue
            data = pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL)
            self._store.put(self._key(slot, reducer), data)
            with self._lock:
                self._written[(slot, reducer)] = bucket_bytes[reducer]
            self._metrics.record_spill(bucket_bytes[reducer])

    def read_bucket(self, reducer: int) -> list:
        """One reducer's concatenated bucket, consumed from the store.

        Entries are only forgotten (and objects only deleted) after the
        whole bucket assembled, so a task retried partway through a read
        still finds every object.
        """
        with self._lock:
            keys = sorted(
                (key for key in self._written if key[1] == reducer),
                key=lambda key: key[0],
            )
            sizes = {key: self._written[key] for key in keys}
        bucket: list = []
        for key in keys:
            store_key = self._key(key[0], reducer)
            bucket.extend(pickle.loads(self._store.get(store_key)))
        for key in keys:
            with self._lock:
                self._written.pop(key, None)
            self._store.delete(self._key(key[0], reducer))
            self._metrics.record_spill_restore(sizes[key])
        return bucket

    def discard(self) -> None:
        """Delete the objects of buckets written and never read (the
        shuffle's job failed before its reduce side ran)."""
        with self._lock:
            unread, self._written = list(self._written), {}
        for slot, reducer in unread:
            self._store.delete(self._key(slot, reducer))


class Shuffle:
    """Per-slot state of one shuffle: the engine's only shuffle.

    Map *slots* — ``(partition, chunk)`` keys, so a skew-split
    partition's chunks slot in where the original partition would — land
    independently via :meth:`run_map_slot`, each handing its buckets to
    the *bucket store* the block manager chose (:class:`_MemoryBuckets`,
    or :class:`_BucketSpiller` under a ``memory_limit``).  Once every
    slot has landed,
    :meth:`finish_map_phase` folds the per-slot sizes in ascending slot
    order and records the map stage and shuffle volume; the reduce side
    then reads bucket ``r`` (:meth:`read_bucket`, every slot's piece in
    ascending slot order) or merges it (:meth:`run_reduce`).
    Counters and bucket contents therefore do not depend on the order
    slots completed in or on where the buckets lived.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        runner: TaskRunner,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
        stage_label: Optional[str],
        blocks,
    ):
        self._metrics = metrics
        self._runner = runner
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.num_reducers = partitioner.num_partitions
        self._map_label = f"map:{stage_label}" if stage_label else "map"
        self._reduce_label = f"reduce:{stage_label}" if stage_label else "reduce"
        # One accountant for the whole shuffle: map partitions of one
        # shuffle share record shapes, so the signature memo hits across
        # tasks (dict access is atomic under the GIL, and a racing
        # double-insert writes the same value).
        self._accountant = RecordSizeAccountant()
        self._store = blocks.bucket_store(stage_label or "anon")
        #: slot key -> (bucket_bytes, bucket_counts, num_records, seconds)
        self._slots: dict[tuple, tuple] = {}
        self._slots_lock = threading.Lock()
        self.stats: Optional[MapOutputStatistics] = None

    def run_map_slot(
        self,
        slot: tuple,
        partition_iter: Iterator[tuple[Any, Any]],
        partition: int,
    ) -> None:
        """Execute the map work of one slot.

        Idempotent: a retried slot overwrites its own entry.  ``slot``
        is ``(partition, chunk)``; ``partition`` feeds the fault point
        so an injection targeting partition *p* hits every chunk of *p*.
        """
        with self._metrics.task_timer() as timer:
            self._runner.fault_point(self._map_label, partition)
            local_buckets, bucket_bytes, num_records = _map_partition(
                partition_iter, self.partitioner, self.aggregator,
                self._accountant, self.num_reducers,
            )
        # The store write (spill I/O under a cap) stays outside the
        # timer, so measured compute does not depend on the store.
        bucket_counts = [len(bucket) for bucket in local_buckets]
        self._store.write(slot, local_buckets, bucket_bytes)
        with self._slots_lock:
            self._slots[slot] = (
                bucket_bytes, bucket_counts, num_records, timer.own_seconds
            )

    def finish_map_phase(self) -> MapOutputStatistics:
        """Fold all landed slots; record map stage + shuffle volume."""
        partition_bytes = [0] * self.num_reducers
        partition_records = [0] * self.num_reducers
        task_seconds: list[float] = []
        shuffled_records = 0
        shuffled_bytes = 0
        with self._slots_lock:
            ordered = [self._slots[key] for key in sorted(self._slots)]
        for bucket_bytes, bucket_counts, num_records, seconds in ordered:
            for reducer, count in enumerate(bucket_counts):
                partition_bytes[reducer] += bucket_bytes[reducer]
                partition_records[reducer] += count
            shuffled_records += num_records
            shuffled_bytes += sum(bucket_bytes)
            task_seconds.append(seconds)
        self.stats = MapOutputStatistics(
            tuple(partition_bytes), tuple(partition_records)
        )
        self._metrics.record_stage(len(task_seconds), task_seconds)
        self._metrics.record_shuffle(shuffled_records, shuffled_bytes)
        return self.stats

    def read_bucket(self, reducer: int) -> list:
        """Reduce partition ``reducer`` of a plain repartition (consumed)."""
        return self._store.read_bucket(reducer)

    def discard(self) -> None:
        """Drop map output no reduce task will read (the job is over)."""
        self._store.discard()

    def run_reduce(self, bucket_id: int) -> tuple[list, float]:
        """Merge one reduce bucket; returns it merged + own-seconds."""
        with self._metrics.task_timer() as timer:
            self._runner.fault_point(self._reduce_label, bucket_id)
            merged = _merge_reduce_side(
                self._store.read_bucket(bucket_id), self.aggregator
            )
        return merged, timer.own_seconds
