"""BlockManager: byte-accounted caching, eviction, and shuffle reuse.

Also covers the ``ShuffledRDD._local_combine`` path (shuffle-avoiding
combining over a co-partitioned parent) and the fast-path size
accountant's agreement with the reference estimator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BlockManager,
    EngineContext,
    HashPartitioner,
    MetricsRegistry,
    RecordSizeAccountant,
    TINY_CLUSTER,
    ThreadedTaskRunner,
)
from repro.engine.block_manager import SHUFFLE_REGISTRY_LIMIT
from repro.engine.rdd import ShuffledRDD
from repro.engine.batch import ColumnBatch
from repro.engine.serialization import estimate_record_size


@pytest.fixture()
def ctx():
    return EngineContext(cluster=TINY_CLUSTER, default_parallelism=4)


def _tile_records(split, nbytes_per_record=800, records=2):
    return [
        ((split, j), np.zeros(nbytes_per_record // 8)) for j in range(records)
    ]


# ----------------------------------------------------------------------
# Partition caching through RDD.cache()
# ----------------------------------------------------------------------


def test_cached_rdd_hits_after_first_materialization(ctx):
    rdd = ctx.parallelize(range(100), 4).map(lambda x: x * 2).cache()
    assert rdd.sum() == 2 * sum(range(100))
    assert ctx.metrics.total.cache_misses == 4
    assert ctx.metrics.total.cache_hits == 0
    assert rdd.sum() == 2 * sum(range(100))
    assert ctx.metrics.total.cache_hits == 4
    assert ctx.metrics.total.cache_misses == 4
    assert ctx.block_manager.num_blocks == 4
    assert ctx.block_manager.cached_bytes > 0


def test_unpersist_drops_blocks_without_counting_eviction(ctx):
    rdd = ctx.parallelize(range(40), 4).cache()
    rdd.count()
    assert ctx.block_manager.num_blocks == 4
    rdd.unpersist()
    assert ctx.block_manager.num_blocks == 0
    assert ctx.block_manager.cached_bytes == 0
    assert ctx.metrics.total.cache_evicted_bytes == 0
    # Unpersisted: next action recomputes (a fresh round of misses after
    # re-enabling the cache).
    rdd.cache()
    assert rdd.count() == 40
    assert ctx.metrics.total.cache_misses == 8


def test_lru_eviction_under_memory_budget():
    per_split = 2 + (2 + 8 + 8) + 16 + 8 + 800  # one tile record per split
    ctx = EngineContext(
        cluster=TINY_CLUSTER, memory_budget=2 * per_split + 10
    )
    rdd = ctx.parallelize(
        [((i, 0), np.zeros(100)) for i in range(4)], 4
    ).cache()
    assert rdd.count() == 4
    # Budget holds two of the four partition blocks.
    assert ctx.block_manager.num_blocks == 2
    assert ctx.block_manager.cached_bytes <= 2 * per_split + 10
    assert ctx.metrics.total.cache_evicted_bytes == 2 * per_split
    # Evicted partitions recompute transparently.  (A sequential scan
    # over a cache that holds half the partitions thrashes LRU, so these
    # are all misses — correctness is the point here.)
    assert rdd.count() == 4
    assert ctx.metrics.total.cache_misses == 8
    assert ctx.metrics.total.cache_evicted_bytes >= 2 * per_split


def test_block_larger_than_budget_is_not_stored():
    metrics = MetricsRegistry()
    blocks = BlockManager(metrics, memory_budget=100)
    assert blocks.put(1, 0, _tile_records(0, nbytes_per_record=800)) is False
    assert blocks.num_blocks == 0
    assert metrics.total.cache_evicted_bytes == 0


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        BlockManager(MetricsRegistry(), memory_budget=-1)


def test_contains_and_remove():
    blocks = BlockManager(MetricsRegistry())
    blocks.put(7, 0, [1, 2])
    blocks.put(7, 1, [3])
    blocks.put(8, 0, [4])
    assert blocks.contains(7, 0)
    assert blocks.contains_all(7, 2)
    assert not blocks.contains_all(7, 3)
    freed = blocks.remove_rdd(7)
    assert freed > 0
    assert not blocks.contains(7, 0)
    assert blocks.contains(8, 0)
    blocks.clear()
    assert blocks.num_blocks == 0


def test_racing_put_keeps_first_copy():
    blocks = BlockManager(MetricsRegistry())
    first = [1, 2, 3]
    blocks.put(1, 0, first)
    blocks.put(1, 0, [4, 5, 6])
    assert blocks.get(1, 0) is first


def test_cached_rdd_under_threaded_runner():
    with EngineContext(
        cluster=TINY_CLUSTER, runner=ThreadedTaskRunner(max_workers=4)
    ) as ctx:
        rdd = ctx.parallelize(range(1000), 8).map(lambda x: x + 1).cache()
        assert rdd.sum() == sum(range(1000)) + 1000
        assert rdd.sum() == sum(range(1000)) + 1000
        # Every partition was stored exactly once despite concurrency.
        assert ctx.block_manager.num_blocks == 8
        assert ctx.metrics.total.cache_misses == 8
        assert ctx.metrics.total.cache_hits == 8


# ----------------------------------------------------------------------
# ShuffledRDD._local_combine (shuffle-avoiding path)
# ----------------------------------------------------------------------


def _partitioned_pairs(ctx, partitioner):
    data = [(i % 8, i) for i in range(64)]
    return ctx.parallelize(data, 4).partition_by(partitioner)


@pytest.mark.parametrize("threaded", [False, True])
def test_local_combine_with_aggregator(threaded):
    runner = ThreadedTaskRunner(max_workers=4) if threaded else None
    with EngineContext(cluster=TINY_CLUSTER, runner=runner or "serial") as ctx:
        partitioner = HashPartitioner(4)
        pairs = _partitioned_pairs(ctx, partitioner)
        pairs.collect()
        before = ctx.metrics.snapshot()
        # Same partitioner: reduce_by_key combines in place, no shuffle.
        reduced = pairs.reduce_by_key(lambda a, b: a + b, partitioner=partitioner)
        result = dict(reduced.collect())
        delta = ctx.metrics.delta_since(before)
        assert result == {
            k: sum(i for i in range(64) if i % 8 == k) for k in range(8)
        }
        assert delta.shuffles == 0
        assert delta.shuffle_bytes == 0
        assert delta.stages > 0


@pytest.mark.parametrize("threaded", [False, True])
def test_local_combine_without_aggregator(threaded):
    runner = ThreadedTaskRunner(max_workers=4) if threaded else None
    with EngineContext(cluster=TINY_CLUSTER, runner=runner or "serial") as ctx:
        partitioner = HashPartitioner(4)
        pairs = _partitioned_pairs(ctx, partitioner)
        pairs.collect()
        before = ctx.metrics.snapshot()
        # Equal partitioner + no aggregator: records pass through split
        # by split, in order, with nothing shuffled.
        passthrough = ShuffledRDD(pairs, HashPartitioner(4), None)
        assert sorted(passthrough.collect()) == sorted(pairs.collect())
        delta = ctx.metrics.delta_since(before)
        assert delta.shuffles == 0
        assert delta.shuffle_bytes == 0


# ----------------------------------------------------------------------
# Shuffle output reuse
# ----------------------------------------------------------------------


def test_shuffle_reuse_disabled_by_default(ctx):
    source = ctx.parallelize([(i % 5, i) for i in range(50)], 4)
    ShuffledRDD(source, HashPartitioner(3), None).collect()
    ShuffledRDD(source, HashPartitioner(3), None).collect()
    assert ctx.metrics.total.shuffles == 2
    assert ctx.metrics.total.shuffle_reuses == 0


def test_shuffle_reuse_serves_equal_repartition():
    ctx = EngineContext(cluster=TINY_CLUSTER, reuse_shuffles=True)
    source = ctx.parallelize([(i % 5, i) for i in range(50)], 4)
    first = ShuffledRDD(source, HashPartitioner(3), None)
    second = ShuffledRDD(source, HashPartitioner(3), None)
    out_first = first.collect()
    bytes_after_first = ctx.metrics.total.shuffle_bytes
    out_second = second.collect()
    assert out_second == out_first
    # The second shuffle moved nothing: same byte count, one reuse.
    assert ctx.metrics.total.shuffle_bytes == bytes_after_first
    assert ctx.metrics.total.shuffles == 1
    assert ctx.metrics.total.shuffle_reuses == 1


def test_shuffle_reuse_requires_equal_partitioner():
    ctx = EngineContext(cluster=TINY_CLUSTER, reuse_shuffles=True)
    source = ctx.parallelize([(i % 5, i) for i in range(50)], 4)
    ShuffledRDD(source, HashPartitioner(3), None).collect()
    ShuffledRDD(source, HashPartitioner(4), None).collect()
    assert ctx.metrics.total.shuffles == 2
    assert ctx.metrics.total.shuffle_reuses == 0


def test_shuffle_reuse_distinguishes_aggregators():
    ctx = EngineContext(cluster=TINY_CLUSTER, reuse_shuffles=True)
    source = ctx.parallelize([(i % 5, i) for i in range(50)], 4)
    partitioner = HashPartitioner(3)
    reduced = source.reduce_by_key(lambda a, b: a + b, partitioner=partitioner)
    reduced.collect()
    # A plain re-partition must NOT reuse the combined output.
    plain = ShuffledRDD(source, HashPartitioner(3), None)
    assert len(plain.collect()) == 50
    assert ctx.metrics.total.shuffle_reuses == 0


def test_shuffle_registry_is_bounded():
    metrics = MetricsRegistry()
    blocks = BlockManager(metrics, reuse_shuffles=True)
    for i in range(SHUFFLE_REGISTRY_LIMIT + 5):
        blocks.register_shuffle(i, HashPartitioner(2), None, [[("k", i)]])
    # The oldest entries were trimmed.
    assert blocks.lookup_shuffle(0, HashPartitioner(2), None) is None
    newest = SHUFFLE_REGISTRY_LIMIT + 4
    assert blocks.lookup_shuffle(newest, HashPartitioner(2), None) == [[("k", newest)]]


def test_cogroup_reuses_repartition_when_enabled():
    ctx = EngineContext(cluster=TINY_CLUSTER, reuse_shuffles=True)
    left = ctx.parallelize([(i % 3, i) for i in range(30)], 4)
    right = ctx.parallelize([(i % 3, -i) for i in range(30)], 4)
    partitioner = HashPartitioner(3)
    first = left.cogroup(right, partitioner=partitioner)
    second = left.cogroup(right, partitioner=partitioner)
    out_first = sorted(first.collect())
    shuffles_after_first = ctx.metrics.total.shuffles
    out_second = sorted(second.collect())
    assert [(k, (sorted(a), sorted(b))) for k, (a, b) in out_first] == [
        (k, (sorted(a), sorted(b))) for k, (a, b) in out_second
    ]
    assert ctx.metrics.total.shuffles == shuffles_after_first
    assert ctx.metrics.total.shuffle_reuses == 2


# ----------------------------------------------------------------------
# Fast-path accountant == reference estimator
# ----------------------------------------------------------------------

SAMPLE_RECORDS = [
    ((0, 0), np.zeros((3, 3))),
    ((2, 5), np.ones((7, 2), dtype=np.float32)),
    ((0, 0), np.zeros(0)),
    ((4, 4), np.zeros((3, 2))),  # ragged corner tile
    (3, np.zeros(7)),  # TiledVector block
    (0, np.arange(5, dtype=np.int32)),
    (True, np.zeros(2)),  # bool key is not a block coordinate
    ((1, True), np.zeros(2)),
    ((1, 2, 3), np.arange(4)),
    ((0, 1), 2.5),
    (0, 1),
    ("key", [1, 2, 3]),
    (np.int64(3), np.float64(1.5)),
    ((0, ("a", 1)), {"x": 2}),  # str inside the key: full walk
    ((7,), {"i": 6, "j": 7, "a": 0.25}),  # coordinate-join binding environment
    ((8,), {"i": 6, "j": 8, "a": True}),  # same names, another value type
    ((8,), {"ii": 6, "j": 8, "a": 0.5}),  # same types, a longer name
    ((8,), {"i": 6, "j": 8}),
    ((0,), {}),
    ((0,), {1: 2.0}),  # non-str name: full walk
    ((0,), {"x": [1, 2]}),  # content-sized value: full walk
    (2, ColumnBatch({"i": np.arange(3), "a": np.zeros(3)})),  # coordinate batch
    (0, ([ColumnBatch({"i": np.arange(2)})], [])),  # ... cogrouped
    [1, 2, 3],
    "bare string",
    ((0.5, 1), True),
    (None, None),
]


@pytest.mark.parametrize("record", SAMPLE_RECORDS, ids=repr)
def test_accountant_matches_reference_estimator(record):
    accountant = RecordSizeAccountant()
    expected = estimate_record_size(record)
    assert accountant.record_size(record) == expected
    # Memoized second call agrees too.
    assert accountant.record_size(record) == expected


def test_accountant_batch_matches_sum():
    accountant = RecordSizeAccountant()
    assert accountant.batch_size(SAMPLE_RECORDS) == sum(
        estimate_record_size(r) for r in SAMPLE_RECORDS
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.tuples(st.integers(), st.integers()),
                st.integers(0, 12).map(lambda n: np.zeros(n)),
            ),
            st.tuples(
                st.integers(), st.integers(0, 12).map(lambda n: np.zeros(n))
            ),
            st.tuples(
                st.tuples(st.integers(), st.integers()), st.floats(allow_nan=False)
            ),
            st.tuples(st.integers(), st.integers()),
            st.tuples(
                st.tuples(st.integers()),
                st.dictionaries(
                    st.one_of(st.text(max_size=2), st.integers(0, 2)),
                    st.one_of(
                        st.integers(), st.floats(allow_nan=False), st.booleans(),
                        st.text(max_size=2),
                    ),
                    max_size=3,
                ),
            ),
            st.tuples(st.text(max_size=5), st.booleans()),
            st.integers(),
            st.text(max_size=8),
        ),
        max_size=20,
    )
)
def test_accountant_property_identical_to_estimator(records):
    accountant = RecordSizeAccountant()
    assert accountant.batch_size(records) == sum(
        estimate_record_size(r) for r in records
    )
