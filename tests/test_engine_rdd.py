"""Unit tests for the engine's RDD transformations and actions."""

import pytest

from repro.engine import EngineContext, HashPartitioner, TINY_CLUSTER


@pytest.fixture()
def ctx():
    return EngineContext(cluster=TINY_CLUSTER, default_parallelism=4)


def test_parallelize_collect_roundtrip(ctx):
    data = list(range(23))
    assert ctx.parallelize(data, 5).collect() == data


def test_parallelize_preserves_order_across_partitions(ctx):
    data = ["a", "b", "c", "d", "e"]
    assert ctx.parallelize(data, 3).collect() == data


def test_parallelize_empty(ctx):
    assert ctx.parallelize([], 4).collect() == []


def test_parallelize_caps_partitions_at_data_size(ctx):
    rdd = ctx.parallelize([1, 2], 100)
    assert rdd.num_partitions <= 2
    assert rdd.collect() == [1, 2]


def test_map(ctx):
    assert ctx.parallelize(range(5), 2).map(lambda x: x * x).collect() == [0, 1, 4, 9, 16]


def test_flat_map(ctx):
    result = ctx.parallelize([1, 2, 3], 2).flat_map(lambda x: [x] * x).collect()
    assert result == [1, 2, 2, 3, 3, 3]


def test_filter(ctx):
    result = ctx.parallelize(range(10), 3).filter(lambda x: x % 2 == 0).collect()
    assert result == [0, 2, 4, 6, 8]


def test_map_partitions(ctx):
    result = (
        ctx.parallelize(range(10), 2)
        .map_partitions(lambda it: iter([sum(it)]))
        .collect()
    )
    assert sum(result) == 45
    assert len(result) == 2


def test_map_values_keeps_keys(ctx):
    pairs = [("a", 1), ("b", 2)]
    assert ctx.parallelize(pairs, 2).map_values(lambda v: v * 10).collect() == [
        ("a", 10),
        ("b", 20),
    ]


def test_flat_map_values(ctx):
    pairs = [("a", 2), ("b", 1)]
    result = ctx.parallelize(pairs, 1).flat_map_values(lambda v: range(v)).collect()
    assert result == [("a", 0), ("a", 1), ("b", 0)]


def test_keys_values(ctx):
    pairs = [(1, "x"), (2, "y")]
    rdd = ctx.parallelize(pairs, 2)
    assert rdd.keys().collect() == [1, 2]
    assert rdd.values().collect() == ["x", "y"]


def test_union(ctx):
    left = ctx.parallelize([1, 2], 2)
    right = ctx.parallelize([3, 4], 1)
    assert left.union(right).collect() == [1, 2, 3, 4]


def test_cartesian(ctx):
    left = ctx.parallelize([1, 2], 2)
    right = ctx.parallelize(["x", "y"], 2)
    assert sorted(left.cartesian(right).collect()) == [
        (1, "x"),
        (1, "y"),
        (2, "x"),
        (2, "y"),
    ]


# ----------------------------------------------------------------------
# Keyed / wide transformations
# ----------------------------------------------------------------------


def test_reduce_by_key(ctx):
    pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)]
    result = dict(ctx.parallelize(pairs, 3).reduce_by_key(lambda a, b: a + b).collect())
    assert result == {"a": 4, "b": 6, "c": 5}


def test_group_by_key(ctx):
    pairs = [("a", 1), ("b", 2), ("a", 3)]
    result = {k: sorted(v) for k, v in ctx.parallelize(pairs, 3).group_by_key().collect()}
    assert result == {"a": [1, 3], "b": [2]}


def test_join(ctx):
    left = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
    right = ctx.parallelize([("a", "x"), ("c", "y")], 2)
    result = sorted(left.join(right).collect())
    assert result == [("a", (1, "x")), ("a", (3, "x"))]


def test_cogroup(ctx):
    left = ctx.parallelize([("a", 1), ("a", 2)], 2)
    right = ctx.parallelize([("a", "x"), ("b", "y")], 2)
    result = {k: (sorted(l), sorted(r)) for k, (l, r) in left.cogroup(right).collect()}
    assert result == {"a": ([1, 2], ["x"]), "b": ([], ["y"])}


def test_partition_by_places_keys_deterministically(ctx):
    pairs = [(i, i) for i in range(20)]
    partitioner = HashPartitioner(4)
    rdd = ctx.parallelize(pairs, 3).partition_by(partitioner)
    parts = ctx.run_job(rdd, list)
    for split, part in enumerate(parts):
        for key, _value in part:
            assert partitioner.partition(key) == split


def test_partition_by_same_partitioner_is_noop(ctx):
    partitioner = HashPartitioner(4)
    rdd = ctx.parallelize([(1, 1)], 1).partition_by(partitioner)
    assert rdd.partition_by(HashPartitioner(4)) is rdd


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------


def test_count(ctx):
    assert ctx.parallelize(range(17), 4).count() == 17


def test_reduce(ctx):
    assert ctx.parallelize(range(1, 6), 3).reduce(lambda a, b: a * b) == 120


def test_reduce_empty_raises(ctx):
    with pytest.raises(ValueError):
        ctx.parallelize([], 1).reduce(lambda a, b: a + b)


def test_reduce_with_empty_partitions(ctx):
    # 2 elements across 4 partitions leaves empty splits; reduce must skip them.
    rdd = ctx.parallelize([5, 7], 2)
    assert rdd.reduce(lambda a, b: a + b) == 12


def test_fold_and_aggregate(ctx):
    rdd = ctx.parallelize(range(10), 4)
    assert rdd.fold(0, lambda a, b: a + b) == 45
    total, count = rdd.aggregate(
        (0, 0), lambda acc, x: (acc[0] + x, acc[1] + 1), lambda a, b: (a[0] + b[0], a[1] + b[1])
    )
    assert (total, count) == (45, 10)


def test_sum_max_min(ctx):
    rdd = ctx.parallelize([3, 1, 4, 1, 5], 2)
    assert rdd.sum() == 14
    assert rdd.max() == 5
    assert rdd.min() == 1


def test_foreach_with_accumulator(ctx):
    acc = ctx.accumulator(0)
    ctx.parallelize(range(5), 2).foreach(lambda x: acc.add(x))
    assert acc.value == 10


def test_broadcast(ctx):
    table = ctx.broadcast({1: "one", 2: "two"})
    result = ctx.parallelize([1, 2, 1], 2).map(lambda x: table.value[x]).collect()
    assert result == ["one", "two", "one"]


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


def test_cache_computes_once(ctx):
    calls = []

    def trace(x):
        calls.append(x)
        return x

    rdd = ctx.parallelize(range(5), 2).map(trace).cache()
    rdd.collect()
    rdd.collect()
    assert len(calls) == 5


def test_unpersist_recomputes(ctx):
    calls = []

    def trace(x):
        calls.append(x)
        return x

    rdd = ctx.parallelize(range(3), 1).map(trace).cache()
    rdd.collect()
    rdd.unpersist()
    rdd.collect()
    assert len(calls) == 6


def test_lazy_until_action(ctx):
    calls = []
    ctx.parallelize(range(3), 1).map(calls.append)  # no action
    assert calls == []


# ----------------------------------------------------------------------
# Partitioner preservation (no redundant shuffles on narrow lineages)
# ----------------------------------------------------------------------


def test_filter_shaped_narrow_ops_preserve_partitioner(ctx):
    partitioner = HashPartitioner(4)
    base = ctx.parallelize([(i % 8, i) for i in range(64)], 3).partition_by(
        partitioner
    )
    assert base.partitioner is partitioner
    # Record-dropping/value-rewriting ops keep keys intact, so placement
    # survives them; key-changing ops must not claim it.
    assert base.filter(lambda kv: kv[1] % 2 == 0).partitioner is partitioner
    assert base.map_values(lambda v: v + 1).partitioner is partitioner
    assert base.flat_map_values(lambda v: [v, v]).partitioner is partitioner
    assert base.map(lambda kv: kv).partitioner is None
    assert base.keys().partitioner is None


def test_partitioned_lineage_shuffles_exactly_once(ctx):
    """An RDD already hashed by an equal partitioner feeds reduce_by_key
    through narrow ops without a second shuffle: bytes move once."""
    partitioner = HashPartitioner(4)
    data = [(i % 8, i) for i in range(400)]
    snapshot = ctx.metrics.snapshot()
    placed = ctx.parallelize(data, 3).partition_by(partitioner)
    placed.count()
    first = ctx.metrics.delta_since(snapshot).shuffle_bytes
    assert first > 0
    narrowed = placed.filter(lambda kv: kv[1] % 10).map_values(lambda v: v * 2)
    reduced = narrowed.reduce_by_key(lambda a, b: a + b, num_partitions=4)
    result = dict(reduced.collect())
    delta = ctx.metrics.delta_since(snapshot)
    # Only the explicit partition_by shuffled; the reduce combined in place.
    assert delta.shuffle_bytes == first
    expected = {}
    sampled = [kv for split in range(narrowed.num_partitions)
               for kv in narrowed.iterator(split)]
    for key, value in sampled:
        expected[key] = expected.get(key, 0) + value
    assert result == expected
