"""Tests for shuffle accounting, the cost model, and partitioners."""

import numpy as np
import pytest

from repro.engine import (
    EngineContext,
    GridPartitioner,
    HashPartitioner,
    TINY_CLUSTER,
    ClusterSpec,
    portable_hash,
)
from repro.engine.serialization import estimate_record_size, estimate_size


@pytest.fixture()
def ctx():
    return EngineContext(cluster=TINY_CLUSTER)


# ----------------------------------------------------------------------
# Size estimation
# ----------------------------------------------------------------------


def test_estimate_size_numpy_dominated_by_buffer():
    arr = np.zeros((100, 100))
    assert abs(estimate_size(arr) - arr.nbytes) <= 64


def test_estimate_size_primitives():
    assert estimate_size(1) == 8
    assert estimate_size(1.5) == 8
    assert estimate_size(True) == 1
    assert estimate_size(None) == 1


def test_estimate_size_containers_sum_recursively():
    assert estimate_size((1, 2.0)) == 2 + 8 + 8
    assert estimate_size([1, 2, 3]) == 8 + 24
    assert estimate_size({"ab": 1}) == 8 + (2 + 4) + 8


def test_estimate_size_fallback_for_custom_class():
    class Point:
        def __init__(self):
            self.x = 1

    assert estimate_size(Point()) > 0


def test_record_size_adds_envelope():
    assert estimate_record_size(1) == 8 + 8


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------


def test_portable_hash_stable_for_strings():
    # FNV-1a of "abc" must not vary run to run.
    assert portable_hash("abc") == portable_hash("abc")
    assert portable_hash("abc") != portable_hash("abd")


def test_portable_hash_tuples_recursive():
    assert portable_hash((1, "a")) == portable_hash((1, "a"))
    assert portable_hash((1, "a")) != portable_hash(("a", 1))


def test_hash_partitioner_range():
    partitioner = HashPartitioner(7)
    for key in [0, 1, "x", (3, 4), -5]:
        assert 0 <= partitioner.partition(key) < 7


def test_hash_partitioner_rejects_nonpositive():
    with pytest.raises(ValueError):
        HashPartitioner(0)


def test_partitioner_equality():
    assert HashPartitioner(4) == HashPartitioner(4)
    assert HashPartitioner(4) != HashPartitioner(5)


def test_grid_partitioner_covers_grid():
    grid = GridPartitioner(10, 10, 8)
    seen = {grid.partition((i, j)) for i in range(10) for j in range(10)}
    assert seen <= set(range(grid.num_partitions))
    assert len(seen) > 1


def test_grid_partitioner_neighbours_colocate():
    grid = GridPartitioner(100, 100, 4)
    # Adjacent blocks in the same sub-grid square share a partition.
    assert grid.partition((0, 0)) == grid.partition((0, 1))


def test_grid_partitioner_out_of_range_key_hashes():
    grid = GridPartitioner(4, 4, 4)
    assert 0 <= grid.partition((100, 100)) < grid.num_partitions


def test_grid_partitioner_rejects_bad_dims():
    with pytest.raises(ValueError):
        GridPartitioner(0, 5, 2)


# ----------------------------------------------------------------------
# Shuffle metrics
# ----------------------------------------------------------------------


def test_reduce_by_key_shuffles_combiners_not_records(ctx):
    # 1000 records, 2 keys, 4 map partitions: map-side combining sends at
    # most keys*partitions combiners across the network.
    pairs = [(i % 2, 1) for i in range(1000)]
    ctx.parallelize(pairs, 4).reduce_by_key(lambda a, b: a + b).collect()
    assert ctx.metrics.total.shuffle_records <= 8


def test_group_by_key_shuffles_every_record(ctx):
    pairs = [(i % 2, 1) for i in range(1000)]
    ctx.parallelize(pairs, 4).group_by_key().collect()
    assert ctx.metrics.total.shuffle_records == 1000


def test_reduce_by_key_beats_group_by_key_on_bytes():
    pairs = [(i % 4, float(i)) for i in range(2000)]

    ctx_reduce = EngineContext(cluster=TINY_CLUSTER)
    ctx_reduce.parallelize(pairs, 8).reduce_by_key(lambda a, b: a + b).collect()

    ctx_group = EngineContext(cluster=TINY_CLUSTER)
    (
        ctx_group.parallelize(pairs, 8)
        .group_by_key()
        .map_values(sum)
        .collect()
    )

    assert ctx_reduce.metrics.total.shuffle_bytes < ctx_group.metrics.total.shuffle_bytes / 10


def test_narrow_ops_do_not_shuffle(ctx):
    ctx.parallelize(range(100), 4).map(lambda x: x + 1).filter(lambda x: x > 5).collect()
    assert ctx.metrics.total.shuffles == 0
    assert ctx.metrics.total.shuffle_bytes == 0


def test_pre_partitioned_reduce_avoids_shuffle(ctx):
    partitioner = HashPartitioner(4)
    base = ctx.parallelize([(i % 8, 1) for i in range(100)], 4).partition_by(partitioner)
    base.cache().collect()
    before = ctx.metrics.total.shuffle_bytes
    base.reduce_by_key(lambda a, b: a + b, partitioner=partitioner).collect()
    assert ctx.metrics.total.shuffle_bytes == before


def test_cogroup_skips_shuffle_for_copartitioned_side(ctx):
    partitioner = HashPartitioner(4)
    left = ctx.parallelize([(i, i) for i in range(50)], 4).partition_by(partitioner).cache()
    left.collect()
    right = ctx.parallelize([(i, -i) for i in range(50)], 4)
    before = ctx.metrics.total.shuffle_records
    left.cogroup(right, num_partitions=4).collect()
    moved = ctx.metrics.total.shuffle_records - before
    assert moved == 50  # only the right side moved


def test_shuffle_bytes_scale_with_payload(ctx):
    small = EngineContext(cluster=TINY_CLUSTER)
    big = EngineContext(cluster=TINY_CLUSTER)
    small.parallelize([(0, np.zeros(10))], 1).group_by_key().collect()
    big.parallelize([(0, np.zeros(10000))], 1).group_by_key().collect()
    assert big.metrics.total.shuffle_bytes > 100 * small.metrics.total.shuffle_bytes


def test_job_history_recorded(ctx):
    rdd = ctx.parallelize(range(10), 2)
    rdd.count()
    rdd.collect()
    assert len(ctx.metrics.jobs) == 2
    assert ctx.metrics.jobs[0].description == "count"
    assert all(j.wall_seconds >= 0 for j in ctx.metrics.jobs)


def test_metrics_snapshot_delta(ctx):
    rdd = ctx.parallelize([(1, 1), (2, 2)], 2)
    rdd.reduce_by_key(lambda a, b: a + b).collect()
    snap = ctx.metrics.snapshot()
    rdd.group_by_key().collect()
    delta = ctx.metrics.delta_since(snap)
    assert delta.shuffles == 1
    assert delta.shuffle_records == 2


def test_metrics_reset(ctx):
    ctx.parallelize(range(10), 2).count()
    ctx.metrics.reset()
    assert ctx.metrics.total.tasks == 0
    assert ctx.metrics.jobs == []


def test_simulated_time_monotone_in_shuffle_bytes():
    slow_net = ClusterSpec(network_bandwidth=1e6)
    ctx1 = EngineContext(cluster=slow_net)
    ctx1.parallelize([(0, np.zeros(100000))], 1).group_by_key().collect()
    with_shuffle = ctx1.simulated_time()

    ctx2 = EngineContext(cluster=slow_net)
    ctx2.parallelize([(0, np.zeros(100000))], 1).map_values(lambda v: v).collect()
    without_shuffle = ctx2.simulated_time()

    assert with_shuffle > without_shuffle


def test_simulated_time_charges_task_overhead():
    spec = ClusterSpec(num_nodes=1, executors_per_node=1, cores_per_executor=1,
                       task_launch_overhead=0.5)
    ctx = EngineContext(cluster=spec)
    ctx.parallelize(range(8), 4).collect()
    assert ctx.simulated_time() >= 0.5 * 4


def test_cluster_spec_properties():
    spec = ClusterSpec(num_nodes=4, executors_per_node=2, cores_per_executor=11)
    assert spec.num_executors == 8
    assert spec.total_cores == 88
    assert spec.default_parallelism() == 88


