"""Tests for the engine's set operations and streaming statistics."""

import pytest

from repro.engine import EngineContext, TINY_CLUSTER
from repro.engine.rdd import StatCounter


@pytest.fixture()
def ctx():
    return EngineContext(cluster=TINY_CLUSTER)


# ----------------------------------------------------------------------
# Set operations
# ----------------------------------------------------------------------


def test_subtract_by_key(ctx):
    left = ctx.parallelize([("a", 1), ("b", 2), ("c", 3)], 2)
    right = ctx.parallelize([("b", 99)], 1)
    assert sorted(left.subtract_by_key(right).collect()) == [("a", 1), ("c", 3)]


def test_subtract(ctx):
    left = ctx.parallelize([1, 2, 2, 3, 4], 2)
    right = ctx.parallelize([2, 4], 1)
    assert sorted(left.subtract(right).collect()) == [1, 3]


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------


def test_stats(ctx):
    data = [1.0, 2.0, 3.0, 4.0]
    stats = ctx.parallelize(data, 3).stats()
    assert stats.count == 4
    assert stats.mean == 2.5
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert abs(stats.variance - 1.25) < 1e-12


def test_stats_partition_invariant(ctx):
    data = [float(x) for x in range(100)]
    one = ctx.parallelize(data, 1).stats()
    many = ctx.parallelize(data, 7).stats()
    assert one.count == many.count
    assert abs(one.mean - many.mean) < 1e-9
    assert abs(one.variance - many.variance) < 1e-9


def test_stat_counter_merge_empty():
    a = StatCounter()
    b = StatCounter().add(5.0)
    assert a.merge(b).count == 1
    assert StatCounter().add(3.0).merge(StatCounter()).count == 1
