"""Error paths and edge cases across the stack."""

import numpy as np
import pytest

from repro import SacSession
from repro.comprehension import (
    SacNameError, SacPlanError, SacSyntaxError, SacTypeError,
)
from repro.engine import EngineContext, ThreadedTaskRunner, TINY_CLUSTER


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=8)


# ----------------------------------------------------------------------
# Session-level errors
# ----------------------------------------------------------------------


def test_syntax_error_propagates(session):
    with pytest.raises(SacSyntaxError):
        session.run("[ v | (i,v <- V ]", V=[])


def test_unknown_builder(session):
    with pytest.raises(SacTypeError):
        session.run("frobnicate(3)[ (i, v) | (i,v) <- V ]", V=[(0, 1.0)])


def test_unbound_variable(session):
    with pytest.raises(SacNameError):
        session.run("[ v + w | (i,v) <- V ]", V=[(0, 1.0)])


def test_unknown_monoid_in_reduction(session):
    with pytest.raises(SacSyntaxError):
        # 'weird/' is not a reduction; 'weird' then '/v' is division of an
        # unbound name -> but the parse of `weird/[..]` is division by a
        # comprehension, which fails at evaluation with a type error.
        session.run("weird/", V=[])


def test_empty_query_rejected(session):
    with pytest.raises(SacSyntaxError):
        session.run("", V=[])


def test_builder_wrong_arity(session):
    with pytest.raises(SacTypeError):
        session.run("matrix(3)[ ((i,j),v) | ((i,j),v) <- M ]", M=[((0, 0), 1.0)])


@pytest.mark.parametrize("strategy", [None, "coordinate"])
@pytest.mark.parametrize("query,builder,arities", [
    ("tiled_vector(4)[ ((i,j), v) | ((i,j),v) <- A ]", "tiled_vector", "1.*2"),
    ("tiled(4,4)[ (i, x) | (i,x) <- V ]", "tiled", "2.*1"),
])
def test_head_key_unlike_the_builder_is_a_plan_error(
    query, builder, arities, strategy
):
    from repro.planner import PlannerOptions

    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=2,
        options=PlannerOptions(strategy=strategy),
    )
    env = dict(
        A=session.tiled(np.ones((4, 4))), V=session.tiled_vector(np.ones(4))
    )
    with pytest.raises(SacPlanError, match=f"^{builder} .*{arities}"):
        session.compile(query, env)


# ----------------------------------------------------------------------
# Empty and degenerate inputs
# ----------------------------------------------------------------------


def test_empty_tiled_query(session):
    A = session.tiled(np.zeros((4, 4)))
    result = session.run(
        "tiled(n,m)[ ((i,j), v * 2.0) | ((i,j),v) <- A ]", A=A, n=4, m=4
    )
    np.testing.assert_allclose(result.to_numpy(), np.zeros((4, 4)))


def test_one_by_one_matrix(session):
    A = session.tiled(np.array([[7.0]]))
    result = session.run(
        "tiled(n,m)[ ((i,j), v + 1.0) | ((i,j),v) <- A ]", A=A, n=1, m=1
    )
    assert result.to_numpy()[0, 0] == 8.0


def test_tile_size_larger_than_matrix(session):
    big_tile = SacSession(cluster=TINY_CLUSTER, tile_size=100)
    a = np.arange(6.0).reshape(2, 3)
    A = big_tile.tiled(a)
    assert A.grid_rows == 1 and A.grid_cols == 1
    result = big_tile.run(
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]", A=A, n=2, m=3
    )
    np.testing.assert_allclose(result.to_numpy(), a.T)


def test_guard_filters_everything(session):
    A = session.tiled(np.ones((4, 4)))
    result = session.run(
        "tiled(n,m)[ ((i,j),v) | ((i,j),v) <- A, v > 100.0 ]", A=A, n=4, m=4
    )
    np.testing.assert_allclose(result.to_numpy(), np.zeros((4, 4)))


def test_group_by_without_aggregation_collects(session):
    # Lifted variable used raw: the interpreter handles it (no
    # distributed plan exists for collect-the-group).
    result = session.interpret(
        "[ (i, v) | (i,v) <- L, group by i ]",
        L=[(0, "a"), (0, "b"), (1, "c")],
    )
    assert result == [(0, ["a", "b"]), (1, ["c"])]


def test_reduction_over_empty_comprehension(session):
    assert session.run("+/[ v | (i,v) <- V ]", V=[]) == 0
    assert session.run("&&/[ v | (i,v) <- V ]", V=[]) is True


def test_negative_indices_clipped_by_builder(session):
    result = session.run(
        "matrix(2,2)[ ((i - 1, j), v) | ((i,j),v) <- L ]",
        L=[((0, 0), 5.0), ((1, 1), 7.0)],
    )
    # (0,0) maps to (-1,0): clipped.  (1,1) maps to (0,1).
    assert result.get(0, 1) == 7.0
    assert np.count_nonzero(result.data) == 1


# ----------------------------------------------------------------------
# Engine edges
# ----------------------------------------------------------------------


def test_threaded_runner_matches_serial():
    serial = EngineContext(cluster=TINY_CLUSTER)
    threaded = EngineContext(
        cluster=TINY_CLUSTER,
        runner=ThreadedTaskRunner(max_workers=4),
    )
    data = [(i % 5, i) for i in range(200)]
    expected = sorted(
        serial.parallelize(data, 8).reduce_by_key(lambda a, b: a + b).collect()
    )
    actual = sorted(
        threaded.parallelize(data, 8).reduce_by_key(lambda a, b: a + b).collect()
    )
    assert actual == expected


def test_zero_partitions_rejected():
    from repro.engine.rdd import RDD

    ctx = EngineContext(cluster=TINY_CLUSTER)
    with pytest.raises(ValueError):
        RDD(ctx, 0)


def test_deeply_chained_narrow_ops():
    ctx = EngineContext(cluster=TINY_CLUSTER)
    rdd = ctx.parallelize(range(10), 2)
    for _ in range(200):
        rdd = rdd.map(lambda x: x + 1)
    assert rdd.collect() == [x + 200 for x in range(10)]


def test_engine_union_of_empty():
    ctx = EngineContext(cluster=TINY_CLUSTER)
    left = ctx.parallelize([], 1)
    right = ctx.parallelize([1], 1)
    assert left.union(right).collect() == [1]


# ----------------------------------------------------------------------
# Planner edges
# ----------------------------------------------------------------------


def test_post_group_guard_runs_on_interpreter(session):
    A = session.tiled(np.arange(16.0).reshape(4, 4))
    # A guard after the group-by is not planned distributed; the session
    # falls back to the (correct) local plan.
    result = session.run(
        "[ (i, +/v) | ((i,j),v) <- A, group by i, +/v > 20.0 ]", A=A
    )
    expected = [
        (i, s) for i, s in enumerate(np.arange(16.0).reshape(4, 4).sum(axis=1))
        if s > 20.0
    ]
    assert [(i, v) for i, v in result] == expected


def test_dimension_mismatch_surfaces(session):
    A = session.tiled(np.ones((4, 4)))
    B = session.tiled(np.ones((5, 5)))
    with pytest.raises(SacPlanError):
        session.run(
            "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
            " ii == i, jj == j ]",
            A=A, B=B, n=4, m=4,
        )


def test_explain_before_any_execution(session):
    A = session.tiled(np.ones((4, 4)))
    report = session.explain(
        "tiled_vector(n)[ (i, +/v) | ((i,j),v) <- A, group by i ]",
        A=A, n=4,
    )
    assert "tiled-reduce" in report
    assert "reduceByKey" in report
