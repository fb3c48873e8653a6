"""Tests for extensions beyond the paper: concat ops and broadcast joins."""

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.core import ops
from repro.engine import TINY_CLUSTER

RNG = np.random.default_rng(123)


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=10)


# ----------------------------------------------------------------------
# Concatenation
# ----------------------------------------------------------------------


def test_vstack_aligned(session):
    a = RNG.uniform(0, 9, size=(20, 10))
    b = RNG.uniform(0, 9, size=(30, 10))
    result = ops.vstack(session, session.tiled(a), session.tiled(b))
    np.testing.assert_allclose(result.to_numpy(), np.vstack([a, b]))


def test_vstack_ragged_seam(session):
    # a.rows not a multiple of the tile size: the seam tile receives
    # elements from both inputs.
    a = RNG.uniform(0, 9, size=(15, 13))
    b = RNG.uniform(0, 9, size=(22, 13))
    result = ops.vstack(session, session.tiled(a), session.tiled(b))
    np.testing.assert_allclose(result.to_numpy(), np.vstack([a, b]))


def test_hstack(session):
    a = RNG.uniform(0, 9, size=(15, 13))
    b = RNG.uniform(0, 9, size=(15, 8))
    result = ops.hstack(session, session.tiled(a), session.tiled(b))
    np.testing.assert_allclose(result.to_numpy(), np.hstack([a, b]))


def test_stack_shape_validation(session):
    a = session.tiled(np.ones((4, 4)))
    b = session.tiled(np.ones((4, 5)))
    with pytest.raises(ValueError):
        ops.vstack(session, a, b)
    c = session.tiled(np.ones((5, 4)))
    with pytest.raises(ValueError):
        ops.hstack(session, a, c)


def test_stacked_result_composes(session):
    """Concatenated matrices join like any other tiled matrix."""
    a = RNG.uniform(0, 9, size=(12, 9))
    b = RNG.uniform(0, 9, size=(13, 9))
    stacked = ops.vstack(session, session.tiled(a), session.tiled(b))
    sums = ops.row_sums(session, stacked)
    np.testing.assert_allclose(
        sums.to_numpy(), np.vstack([a, b]).sum(axis=1), rtol=1e-10
    )


# ----------------------------------------------------------------------
# Broadcast group-by-join
# ----------------------------------------------------------------------

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


def broadcast_session(side):
    return SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(strategy=f"gbj-broadcast-{side}"),
    )


def test_broadcast_join_small_right_side():
    session = broadcast_session("right")
    a = RNG.uniform(0, 9, size=(60, 40))
    b = RNG.uniform(0, 9, size=(40, 10))  # 4x1 grid: broadcastable
    A, B = session.tiled(a), session.tiled(b)
    compiled = session.compile(MULTIPLY, A=A, B=B, n=60, m=10)
    assert "broadcast" in compiled.plan.description
    np.testing.assert_allclose(compiled.execute().to_numpy(), a @ b, rtol=1e-10)


def test_broadcast_join_small_left_side():
    session = broadcast_session("left")
    a = RNG.uniform(0, 9, size=(10, 40))  # small side is the left one
    b = RNG.uniform(0, 9, size=(40, 120))
    A, B = session.tiled(a), session.tiled(b)
    compiled = session.compile(MULTIPLY, A=A, B=B, n=10, m=120)
    assert "broadcast" in compiled.plan.description
    assert compiled.plan.details.get("broadcast_side") == "left"
    np.testing.assert_allclose(compiled.execute().to_numpy(), a @ b, rtol=1e-10)


def test_cost_model_may_broadcast_by_default(session):
    # With no strategy pinned the planner is cost-based and free to
    # broadcast the tiny right side; the estimates must be attached.
    a = RNG.uniform(0, 9, size=(60, 40))
    b = RNG.uniform(0, 9, size=(40, 10))
    A, B = session.tiled(a), session.tiled(b)
    compiled = session.compile(MULTIPLY, A=A, B=B, n=60, m=10)
    assert compiled.plan.estimate is not None
    assert compiled.plan.details["strategy"] in compiled.plan.candidates
    np.testing.assert_allclose(compiled.execute().to_numpy(), a @ b, rtol=1e-10)


def test_broadcast_join_transposed_form():
    session = broadcast_session("right")
    p = RNG.uniform(0, 9, size=(80, 10))
    q = RNG.uniform(0, 9, size=(60, 10))
    P, Q = session.tiled(p), session.tiled(q)
    compiled = session.compile(
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),x) <- P, ((j,kk),y) <- Q,"
        " kk == k, let v = x*y, group by (i,j) ]",
        P=P, Q=Q, n=80, m=60,
    )
    np.testing.assert_allclose(compiled.execute().to_numpy(), p @ q.T, rtol=1e-10)


def test_broadcast_join_shuffles_less_than_summa():
    a = RNG.uniform(0, 9, size=(60, 40))
    b = RNG.uniform(0, 9, size=(40, 10))

    # Pin the SUMMA strategy: by default the cost model would also
    # choose the broadcast here.
    summa = SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(strategy="gbj-replicate"),
    )
    A1, B1 = summa.tiled(a), summa.tiled(b)
    summa.run(MULTIPLY, A=A1, B=B1, n=60, m=10).tiles.count()

    broadcast = broadcast_session("right")
    A2, B2 = broadcast.tiled(a), broadcast.tiled(b)
    broadcast.run(MULTIPLY, A=A2, B=B2, n=60, m=10).tiles.count()

    assert (
        broadcast.engine.metrics.total.shuffle_bytes
        < summa.engine.metrics.total.shuffle_bytes
    )


def test_sacmatrix_stack_methods(session):
    a = RNG.uniform(0, 9, size=(8, 6))
    b = RNG.uniform(0, 9, size=(5, 6))
    A = session.matrix(a)
    B = session.matrix(b)
    np.testing.assert_allclose(A.vstack(B).to_numpy(), np.vstack([a, b]))
    c = RNG.uniform(0, 9, size=(8, 3))
    np.testing.assert_allclose(
        A.hstack(session.matrix(c)).to_numpy(), np.hstack([a, c])
    )


def test_job_metrics_summary_text(session):
    A = session.tiled(RNG.uniform(0, 9, size=(20, 20)))
    session.run("+/[ v | ((i,j),v) <- A ]", A=A)
    text = session.engine.metrics.total.summary()
    assert "stages" in text and "shuffles" in text
