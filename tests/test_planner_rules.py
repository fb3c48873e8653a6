"""Planner tests: which rule fires, and that each rule computes correctly.

Every test asserts BOTH the selected translation rule (pinning the paper's
Section 5 behaviour) and numerical agreement with NumPy.
"""

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.engine import TINY_CLUSTER
from repro.planner import (
    RULE_COORDINATE, RULE_GROUP_BY_JOIN, RULE_LOCAL, RULE_PRESERVE_TILING,
    RULE_TILED_REDUCE, RULE_TILED_SHUFFLE,
)

RNG = np.random.default_rng(123)
N, M, K = 53, 47, 38  # deliberately not multiples of the tile size
TILE = 20

A_NP = RNG.uniform(0, 10, size=(N, M))
B_NP = RNG.uniform(0, 10, size=(N, M))
C_NP = RNG.uniform(0, 10, size=(M, K))


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=TILE)


def check(session, query, expected_rule, expected_value, **env):
    compiled = session.compile(query, **env)
    assert compiled.plan.rule == expected_rule, compiled.plan.explain()
    result = compiled.execute()
    np.testing.assert_allclose(result.to_numpy(), expected_value, rtol=1e-10)
    return compiled


# ----------------------------------------------------------------------
# 5.1 preserve tiling
# ----------------------------------------------------------------------


def test_addition_preserves_tiling(session):
    A, B = session.tiled(A_NP), session.tiled(B_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
        RULE_PRESERVE_TILING, A_NP + B_NP, A=A, B=B, n=N, m=M,
    )


def test_scalar_map_preserves_tiling(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j), 2.0*a + 1.0) | ((i,j),a) <- A ]",
        RULE_PRESERVE_TILING, 2 * A_NP + 1, A=A, n=N, m=M,
    )


def test_transpose_preserves_tiling(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]",
        RULE_PRESERVE_TILING, A_NP.T, A=A, n=N, m=M,
    )


def test_diagonal_preserves_tiling(session):
    sq = A_NP[:M, :M]
    A = session.tiled(sq)
    compiled = session.compile(
        "tiled_vector(n)[ (i,v) | ((i,j),v) <- A, i == j ]",
        A=A, n=M,
    )
    assert compiled.plan.rule == RULE_PRESERVE_TILING
    np.testing.assert_allclose(compiled.execute().to_numpy(), np.diag(sq))


def test_index_dependent_value_preserves_tiling(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j), if (i == j) v else 0.0) | ((i,j),v) <- A ]",
        RULE_PRESERVE_TILING,
        np.where(np.eye(N, M, dtype=bool), A_NP, 0.0),
        A=A, n=N, m=M,
    )


def test_value_guard_zero_fills(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j),v) | ((i,j),v) <- A, v > 5.0 ]",
        RULE_PRESERVE_TILING,
        np.where(A_NP > 5.0, A_NP, 0.0),
        A=A, n=N, m=M,
    )


def test_vector_broadcast_joins_subset_of_dims(session):
    v_np = RNG.uniform(1, 2, size=M)
    A, V = session.tiled(A_NP), session.tiled_vector(v_np)
    check(
        session,
        "tiled(n,m)[ ((i,j), a*v) | ((i,j),a) <- A, (k,v) <- V, k == j ]",
        RULE_PRESERVE_TILING, A_NP * v_np[None, :], A=A, V=V, n=N, m=M,
    )


def test_outer_product_replicates(session):
    u_np = RNG.normal(size=N)
    v_np = RNG.normal(size=M)
    U, V = session.tiled_vector(u_np), session.tiled_vector(v_np)
    check(
        session,
        "tiled(n,m)[ ((i,j), x*y) | (i,x) <- U, (j,y) <- V ]",
        RULE_PRESERVE_TILING, np.outer(u_np, v_np), U=U, V=V, n=N, m=M,
    )


def test_three_way_elementwise(session):
    A, B = session.tiled(A_NP), session.tiled(B_NP)
    C = session.tiled(2 * A_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j), a + b - c) | ((i,j),a) <- A, ((i2,j2),b) <- B,"
        " i2 == i, j2 == j, ((i3,j3),c) <- C, i3 == i, j3 == j ]",
        RULE_PRESERVE_TILING, B_NP - A_NP, A=A, B=B, C=C, n=N, m=M,
    )


def test_preserve_tiling_does_not_shuffle_elements(session):
    A, B = session.tiled(A_NP), session.tiled(B_NP)
    snap = session.metrics_snapshot()
    session.run(
        "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
        " ii == i, jj == j ]",
        A=A, B=B, n=N, m=M,
    ).to_numpy()
    delta = session.metrics_delta(snap)
    # Only whole tiles move (for the join); far fewer records than elements.
    assert delta.shuffle_records <= 2 * A.grid_rows * A.grid_cols


# ----------------------------------------------------------------------
# 5.2 tiled shuffle
# ----------------------------------------------------------------------


def test_row_rotation_shuffles_tiles(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
        RULE_TILED_SHUFFLE, np.roll(A_NP, 1, axis=0), A=A, n=N, m=M,
    )


def test_row_slice(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(n,m)[ ((i - 10, j), v) | ((i,j),v) <- A, i >= 10, i < 35 ]",
        RULE_TILED_SHUFFLE, A_NP[10:35], A=A, n=25, m=M,
    )


def test_column_shift_drops_out_of_range(session):
    A = session.tiled(A_NP)
    expected = np.zeros_like(A_NP)
    expected[:, 3:] = A_NP[:, :-3]
    check(
        session,
        "tiled(n,m)[ ((i, j + 3), v) | ((i,j),v) <- A ]",
        RULE_TILED_SHUFFLE, expected, A=A, n=N, m=M,
    )


def test_reversal(session):
    A = session.tiled(A_NP)
    check(
        session,
        "tiled(n,m)[ ((n - 1 - i, j), v) | ((i,j),v) <- A ]",
        RULE_TILED_SHUFFLE, A_NP[::-1], A=A, n=N, m=M,
    )


# ----------------------------------------------------------------------
# 5.3 tiled reduce
# ----------------------------------------------------------------------


def test_matmul_without_gbj_uses_tiled_reduce():
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=TILE,
        options=PlannerOptions(strategy="tiled-reduce"),
    )
    A, C = session.tiled(A_NP), session.tiled(C_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        RULE_TILED_REDUCE, A_NP @ C_NP, A=A, C=C, n=N, m=K,
    )


def test_row_sums_tiled_reduce(session):
    A = session.tiled(A_NP)
    compiled = session.compile(
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        A=A, n=N,
    )
    assert compiled.plan.rule == RULE_TILED_REDUCE
    np.testing.assert_allclose(compiled.execute().to_numpy(), A_NP.sum(axis=1))


def test_col_max_tiled_reduce(session):
    A = session.tiled(A_NP)
    compiled = session.compile(
        "tiled_vector(m)[ (j, max/v) | ((i,j),v) <- A, group by j ]",
        A=A, m=M,
    )
    assert compiled.plan.rule == RULE_TILED_REDUCE
    np.testing.assert_allclose(compiled.execute().to_numpy(), A_NP.max(axis=0))


def test_row_average_two_slots(session):
    A = session.tiled(A_NP)
    compiled = session.compile(
        "tiled_vector(n)[ (i, avg/v) | ((i,j),v) <- A, group by i ]",
        A=A, n=N,
    )
    assert compiled.plan.rule == RULE_TILED_REDUCE
    np.testing.assert_allclose(compiled.execute().to_numpy(), A_NP.mean(axis=1))


def test_matvec_tiled_reduce(session):
    x_np = RNG.normal(size=M)
    A, X = session.tiled(A_NP), session.tiled_vector(x_np)
    compiled = session.compile(
        "tiled_vector(n)[ (i, +/p) | ((i,j),m) <- A, (jj,v) <- X, jj == j,"
        " let p = m*v, group by i ]",
        A=A, X=X, n=N,
    )
    assert compiled.plan.rule == RULE_TILED_REDUCE
    np.testing.assert_allclose(compiled.execute().to_numpy(), A_NP @ x_np)


# ----------------------------------------------------------------------
# 5.4 group-by-join
# ----------------------------------------------------------------------


def test_matmul_group_by_join(session):
    A, C = session.tiled(A_NP), session.tiled(C_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        RULE_GROUP_BY_JOIN, A_NP @ C_NP, A=A, C=C, n=N, m=K,
    )


def test_matmul_nt_group_by_join(session):
    A, B = session.tiled(A_NP), session.tiled(B_NP)
    check(
        session,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((j,kk),b) <- B,"
        " kk == k, let v = a*b, group by (i,j) ]",
        RULE_GROUP_BY_JOIN, A_NP @ B_NP.T, A=A, B=B, n=N, m=N,
    )


def test_matmul_tn_group_by_join(session):
    A, B = session.tiled(A_NP), session.tiled(B_NP)
    check(
        session,
        "tiled(n,m)[ ((j,k),+/v) | ((i,j),a) <- A, ((ii,k),b) <- B,"
        " ii == i, let v = a*b, group by (j,k) ]",
        RULE_GROUP_BY_JOIN, A_NP.T @ B_NP, A=A, B=B, n=M, m=M,
    )


def test_gbj_min_plus_semiring(session):
    """The rules are oblivious to linear algebra: a min-plus 'product'
    (shortest-path step) compiles through the same group-by-join."""
    d1 = RNG.uniform(0, 10, size=(30, 30))
    D = session.tiled(d1)
    compiled = session.compile(
        "tiled(n,n)[ ((i,j), min/c) | ((i,k),a) <- D, ((kk,j),b) <- D2,"
        " kk == k, let c = a + b, group by (i,j) ]",
        D=D, D2=D, n=30,
    )
    assert compiled.plan.rule == RULE_GROUP_BY_JOIN
    expected = np.min(d1[:, :, None] + d1[None, :, :], axis=1)
    np.testing.assert_allclose(compiled.execute().to_numpy(), expected)


def test_gbj_disabled_by_option():
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=TILE,
        options=PlannerOptions(strategy="tiled-reduce"),
    )
    A, C = session.tiled(A_NP), session.tiled(C_NP)
    compiled = session.compile(
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        A=A, C=C, n=N, m=K,
    )
    assert compiled.plan.rule == RULE_TILED_REDUCE


# ----------------------------------------------------------------------
# Coordinate fallback and local plans
# ----------------------------------------------------------------------


def test_coordinate_strategy_pin():
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=TILE,
        options=PlannerOptions(strategy="coordinate"),
    )
    small_a, small_c = A_NP[:12, :10], C_NP[:10, :8]
    A, C = session.tiled(small_a), session.tiled(small_c)
    check(
        session,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        RULE_COORDINATE, small_a @ small_c, A=A, C=C, n=12, m=8,
    )


def test_rdd_builder_goes_coordinate(session):
    pairs = session.rdd([((i, j), float(i + j)) for i in range(4) for j in range(3)])
    compiled = session.compile(
        "rdd[ (i, +/v) | ((i,j),v) <- P, group by i ]", P=pairs
    )
    assert compiled.plan.rule == RULE_COORDINATE
    result = dict(compiled.execute().collect())
    assert result == {0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0}


def test_smoothing_falls_back(session):
    a = RNG.uniform(0, 10, size=(7, 8))
    A = session.tiled(a)
    compiled = session.compile(
        "tiled(n,m)[ ((ii,jj), (+/v) / count/v) | ((i,j),v) <- A,"
        " ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),"
        " ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
        A=A, n=7, m=8,
    )
    assert compiled.plan.rule in (RULE_COORDINATE, RULE_LOCAL)
    result = compiled.execute().to_numpy()
    assert np.isclose(result[1, 1], a[0:3, 0:3].mean())
    assert np.isclose(result[0, 0], a[0:2, 0:2].mean())


def test_local_inputs_use_local_plan(session):
    from repro.planner import RULE_LOCAL_BATCH
    from repro.storage import DenseMatrix

    compiled = session.compile(
        "matrix(2,2)[ ((i,j), v+1.0) | ((i,j),v) <- D ]",
        D=DenseMatrix.zeros(2, 2),
    )
    assert compiled.plan.rule == RULE_LOCAL_BATCH
    np.testing.assert_allclose(compiled.execute().data, np.ones((2, 2)))


def test_total_reduction_distributed(session):
    A = session.tiled(A_NP)
    compiled = session.compile("+/[ v | ((i,j),v) <- A ]", A=A)
    assert compiled.plan.rule == RULE_COORDINATE
    assert np.isclose(compiled.execute(), A_NP.sum())


def test_bare_comprehension_collects(session):
    V = session.tiled_vector(np.array([1.0, 2.0, 3.0]))
    compiled = session.compile("[ (i, v*2.0) | (i,v) <- V ]", V=V)
    assert compiled.plan.rule == RULE_COORDINATE
    assert sorted(compiled.execute()) == [(0, 2.0), (1, 4.0), (2, 6.0)]


# ----------------------------------------------------------------------
# Plan structure / explain
# ----------------------------------------------------------------------


def test_explain_mentions_rule(session):
    A, B = session.tiled(A_NP), session.tiled(B_NP)
    report = session.explain(
        "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
        " ii == i, jj == j ]",
        A=A, B=B, n=N, m=M,
    )
    assert "preserve-tiling" in report
    assert "query:" in report


def test_plans_are_lazy_until_executed(session):
    A = session.tiled(A_NP)
    snap = session.metrics_snapshot()
    session.compile(
        "tiled(n,m)[ ((i,j), v*2.0) | ((i,j),v) <- A ]", A=A, n=N, m=M
    )
    delta = session.metrics_delta(snap)
    assert delta.tasks == 0  # compile alone runs nothing


def test_mixed_tile_sizes_rejected(session):
    from repro.comprehension.errors import SacPlanError
    from repro.storage import TiledMatrix

    A = session.tiled(A_NP)
    B = TiledMatrix.from_numpy(session.engine, B_NP, tile_size=TILE + 1)
    with pytest.raises(SacPlanError):
        session.compile(
            "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
            " ii == i, jj == j ]",
            A=A, B=B, n=N, m=M,
        )


def test_shuffle_with_same_generator_equality(session):
    """Regression: a residual ``i == j`` in a non-preserving query must
    mask per-element axes, not collapse them (the classes unify but the
    variables still read different axes)."""
    sq = A_NP[:40, :40]
    A = session.tiled(sq)
    compiled = session.compile(
        "tiled(n,m)[ ((i + 1, j), v) | ((i,j),v) <- A, i == j ]",
        A=A, n=41, m=40,
    )
    assert compiled.plan.rule == RULE_TILED_SHUFFLE
    expected = np.zeros((41, 40))
    for x in range(40):
        expected[x + 1, x] = sq[x, x]
    np.testing.assert_allclose(compiled.execute().to_numpy(), expected)


def test_builder_dims_clip_result(session):
    """The declared builder dimensions clip the result, like the paper's
    builders clip out-of-range indices — even when the traversed input
    is larger."""
    A = session.tiled(A_NP)  # 53 x 47
    small = session.run(
        "tiled(n,m)[ ((i,j), v) | ((i,j),v) <- A ]", A=A, n=30, m=25
    )
    assert (small.rows, small.cols) == (30, 25)
    np.testing.assert_allclose(small.to_numpy(), A_NP[:30, :25])


def test_builder_dims_clip_vector_result(session):
    A = session.tiled(A_NP)
    sums = session.run(
        "tiled_vector(n)[ (i, +/v) | ((i,j),v) <- A, group by i ]",
        A=A, n=15,
    )
    assert sums.length == 15
    np.testing.assert_allclose(sums.to_numpy(), A_NP.sum(axis=1)[:15])
