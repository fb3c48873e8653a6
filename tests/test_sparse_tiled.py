"""Tests for CSC matrices and sparse tiled matrices (paper Section 8)."""

import numpy as np
import pytest

from repro import SacSession
from repro.comprehension.errors import SacTypeError
from repro.engine import EngineContext, TINY_CLUSTER
from repro.planner import (
    RULE_COORDINATE, RULE_GROUP_BY_JOIN, RULE_PRESERVE_TILING,
    RULE_TILED_REDUCE,
)
from repro.storage import REGISTRY, CscMatrix, DensityStats, SparseTiledMatrix
from repro.workloads import rating_matrix

RNG = np.random.default_rng(99)
TILE = 16


def sparse_array(rows, cols, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(1, 5, size=(rows, cols))
    return np.where(rng.random((rows, cols)) < density, values, 0.0)


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=TILE)


@pytest.fixture()
def engine():
    return EngineContext(cluster=TINY_CLUSTER)


# ----------------------------------------------------------------------
# CscMatrix
# ----------------------------------------------------------------------


def test_csc_structure():
    a = np.array([[1.0, 0.0], [2.0, 3.0], [0.0, 0.0]])
    csc = CscMatrix.from_numpy(a)
    assert csc.nnz == 3
    assert list(csc.indptr) == [0, 2, 3]  # 2 entries in col 0, 1 in col 1
    rows, values = csc.column(0)
    assert list(rows) == [0, 1] and list(values) == [1.0, 2.0]


def test_csc_roundtrip():
    a = sparse_array(13, 9, seed=1)
    np.testing.assert_allclose(CscMatrix.from_numpy(a).to_numpy(), a)


def test_csc_get():
    a = np.array([[0.0, 5.0], [7.0, 0.0]])
    csc = CscMatrix.from_numpy(a)
    assert csc.get(0, 1) == 5.0
    assert csc.get(1, 1) == 0


def test_csc_sparsify_column_order():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    keys = [k for k, _ in CscMatrix.from_numpy(a).sparsify()]
    assert keys == [(1, 0), (0, 1), (1, 1)]


def test_csc_density():
    csc = CscMatrix.from_items(4, 5, [((0, 0), 1.0), ((1, 1), 2.0)])
    assert csc.density() == 2 / 20


def test_csc_rejects_bad_indptr():
    with pytest.raises(SacTypeError):
        CscMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))


def test_csc_registered_as_storage():
    csc = CscMatrix.from_numpy(np.eye(3))
    assert REGISTRY.is_storage(csc)
    assert dict(REGISTRY.sparsify(csc)) == {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}


def test_csc_builder():
    built = REGISTRY.build("csc", (2, 2), [((0, 1), 3.0)])
    assert isinstance(built, CscMatrix)
    assert built.get(0, 1) == 3.0


def test_csc_in_local_comprehension(session):
    a = sparse_array(10, 8, seed=2)
    result = session.run(
        "csc(n,m)[ ((i,j), 2.0*v) | ((i,j),v) <- M ]",
        M=CscMatrix.from_numpy(a), n=10, m=8,
    )
    np.testing.assert_allclose(result.to_numpy(), 2 * a)


# ----------------------------------------------------------------------
# SparseTiledMatrix structure
# ----------------------------------------------------------------------


def test_sparse_tiled_drops_empty_tiles(engine):
    a = np.zeros((40, 40))
    a[0, 0] = 1.0  # only the (0, 0) tile is non-empty
    t = SparseTiledMatrix.from_numpy(engine, a, TILE)
    assert t.num_tiles() == 1
    assert t.grid_rows == 3 and t.grid_cols == 3


def test_sparse_tiled_roundtrip(engine):
    a = sparse_array(37, 29, seed=3)
    t = SparseTiledMatrix.from_numpy(engine, a, TILE)
    np.testing.assert_allclose(t.to_numpy(), a)


def test_sparse_tiled_nnz_and_density(engine):
    a = sparse_array(32, 32, density=0.1, seed=4)
    t = SparseTiledMatrix.from_numpy(engine, a, TILE)
    assert t.nnz() == np.count_nonzero(a)
    assert np.isclose(t.density(), np.count_nonzero(a) / a.size)


def test_sparse_tiled_from_items(engine):
    items = [((0, 0), 1.0), ((20, 25), 2.0), ((5, 5), 0.0)]
    t = SparseTiledMatrix.from_items(engine, 30, 30, TILE, items)
    dense = t.to_numpy()
    assert dense[0, 0] == 1.0 and dense[20, 25] == 2.0
    assert t.nnz() == 2  # the explicit zero is dropped


def test_sparse_tiled_sparsify_only_nonzeros(engine):
    a = np.zeros((20, 20))
    a[3, 4], a[17, 2] = 5.0, 7.0
    t = SparseTiledMatrix.from_numpy(engine, a, TILE)
    assert dict(t.sparsify()) == {(3, 4): 5.0, (17, 2): 7.0}


def test_sparse_to_dense_tiled(engine):
    a = sparse_array(20, 20, seed=5)
    t = SparseTiledMatrix.from_numpy(engine, a, TILE)
    np.testing.assert_allclose(t.to_dense_tiled().to_numpy(), a)


# ----------------------------------------------------------------------
# Planner integration
# ----------------------------------------------------------------------

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


def test_sparse_times_dense_uses_gbj(session):
    a = sparse_array(40, 35, density=0.15, seed=6)
    b = RNG.uniform(0, 1, size=(35, 25))
    A = session.sparse_tiled(a)
    B = session.tiled(b)
    compiled = session.compile(MULTIPLY, A=A, B=B, n=40, m=25)
    assert compiled.plan.rule == RULE_GROUP_BY_JOIN
    np.testing.assert_allclose(compiled.execute().to_numpy(), a @ b, rtol=1e-10)


def test_sparse_times_sparse(session):
    a = sparse_array(30, 30, density=0.1, seed=7)
    b = sparse_array(30, 30, density=0.1, seed=8)
    A, B = session.sparse_tiled(a), session.sparse_tiled(b)
    result = session.run(MULTIPLY, A=A, B=B, n=30, m=30)
    np.testing.assert_allclose(result.to_numpy(), a @ b, rtol=1e-10)


def test_sparse_row_sums_tiled_reduce(session):
    a = sparse_array(40, 30, seed=9)
    A = session.sparse_tiled(a)
    compiled = session.compile(
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        A=A, n=40,
    )
    assert compiled.plan.rule == RULE_TILED_REDUCE
    np.testing.assert_allclose(compiled.execute().to_numpy(), a.sum(axis=1))


def test_block_sparsity_skips_tiles(session):
    """A block-diagonal sparse matrix must shuffle far fewer tiles than
    its dense counterpart in the same multiplication."""
    n = 64
    a = np.zeros((n, n))
    for start in range(0, n, TILE):
        a[start:start + TILE, start:start + TILE] = RNG.uniform(
            1, 2, size=(TILE, TILE)
        )
    dense_session = SacSession(cluster=TINY_CLUSTER, tile_size=TILE)
    D = dense_session.tiled(a)
    D2 = dense_session.tiled(a)
    dense_session.run(MULTIPLY, A=D, B=D2, n=n, m=n).tiles.count()
    dense_shuffled = dense_session.engine.metrics.total.shuffle_records

    sparse_session = SacSession(cluster=TINY_CLUSTER, tile_size=TILE)
    S = sparse_session.sparse_tiled(a)
    S2 = sparse_session.sparse_tiled(a)
    result = sparse_session.run(MULTIPLY, A=S, B=S2, n=n, m=n)
    np.testing.assert_allclose(result.to_numpy(), a @ a, rtol=1e-10)
    sparse_shuffled = sparse_session.engine.metrics.total.shuffle_records

    assert sparse_shuffled < dense_shuffled / 2


def test_non_annihilating_query_falls_back(session):
    """``min/`` over a sparse source is unsound to densify: the planner
    must take the coordinate path, which sees only stored entries."""
    a = np.zeros((20, 20))
    a[0, 0], a[0, 5] = 5.0, 3.0
    A = session.sparse_tiled(a)
    compiled = session.compile(
        "tiled_vector(n)[ (i, min/v) | ((i,j),v) <- A, group by i ]",
        A=A, n=20,
    )
    assert compiled.plan.rule == RULE_COORDINATE
    result = compiled.execute().to_numpy()
    # min over *stored* values of row 0 is 3.0, not 0.0.
    assert result[0] == 3.0


def test_elementwise_on_sparse_falls_back(session):
    """``v + 1`` maps zero to one: dense-tile treatment would be wrong,
    so no tiled rule may fire."""
    a = np.zeros((20, 20))
    a[2, 3] = 5.0
    A = session.sparse_tiled(a)
    compiled = session.compile(
        "tiled(n,m)[ ((i,j), v + 1.0) | ((i,j),v) <- A ]",
        A=A, n=20, m=20,
    )
    assert compiled.plan.rule == RULE_COORDINATE
    result = compiled.execute().to_numpy()
    assert result[2, 3] == 6.0
    assert result[0, 0] == 0.0  # absent elements stay absent (builder zero)


def test_sparse_total_sum(session):
    a = sparse_array(25, 25, seed=10)
    A = session.sparse_tiled(a)
    assert np.isclose(session.run("+/[ v | ((i,j),v) <- A ]", A=A), a.sum())


def test_sparse_tiled_builder_in_query(session):
    a = sparse_array(20, 20, seed=11)
    A = session.tiled(a)
    result = session.run(
        "sparse_tiled(n,m)[ ((i,j), v) | ((i,j),v) <- A, v > 2.0 ]",
        A=A, n=20, m=20,
    )
    assert isinstance(result, SparseTiledMatrix)
    np.testing.assert_allclose(result.to_numpy(), np.where(a > 2.0, a, 0.0))


# ----------------------------------------------------------------------
# Recorded density statistics
# ----------------------------------------------------------------------


def test_density_is_free_of_jobs(session):
    """density()/block_density() must read the recorded statistic, not
    launch a count action."""
    a = sparse_array(40, 40, density=0.08, seed=20)
    A = session.sparse_tiled(a)
    before = session.metrics_snapshot()
    d = A.density()
    bd = A.block_density()
    _ = A.stats
    delta = session.metrics_delta(before)
    assert delta.stages == 0 and delta.tasks == 0
    assert d == np.count_nonzero(a) / a.size
    assert 0 < bd <= 1.0


def test_density_exact_path_runs_and_memoizes(session):
    a = sparse_array(40, 40, density=0.08, seed=21)
    # A raw wrapper has no recorded statistics: dense bound until exact.
    A = session.sparse_tiled(a)
    raw = SparseTiledMatrix(40, 40, TILE, A.tiles)
    assert raw.density() == 1.0
    assert raw.block_density() == 1.0
    assert raw.stats.is_dense
    exact = raw.density(exact=True)
    assert exact == np.count_nonzero(a) / a.size
    # The exact pass memoizes into the recorded statistic.
    assert raw.density() == exact
    assert not raw.stats.is_dense


def test_recorded_block_density_value(session):
    n = 64  # 4x4 grid at TILE=16, two stored tiles
    a = np.zeros((n, n))
    a[0, 0], a[40, 40] = 1.0, 2.0
    A = session.sparse_tiled(a)
    assert A.block_density() == 2 / 16
    assert A.stats == DensityStats(2 / (n * n), 2 / 16)


def test_transpose_on_sparse_preserves_tiling_and_stats(session):
    """An annihilating single-generator map over a sparse source is
    sound to run on dense tiles, and the stats carry through exactly."""
    a = sparse_array(40, 30, density=0.1, seed=22)
    A = session.sparse_tiled(a)
    compiled = session.compile(
        "tiled(m,n)[ ((j,i), 2.0*v) | ((i,j),v) <- A ]",
        A=A, n=40, m=30,
    )
    assert compiled.plan.rule == RULE_PRESERVE_TILING
    result = compiled.execute()
    np.testing.assert_allclose(result.to_numpy(), 2 * a.T)
    assert result.stats.density == pytest.approx(A.density())


def test_add_on_sparse_carries_union_bound(session):
    """Addition of two density-annotated tiled matrices (a sparse pair
    handed to the dense rules via to_dense_tiled) propagates the union
    bound onto the result storage."""
    a = sparse_array(32, 32, density=0.1, seed=23)
    b = sparse_array(32, 32, density=0.1, seed=24)
    A = session.sparse_tiled(a).to_dense_tiled()
    B = session.sparse_tiled(b).to_dense_tiled()
    result = session.run(
        "tiled(n,m)[ ((i,j), x + y) | ((i,j),x) <- A, ((i2,j2),y) <- B,"
        " i2 == i, j2 == j ]",
        A=A, B=B, n=32, m=32,
    )
    bound = result.stats
    assert bound.density <= min(1.0, A.stats.density + B.stats.density) + 1e-12
    true_density = np.count_nonzero(result.to_numpy()) / (32 * 32)
    assert bound.density >= true_density - 1e-12


def test_factorization_with_sparse_ratings(session):
    """The Figure 4.C workload with R held sparse end to end."""
    from repro.linalg import sac_factorization_step
    from repro.workloads import factor_matrix

    r_np = rating_matrix(32, density=0.10, seed=12)
    p_np = factor_matrix(32, 6, seed=13)
    q_np = factor_matrix(32, 6, seed=14)
    # E = R - P Qᵀ via ops works because subtraction joins at element
    # level on the coordinate path for sparse R; here we only check the
    # multiply steps, which are the sparse-relevant ones.
    R = session.sparse_tiled(r_np)
    Q = session.tiled(q_np)
    rq = session.run(MULTIPLY, A=R, B=Q, n=32, m=6)
    np.testing.assert_allclose(rq.to_numpy(), r_np @ q_np, rtol=1e-10)
