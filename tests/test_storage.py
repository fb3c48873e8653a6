"""Tests for the storage layer: sparsifiers, builders, and the registry."""

import numpy as np
import pytest

from repro.comprehension.errors import SacTypeError
from repro.engine import EngineContext, TINY_CLUSTER
from repro.storage import (
    CooMatrix, CooVector, CsrMatrix, DenseMatrix, DenseVector, REGISTRY,
    TiledMatrix, TiledVector,
)
from repro.storage.registry import BuildContext, StorageRegistry


@pytest.fixture()
def engine():
    return EngineContext(cluster=TINY_CLUSTER)


# ----------------------------------------------------------------------
# Dense
# ----------------------------------------------------------------------


def test_dense_vector_sparsify_roundtrip():
    v = DenseVector(np.array([1.0, 2.0, 3.0]))
    items = list(v.sparsify())
    assert items == [(0, 1.0), (1, 2.0), (2, 3.0)]
    rebuilt = DenseVector.from_items(3, items)
    assert rebuilt == v


def test_dense_vector_builder_clips_out_of_range():
    v = DenseVector.from_items(2, [(0, 1.0), (5, 9.0), (-1, 9.0)])
    np.testing.assert_allclose(v.data, [1.0, 0.0])


def test_dense_matrix_row_major_flat_layout():
    m = DenseMatrix.from_numpy(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(m.flat, [1.0, 2.0, 3.0, 4.0])
    assert m.get(1, 0) == 3.0


def test_dense_matrix_data_view_shares_buffer():
    m = DenseMatrix.zeros(2, 2)
    m.data[0, 1] = 7.0
    assert m.flat[1] == 7.0


def test_dense_matrix_sparsify_order():
    m = DenseMatrix.from_numpy(np.array([[1.0, 2.0], [3.0, 4.0]]))
    keys = [k for k, _ in m.sparsify()]
    assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_dense_matrix_rejects_wrong_buffer_size():
    with pytest.raises(SacTypeError):
        DenseMatrix(2, 2, np.zeros(3))


def test_dense_matrix_builder_clips():
    m = DenseMatrix.from_items(2, 2, [((0, 0), 1.0), ((9, 9), 5.0)])
    assert m.get(0, 0) == 1.0
    assert np.count_nonzero(m.flat) == 1


# ----------------------------------------------------------------------
# COO
# ----------------------------------------------------------------------


def test_coo_drops_zeros_and_clips():
    coo = CooMatrix.from_items(2, 2, [((0, 0), 0.0), ((1, 1), 3.0), ((5, 5), 1.0)])
    assert coo.nnz == 1
    assert coo.get(1, 1) == 3.0
    assert coo.get(0, 0) == 0


def test_coo_density():
    coo = CooMatrix.from_items(2, 2, [((0, 0), 1.0)])
    assert coo.density() == 0.25


def test_coo_from_numpy_roundtrip():
    a = np.array([[0.0, 1.0], [2.0, 0.0]])
    coo = CooMatrix.from_numpy(a)
    np.testing.assert_allclose(coo.to_numpy(), a)


def test_coo_vector():
    v = CooVector.from_items(5, [(1, 2.0), (3, 0.0)])
    assert v.nnz == 1
    assert v.get(1) == 2.0
    assert v.get(3) == 0
    assert list(v.sparsify()) == [(1, 2.0)]


def test_coo_holds_sorted_read_only_columns():
    a = np.random.default_rng(5).integers(-2, 3, size=(9, 7))  # many zeros
    coo = CooMatrix.from_numpy(a)
    assert coo.nnz == np.count_nonzero(a)
    np.testing.assert_array_equal(coo.to_numpy(), a)
    keys = list(zip(coo.row_index.tolist(), coo.col_index.tolist()))
    assert keys == sorted(keys) == [key for key, _ in coo.sparsify()]
    # Integer input keeps integer values, element for element.
    assert coo.values.dtype == a.dtype
    assert all(type(value) is int for _, value in coo.sparsify())
    for column in (coo.row_index, coo.col_index, coo.values):
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(TypeError):
        coo.entries[(0, 0)] = 1
    assert dict(coo.entries) == dict(coo.sparsify())
    assert coo.get(*keys[0]) == a[keys[0]] and coo.get(8, 6) == a[8, 6]


def test_coo_from_items_last_writer_wins_and_sorts():
    items = [((2, 1), 5.0), ((0, 3), 1.0), ((2, 1), 7.0), ((0, 0), 0.0), ((2, 1), 0.0)]
    coo = CooMatrix.from_items(3, 4, items)
    # The explicit zeros are dropped (one of them a *later* duplicate).
    assert list(coo.sparsify()) == [((0, 3), 1.0), ((2, 1), 7.0)]
    v = CooVector.from_items(4, [(3, 1), (1, 2), (3, 9), (7, 1)])
    assert list(v.sparsify()) == [(1, 2), (3, 9)]
    assert v.values.dtype.kind == "i" and dict(v.entries) == {1: 2, 3: 9}


def test_coo_still_constructs_from_a_dict():
    coo = CooMatrix(3, 3, {(2, 2): 4.0, (0, 1): 2.0})
    assert list(coo.sparsify()) == [((0, 1), 2.0), ((2, 2), 4.0)]
    assert repr(coo) == "CooMatrix(3x3, nnz=2)"
    assert coo.density() == 2 / 9
    np.testing.assert_array_equal(coo.to_numpy(), [[0, 2, 0], [0, 0, 0], [0, 0, 4]])
    # Values NumPy has no numeric dtype for are kept as they are.
    odd = CooMatrix(2, 2, {(1, 0): "x", (0, 0): (1, 2)})
    assert list(odd.sparsify()) == [((0, 0), (1, 2)), ((1, 0), "x")]
    assert CooMatrix(2, 2, {}).nnz == 0 and CooVector(2, {}).nnz == 0
    assert repr(CooVector(4, {3: 1.5})) == "CooVector(length=4, nnz=1)"


# ----------------------------------------------------------------------
# CSR
# ----------------------------------------------------------------------


def test_csr_structure():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    csr = CsrMatrix.from_numpy(a)
    assert csr.nnz == 3
    assert list(csr.indptr) == [0, 2, 2, 3]
    np.testing.assert_allclose(csr.to_numpy(), a)


def test_csr_get_and_row():
    a = np.array([[0.0, 5.0], [7.0, 0.0]])
    csr = CsrMatrix.from_numpy(a)
    assert csr.get(0, 1) == 5.0
    assert csr.get(0, 0) == 0
    cols, values = csr.row(1)
    assert list(cols) == [0] and list(values) == [7.0]


def test_csr_sparsify_row_order():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    keys = [k for k, _ in CsrMatrix.from_numpy(a).sparsify()]
    assert keys == [(0, 1), (1, 0), (1, 1)]


def test_csr_rejects_inconsistent_indptr():
    with pytest.raises(SacTypeError):
        CsrMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))


# ----------------------------------------------------------------------
# Tiled
# ----------------------------------------------------------------------


def test_tiled_matrix_grid_shape(engine):
    t = TiledMatrix.from_numpy(engine, np.ones((25, 33)), tile_size=10)
    assert (t.grid_rows, t.grid_cols) == (3, 4)
    assert t.tile_shape(2, 3) == (5, 3)  # ragged edges
    assert t.num_tiles() == 12


def test_tiled_matrix_roundtrip(engine):
    a = np.arange(35.0).reshape(5, 7)
    t = TiledMatrix.from_numpy(engine, a, tile_size=3)
    np.testing.assert_allclose(t.to_numpy(), a)


def test_tiled_matrix_sparsify_matches_dense(engine):
    a = np.arange(6.0).reshape(2, 3)
    t = TiledMatrix.from_numpy(engine, a, tile_size=2)
    assert dict(t.sparsify()) == {
        (i, j): a[i, j] for i in range(2) for j in range(3)
    }


def test_tiled_matrix_from_items(engine):
    items = [((0, 0), 1.0), ((4, 6), 2.0), ((9, 9), 99.0)]  # last clipped
    t = TiledMatrix.from_items(engine, 5, 7, 3, items)
    dense = t.to_numpy()
    assert dense[0, 0] == 1.0 and dense[4, 6] == 2.0
    assert dense.sum() == 3.0


def test_tiled_vector_roundtrip(engine):
    v = np.arange(11.0)
    t = TiledVector.from_numpy(engine, v, tile_size=4)
    assert t.grid_size == 3
    assert t.block_length(2) == 3
    np.testing.assert_allclose(t.to_numpy(), v)


def test_tiled_vector_from_items(engine):
    t = TiledVector.from_items(engine, 5, 2, [(0, 1.0), (4, 2.0)])
    np.testing.assert_allclose(t.to_numpy(), [1.0, 0.0, 0.0, 0.0, 2.0])


def test_tiled_rejects_bad_dims(engine):
    with pytest.raises(SacTypeError):
        TiledMatrix(0, 5, 2, engine.empty_rdd())
    with pytest.raises(SacTypeError):
        TiledMatrix.from_numpy(engine, np.ones(3), 2)


def test_tiled_materialize_cuts_lineage(engine):
    t = TiledMatrix.from_numpy(engine, np.ones((4, 4)), 2)
    chained = TiledMatrix(4, 4, 2, t.tiles.map_values(lambda x: x + 1))
    chained.materialize()
    np.testing.assert_allclose(chained.to_numpy(), 2 * np.ones((4, 4)))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_knows_all_builtin_storages():
    for value in [
        DenseVector(np.zeros(2)),
        DenseMatrix.zeros(2, 2),
        CooMatrix(2, 2, {}),
        CooVector(2, {}),
        CsrMatrix.from_numpy(np.zeros((2, 2))),
        np.zeros(3),
    ]:
        assert REGISTRY.is_storage(value)


def test_registry_builders():
    ctx = BuildContext()
    v = REGISTRY.build("vector", (3,), [(0, 1.0)], ctx)
    assert isinstance(v, DenseVector)
    m = REGISTRY.build("matrix", (2, 2), [((1, 1), 4.0)], ctx)
    assert isinstance(m, DenseMatrix) and m.get(1, 1) == 4.0
    raw = REGISTRY.build("array", (4,), [(2, 7.0)], ctx)
    assert isinstance(raw, np.ndarray) and raw[2] == 7.0
    assert REGISTRY.build("list", (), [(0, 1)], ctx) == [(0, 1)]


def test_registry_unknown_builder_raises():
    with pytest.raises(SacTypeError):
        REGISTRY.build("nope", (), [], BuildContext())


def test_registry_unknown_sparsifier_raises():
    with pytest.raises(SacTypeError):
        list(REGISTRY.sparsify(object()))


def test_tiled_builder_requires_engine():
    with pytest.raises(SacTypeError):
        REGISTRY.build("tiled", (2, 2), [], BuildContext(engine=None))


def test_custom_storage_registration(engine):
    """The paper's extensibility claim: a new storage participates by
    registering a sparsifier and a builder — nothing else changes."""

    class DiagonalMatrix:
        def __init__(self, diag):
            self.diag = diag

    registry = StorageRegistry()
    registry.register_sparsifier(
        DiagonalMatrix,
        lambda m: (((i, i), v) for i, v in enumerate(m.diag)),
    )
    registry.register_builder(
        "diag",
        lambda ctx, args, items: DiagonalMatrix(
            [dict((k[0], v) for k, v in items if k[0] == k[1]).get(i, 0.0)
             for i in range(int(args[0]))]
        ),
    )
    d = DiagonalMatrix([1.0, 2.0])
    assert list(registry.sparsify(d)) == [((0, 0), 1.0), ((1, 1), 2.0)]
    built = registry.build("diag", (2,), [((0, 0), 5.0), ((0, 1), 9.0)])
    assert built.diag == [5.0, 0.0]


def test_sparsifier_inherited_by_subclass():
    class FancyVector(DenseVector):
        pass

    fancy = FancyVector(np.array([1.0]))
    assert REGISTRY.is_storage(fancy)
    assert list(REGISTRY.sparsify(fancy)) == [(0, 1.0)]


def test_tiled_save_load_roundtrip(engine, tmp_path):
    a = np.arange(77.0).reshape(7, 11)
    t = TiledMatrix.from_numpy(engine, a, tile_size=4)
    path = str(tmp_path / "matrix.npz")
    t.save(path)
    loaded = TiledMatrix.load(engine, path)
    assert (loaded.rows, loaded.cols, loaded.tile_size) == (7, 11, 4)
    np.testing.assert_allclose(loaded.to_numpy(), a)


def test_tiled_load_rejects_foreign_archive(engine, tmp_path):
    path = str(tmp_path / "other.npz")
    np.savez(path, data=np.ones(3))
    with pytest.raises(SacTypeError):
        TiledMatrix.load(engine, path)
