"""Every processor grid is the same matrix.

The 5.4 SUMMA plan replicates tile bands to a ``p_r × p_c`` grid of
cells the cost model chooses.  Here the grid is pinned by calling the
emitter directly — every ``(p_r, p_c)`` of a 5×4×3-tile product — and
each must produce the product: bit-equal on integer-valued data (to
NumPy, to the 5.3 plan and so to each other), within ``rtol=1e-9`` on
floats (a band GEMM sums over ``k`` inside BLAS), on ragged edges, on
block-sparse operands whose empty cells emit nothing, and for a
non-BLAS monoid through the per-pair path.
"""

import itertools

import numpy as np
import pytest

from repro import SacSession
from repro.engine import TINY_CLUSTER, SerialTaskRunner
from repro.planner import PlannerOptions
from repro.planner.groupby_join import emit_replicate
from repro.planner.kernels import band_gemm
from repro.planner.lower import lower

from .test_lowering_tree import _state

RNG = np.random.default_rng(23)
TILE = 10
GRID_ROWS, GRID_JOIN, GRID_COLS = 5, 4, 3
GRIDS = list(itertools.product(range(1, GRID_ROWS + 1), range(1, GRID_COLS + 1)))

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
MULTIPLY_NT = (
    "tiled(n,m)[ ((i,j),+/v) | ((k,i),a) <- A, ((j,kk),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
MAX_PLUS = (
    "tiled(n,m)[ ((i,j),max/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a+b, group by (i,j) ]"
)

INT_A = RNG.integers(-4, 5, size=(50, 40)).astype(float)
INT_B = RNG.integers(-4, 5, size=(40, 30)).astype(float)
FLOAT_A = RNG.uniform(size=(50, 40))
FLOAT_B = RNG.uniform(size=(40, 30))


def _session(strategy="gbj-replicate"):
    return SacSession(
        cluster=TINY_CLUSTER, tile_size=TILE,
        options=PlannerOptions(strategy=strategy),
        runner=SerialTaskRunner(),
    )


def _run_on_grid(session, query, grid, a, b, sparse=False):
    """``query`` through the SUMMA emitter pinned to ``grid``."""
    bind = session.sparse_tiled if sparse else session.tiled
    env = dict(A=bind(a), B=bind(b), n=a.shape[0], m=b.shape[1])
    if query is MULTIPLY_NT:
        env.update(A=bind(a.T.copy()), B=bind(b.T.copy()))
    state = _state(session, query, env)
    assert (state.match.grid_rows, state.match.grid_join, state.match.grid_cols) == (
        -(-a.shape[0] // TILE), -(-a.shape[1] // TILE), -(-b.shape[1] // TILE)
    )
    state.physical = emit_replicate(
        state.setup, state.match, state.builder, state.args, grid
    )
    return lower(state).execute()


@pytest.fixture(scope="module")
def tiled_reduce_product():
    with _session("tiled-reduce") as session:
        return session.run(
            MULTIPLY, A=session.tiled(INT_A), B=session.tiled(INT_B), n=50, m=30
        ).to_numpy()


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_integer_data_is_bit_equal_on_every_grid(
    grid, tiled_reduce_product, monkeypatch
):
    band_calls = []

    def counted(left, right):
        band_calls.append(len(left))
        return band_gemm(left, right)

    monkeypatch.setattr("repro.planner.lower.band_gemm", counted)
    expected = INT_A @ INT_B
    assert tiled_reduce_product.tobytes() == expected.tobytes()
    with _session() as session:
        result = _run_on_grid(session, MULTIPLY, grid, INT_A, INT_B).to_numpy()
        total = session.engine.metrics.total
    assert result.tobytes() == expected.tobytes()
    # One band GEMM per cell — except a cell of one destination tile,
    # whose tile GEMMs a concatenated one would not beat.
    def tiles_per_cell(grid_size, cells):
        return [
            sum(1 for i in range(grid_size) if i * cells // grid_size == c)
            for c in range(cells)
        ]

    assert len(band_calls) == sum(
        1
        for r in tiles_per_cell(GRID_ROWS, grid[0])
        for c in tiles_per_cell(GRID_COLS, grid[1])
        if r * c > 1
    )
    # One replica of an A-tile per column cell, of a B-tile per row cell.
    assert total.shuffle_records == 20 * grid[1] + 12 * grid[0]
    if grid == (GRID_ROWS, GRID_COLS):
        # One destination tile per cell is the per-destination replication
        # of commit a9d0f9a; these are the counters it recorded, except
        # tasks 16 -> 32: each operand is one partition now, not four, and
        # the reduce side is one partition per cell (15), not one per
        # simulated core (4).
        assert (
            total.stages, total.tasks, total.shuffle_records, total.shuffle_bytes
        ) == (4, 32, 120, 102480)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_floats_ragged_edges_and_transposed_operands(grid):
    with _session() as session:
        result = _run_on_grid(session, MULTIPLY, grid, FLOAT_A, FLOAT_B)
        np.testing.assert_allclose(
            result.to_numpy(), FLOAT_A @ FLOAT_B, rtol=1e-9, atol=0.0
        )
        a, b = FLOAT_A[:47, :38], FLOAT_B[:38, :26]
        ragged = _run_on_grid(session, MULTIPLY, grid, a, b)
        np.testing.assert_allclose(ragged.to_numpy(), a @ b, rtol=1e-9, atol=0.0)
        shapes = {key: tile.shape for key, tile in ragged.tiles.collect()}
        assert shapes[(4, 2)] == (7, 6) and shapes[(0, 0)] == (TILE, TILE)
        flipped = _run_on_grid(session, MULTIPLY_NT, grid, a, b)
        np.testing.assert_allclose(flipped.to_numpy(), a @ b, rtol=1e-9, atol=0.0)


def _block_sparse(matrix, keep):
    out = np.zeros_like(matrix)
    for bi, bj in keep:
        rows = slice(bi * TILE, (bi + 1) * TILE)
        cols = slice(bj * TILE, (bj + 1) * TILE)
        out[rows, cols] = matrix[rows, cols]
    return out


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_absent_blocks_contract_per_pair_and_empty_cells_emit_nothing(grid):
    # Rows 0-1 of A only meet column 0 of B; row 4 of A is absent; rows
    # 2-3 meet nothing B stores.  Fine grids get cells with no stored pair.
    a_blocks = [(0, 0), (1, 0), (1, 1), (2, 3), (3, 3)]
    b_blocks = [(0, 0), (1, 0), (2, 1), (2, 2)]
    a = _block_sparse(INT_A + 5.0, a_blocks)
    b = _block_sparse(INT_B + 5.0, b_blocks)
    with _session() as session:
        result = _run_on_grid(session, MULTIPLY, grid, a, b, sparse=True)
        emitted = sorted(key for key, _tile in result.tiles.collect())
        product = result.to_numpy()
    assert emitted == [(0, 0), (1, 0)]
    assert product.tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
def test_non_blas_monoid_takes_the_per_pair_path(grid, monkeypatch):
    def no_band(*_args):
        raise AssertionError("max/(a+b) is not a matrix product")

    monkeypatch.setattr("repro.planner.lower.band_gemm", no_band)
    expected = (FLOAT_A[:, :, None] + FLOAT_B[None, :, :]).max(axis=1)
    with _session() as session:
        result = _run_on_grid(session, MAX_PLUS, grid, FLOAT_A, FLOAT_B)
        assert result.to_numpy().tobytes() == expected.tobytes()


def test_band_gemm_declines_incomplete_or_duplicated_grids():
    tile = np.ones((2, 2))
    left = [(0, 0, tile), (0, 1, tile), (1, 0, tile), (1, 1, tile)]
    right = [(0, 0, tile), (1, 0, tile)]
    ((key, product),) = band_gemm(left[:2], right)
    assert key == (0, 0) and product.tolist() == [[4.0, 4.0], [4.0, 4.0]]
    assert len(band_gemm(left, right)) == 2
    assert band_gemm(left[:3], right) is None  # a block of A is absent
    assert band_gemm(left, right[:1]) is None  # B lacks a k that A has
    assert band_gemm(left[:2] + left[:1], right) is None  # a tile twice
