"""Ablation E7 — CSC-tiled sparse storage vs dense tiles (paper §8).

The paper's future-work extension, built in ``repro.storage.sparse_tiled``:
tiles in compressed sparse column format, with all-zero tiles absent from
the distributed collection.  This ablation multiplies a block-sparse
matrix (10 % of tiles non-empty) by a dense one, comparing dense-tiled
and CSC-tiled representations of the same input.  Block sparsity should
cut shuffled tiles and per-tile kernels roughly by the block density.

The **density sweep** at the bottom varies the block density of a banded
multiply and records which strategy the cost-based planner picks at each
point: with the recorded density statistic the default flips away from
SUMMA replication on sparse bands and returns to it as the band widens
to dense, with a forced-replication arm alongside for the byte cost of
not flipping.
"""

import numpy as np
import pytest

from conftest import plan_report, run_measured

from repro import PlannerOptions, SacSession
from repro.engine import BENCH_CLUSTER
from repro.planner import STRATEGY_REPLICATE
from repro.workloads import dense_uniform

TILE = 40
SIZES = [160, 320, 480]
ROUNDS = 2
BLOCK_DENSITY = 0.12

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


def block_sparse_array(n, seed):
    """A matrix where ~12 % of the tiles carry data and the rest are zero."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, n))
    grid = n // TILE
    for bi in range(grid):
        for bj in range(grid):
            if rng.random() < BLOCK_DENSITY:
                out[
                    bi * TILE : (bi + 1) * TILE, bj * TILE : (bj + 1) * TILE
                ] = rng.uniform(1, 2, size=(TILE, TILE))
    if not out.any():
        out[:TILE, :TILE] = 1.0
    return out


@pytest.mark.parametrize("n", SIZES)
def test_multiply_dense_tiles(benchmark, measure, n):
    record, run_measured = measure
    a = block_sparse_array(n, seed=n)
    b = dense_uniform(n, n, seed=n + 1)
    session = SacSession(tile_size=TILE)
    A = session.tiled(a).materialize()
    B = session.tiled(b).materialize()

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-sparse", "dense tiles", n, wall, sim, shuffled, counters)


@pytest.mark.parametrize("n", SIZES)
def test_multiply_sparse_tiles(benchmark, measure, n):
    record, run_measured = measure
    a = block_sparse_array(n, seed=n)
    b = dense_uniform(n, n, seed=n + 1)
    session = SacSession(tile_size=TILE)
    A = session.sparse_tiled(a).materialize()
    B = session.tiled(b).materialize()

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-sparse", "CSC tiles (block-sparse)", n, wall, sim, shuffled, counters)


def test_sparse_and_dense_agree():
    n = SIZES[0]
    a = block_sparse_array(n, seed=n)
    b = dense_uniform(n, n, seed=n + 1)
    session = SacSession(tile_size=TILE)
    dense = session.run(
        MULTIPLY, A=session.tiled(a), B=session.tiled(b), n=n, m=n
    ).to_numpy()
    sparse = session.run(
        MULTIPLY, A=session.sparse_tiled(a), B=session.tiled(b), n=n, m=n
    ).to_numpy()
    np.testing.assert_allclose(dense, sparse, rtol=1e-10)
    np.testing.assert_allclose(dense, a @ b, rtol=1e-10)


# ----------------------------------------------------------------------
# Density sweep: where does the planner flip away from replication?
# ----------------------------------------------------------------------

SWEEP_N = 720
SWEEP_TILE = 45
SWEEP_GRID = SWEEP_N // SWEEP_TILE
#: Stored tiles per grid row: 1 = block diagonal (6 % block density),
#: widening to fully dense.  The flip happens at the sparse end.
SWEEP_BANDS = [1, 4, 16]
SWEEP_ROUNDS = 2


def banded_array(n, tile, band, seed):
    """``band`` dense tiles per grid row, wrapping cyclically."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, n))
    grid = n // tile
    for bi in range(grid):
        for k in range(band):
            bj = (bi + k) % grid
            out[bi * tile : (bi + 1) * tile, bj * tile : (bj + 1) * tile] = (
                rng.uniform(1, 2, size=(tile, tile))
            )
    return out


def _sweep_run(band, options):
    # One partition per stored tile, as on the paper's cluster: the flip
    # weighs map-side parallelism, which the CSC bytes alone would cut to
    # a partition or two.
    session = SacSession(
        cluster=BENCH_CLUSTER, tile_size=SWEEP_TILE, options=options,
        num_partitions=BENCH_CLUSTER.default_parallelism(),
    )
    A = session.sparse_tiled(banded_array(SWEEP_N, SWEEP_TILE, band, seed=1))
    B = session.sparse_tiled(banded_array(SWEEP_N, SWEEP_TILE, band, seed=2))
    A.materialize(), B.materialize()
    compiled = session.compile(MULTIPLY, A=A, B=B, n=SWEEP_N, m=SWEEP_N)

    def run():
        compiled.execute().tiles.count()

    wall, sim, shuffled, counters = run_measured(
        session.engine, run, repeats=SWEEP_ROUNDS
    )
    counters.update(plan_report(compiled))
    return compiled, wall, sim, shuffled, counters


@pytest.mark.parametrize("band", SWEEP_BANDS)
def test_density_sweep_cost_based_default(measure, band):
    record, _ = measure
    compiled, wall, sim, shuffled, counters = _sweep_run(band, None)
    block_density_pct = round(100 * band / SWEEP_GRID)
    record(
        "ablation-sparse-density", "cost-based default",
        block_density_pct, wall, sim, shuffled, counters,
    )
    # The smoke contract: sparse bands flip off replication, dense stays.
    strategy = compiled.plan.details["strategy"]
    if band == 1:
        assert strategy != STRATEGY_REPLICATE
    assert "priced_densities" in compiled.plan.details


@pytest.mark.parametrize("band", SWEEP_BANDS)
def test_density_sweep_forced_replicate(measure, band):
    record, _ = measure
    compiled, wall, sim, shuffled, counters = _sweep_run(
        band, PlannerOptions(strategy="gbj-replicate")
    )
    assert compiled.plan.details["strategy"] == STRATEGY_REPLICATE
    record(
        "ablation-sparse-density", "forced replicate",
        round(100 * band / SWEEP_GRID), wall, sim, shuffled, counters,
    )
