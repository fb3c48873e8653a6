"""Sparse tiled matrices: CSC tiles in a distributed grid (paper §8).

The paper's future work proposes "tiled arrays where each tile is stored
in the compressed sparse column format" and claims the same layered
approach covers them.  This module delivers that claim: a
:class:`SparseTiledMatrix` is structurally a :class:`TiledMatrix` whose
tiles are :class:`~repro.storage.csc.CscMatrix` blocks, with sparsity
exploited at *both* levels:

* **block level** — all-zero tiles are simply absent from the RDD, so
  joins, reductions and replication skip them entirely;
* **tile level** — each present tile stores only its non-zeros.

The translation rules are unchanged (the paper's point): the planner
accepts these storages wherever it accepts dense tiled matrices, and the
NumPy kernels receive each tile densified on access.  What block
sparsity buys is fewer tiles shuffled and fewer per-tile kernels run;
what it costs is the densify at the kernel boundary — the tradeoff
``benchmarks`` can explore and ``tests/test_sparse_tiled.py`` validates.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from ..comprehension.errors import SacTypeError
from ..engine import EngineContext, RDD
from . import stats as density_stats
from .csc import CscMatrix
from .registry import REGISTRY, BuildContext
from .stats import DensityStats
from .tiled import TiledMatrix, distribute_blocks


class SparseTiledMatrix:
    """A matrix partitioned into a distributed grid of CSC tiles.

    Only tiles containing at least one non-zero are stored.  Tile
    coordinates and shapes follow :class:`~repro.storage.tiled.TiledMatrix`
    exactly (ragged edges included), so the two interoperate in joins.

    ``recorded_nnz`` / ``recorded_tiles`` are the density statistics the
    cost model plans with: both constructors count them for free while
    cutting tiles, so :meth:`density` and :meth:`block_density` never
    have to run a count *action* at planning time.  A matrix wrapped
    around a raw RDD (no recorded statistics) prices at the dense upper
    bound until :meth:`density` is called with ``exact=True``.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        tile_size: int,
        tiles: RDD,
        recorded_nnz: Optional[int] = None,
        recorded_tiles: Optional[int] = None,
    ):
        if rows <= 0 or cols <= 0:
            raise SacTypeError(f"matrix dimensions must be positive: {rows}x{cols}")
        if tile_size <= 0:
            raise SacTypeError(f"tile size must be positive: {tile_size}")
        self.rows = rows
        self.cols = cols
        self.tile_size = tile_size
        self.tiles = tiles
        self._recorded_nnz = recorded_nnz
        self._recorded_tiles = recorded_tiles

    # -- shape helpers -----------------------------------------------------

    @property
    def grid_rows(self) -> int:
        return math.ceil(self.rows / self.tile_size)

    @property
    def grid_cols(self) -> int:
        return math.ceil(self.cols / self.tile_size)

    def tile_shape(self, block_row: int, block_col: int) -> tuple[int, int]:
        height = min(self.tile_size, self.rows - block_row * self.tile_size)
        width = min(self.cols - block_col * self.tile_size, self.tile_size)
        return height, width

    # -- construction --------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        engine: EngineContext,
        array: np.ndarray,
        tile_size: int,
        num_partitions: Optional[int] = None,
    ) -> "SparseTiledMatrix":
        """Cut a local array into CSC tiles, dropping all-zero tiles."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise SacTypeError(f"need a 2-D array, got shape {array.shape}")
        rows, cols = array.shape
        tiles = []
        for bi in range(math.ceil(rows / tile_size)):
            for bj in range(math.ceil(cols / tile_size)):
                block = array[
                    bi * tile_size : (bi + 1) * tile_size,
                    bj * tile_size : (bj + 1) * tile_size,
                ]
                if np.any(block):
                    tiles.append(((bi, bj), CscMatrix.from_numpy(block)))
        rdd = distribute_blocks(engine, tiles, num_partitions)
        return cls(
            rows, cols, tile_size, rdd,
            recorded_nnz=sum(tile.nnz for _, tile in tiles),
            recorded_tiles=len(tiles),
        )

    @classmethod
    def from_items(
        cls,
        engine: EngineContext,
        rows: int,
        cols: int,
        tile_size: int,
        items: Iterable[tuple[tuple[int, int], Any]],
        num_partitions: Optional[int] = None,
    ) -> "SparseTiledMatrix":
        """Group an association list by tile coordinate into CSC tiles."""
        grid: dict[tuple[int, int], list[tuple[tuple[int, int], Any]]] = {}
        for (i, j), value in items:
            if not (0 <= i < rows and 0 <= j < cols) or value == 0:
                continue
            coord = (i // tile_size, j // tile_size)
            grid.setdefault(coord, []).append(
                ((i % tile_size, j % tile_size), value)
            )
        helper = cls(rows, cols, tile_size, engine.empty_rdd())
        tiles = [
            (coord, CscMatrix.from_items(*helper.tile_shape(*coord), entries))
            for coord, entries in sorted(grid.items())
        ]
        tiles = [(coord, tile) for coord, tile in tiles if tile.nnz]
        rdd = distribute_blocks(engine, tiles, num_partitions)
        return cls(
            rows, cols, tile_size, rdd,
            recorded_nnz=sum(tile.nnz for _, tile in tiles),
            recorded_tiles=len(tiles),
        )

    # -- materialization -----------------------------------------------------

    def nnz(self) -> int:
        """Total stored non-zeros across all tiles (a count action).

        The result is memoized into the recorded statistic, so a later
        :meth:`density` call reflects it."""
        self._recorded_nnz = self.tiles.map(lambda kv: kv[1].nnz).sum()
        return self._recorded_nnz

    def num_tiles(self) -> int:
        """Number of non-empty tiles (≤ grid_rows · grid_cols); an action."""
        self._recorded_tiles = self.tiles.count()
        return self._recorded_tiles

    def density(self, exact: bool = False) -> float:
        """Element-level fill ratio, from the recorded statistic.

        Never triggers a count action unless ``exact=True`` (or no
        statistic was recorded *and* ``exact`` is requested): the
        planner calls this at compile time, where launching a job to
        cost a plan would defeat the purpose.  With no recorded
        statistic the dense upper bound ``1.0`` is returned — safe for
        costing, pessimistic for display; ask for ``exact=True`` when
        the true value matters.
        """
        if exact:
            return self.nnz() / (self.rows * self.cols)
        if self._recorded_nnz is None:
            return 1.0
        return self._recorded_nnz / (self.rows * self.cols)

    def block_density(self, exact: bool = False) -> float:
        """Fraction of grid tiles stored (the statistic that scales
        shuffle volume: absent tiles never join or replicate)."""
        grid = self.grid_rows * self.grid_cols
        if exact:
            return self.num_tiles() / grid
        if self._recorded_tiles is None:
            return 1.0
        return self._recorded_tiles / grid

    @property
    def stats(self) -> DensityStats:
        """Recorded statistics in the planner's format (dense when unknown)."""
        if self._recorded_nnz is None and self._recorded_tiles is None:
            return density_stats.DENSE
        return DensityStats(self.density(), self.block_density())

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        n = self.tile_size
        for (bi, bj), tile in self.tiles.collect():
            out[bi * n : bi * n + tile.rows, bj * n : bj * n + tile.cols] = (
                tile.to_numpy()
            )
        return out

    def to_dense_tiled(self):
        """Convert to a dense :class:`TiledMatrix` (materializes zeros
        inside stored tiles; absent tiles stay absent, and the recorded
        density statistics carry over)."""
        dense = self.tiles.map_values(lambda tile: tile.to_numpy())
        out = TiledMatrix(self.rows, self.cols, self.tile_size, dense)
        out.stats = self.stats
        return out

    def sparsify(self) -> Iterator[tuple[tuple[int, int], Any]]:
        """Only stored non-zeros exist in the abstract array."""
        n = self.tile_size
        for (bi, bj), tile in self.tiles.collect():
            for (i, j), value in tile.sparsify():
                yield (bi * n + i, bj * n + j), value

    def cache(self) -> "SparseTiledMatrix":
        self.tiles.cache()
        return self

    def materialize(self) -> "SparseTiledMatrix":
        self.tiles.cache()
        self.tiles.count()
        return self

    def __repr__(self) -> str:
        return (
            f"SparseTiledMatrix({self.rows}x{self.cols}, tile={self.tile_size})"
        )


def _build_sparse_tiled(ctx: BuildContext, args: tuple, items) -> SparseTiledMatrix:
    if len(args) != 2:
        raise SacTypeError(
            "sparse_tiled(n,m) builder takes two dimension arguments"
        )
    if ctx.engine is None:
        raise SacTypeError("builder 'sparse_tiled' needs an engine context")
    return SparseTiledMatrix.from_items(
        ctx.engine, int(args[0]), int(args[1]), ctx.tile_size, items
    )


REGISTRY.register_sparsifier(SparseTiledMatrix, lambda m: m.sparsify())
REGISTRY.register_builder("sparse_tiled", _build_sparse_tiled)
