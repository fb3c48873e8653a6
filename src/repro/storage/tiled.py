"""Distributed block arrays: tiled matrices and block vectors (Section 5).

A :class:`TiledMatrix` is the paper's

.. code-block:: scala

    case class Tiled[T](rows: Long, cols: Long,
                        tiles: RDD[((Long, Long), Array[T])])

— a distributed bag of non-overlapping dense tiles, keyed by tile
coordinates.  Element ``(i, j)`` lives in tile ``(i // N, j // N)`` at
local offset ``(i % N, j % N)``.  Tiles are NumPy arrays; edge tiles are
*ragged* (smaller than N×N) rather than zero-padded, matching MLlib's
``BlockMatrix`` so the baseline and SAC operate on identical layouts.

The sparsifiers/builders registered here are the reference (collecting)
implementations used by the local interpreter; the planner never calls
them on the distributed path — it pattern-matches tiled sources and
generates block-level RDD plans instead (Sections 5.1–5.4).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from ..comprehension.errors import SacTypeError
from ..engine import EngineContext, RDD
from ..engine.batch import TileBatch
from ..engine.rdd import ParallelCollectionRDD
from .registry import REGISTRY, BuildContext


def _raw(part: Iterable) -> Any:
    """A partition as a job result: a tile batch as it is, else a list."""
    return part if type(part) is TileBatch else list(part)


def distribute_blocks(
    engine: EngineContext, blocks: list, num_partitions: Optional[int]
) -> RDD:
    """``(key, block)`` records as an RDD of ``num_partitions``
    partitions, or as many as their block bytes ask for."""
    nbytes = sum(block.nbytes for _key, block in blocks)
    return engine.parallelize(
        blocks,
        num_partitions or engine.cluster.partitions_for(nbytes, len(blocks)),
    )


class TiledMatrix:
    """A matrix partitioned into a distributed grid of dense tiles."""

    #: Optional :class:`~repro.storage.stats.DensityStats` the planner
    #: propagated onto this result (a dense-tiled matrix can still have
    #: *absent* tiles when it was produced from sparse inputs — block
    #: density tracks that).  ``None`` means "no information": the cost
    #: model prices it at the dense upper bound.
    stats = None

    def __init__(self, rows: int, cols: int, tile_size: int, tiles: RDD):
        if rows <= 0 or cols <= 0:
            raise SacTypeError(f"matrix dimensions must be positive: {rows}x{cols}")
        if tile_size <= 0:
            raise SacTypeError(f"tile size must be positive: {tile_size}")
        self.rows = rows
        self.cols = cols
        self.tile_size = tile_size
        self.tiles = tiles

    # -- shape helpers ----------------------------------------------------

    @property
    def grid_rows(self) -> int:
        """Number of tile rows (⌈rows / N⌉)."""
        return math.ceil(self.rows / self.tile_size)

    @property
    def grid_cols(self) -> int:
        """Number of tile columns (⌈cols / N⌉)."""
        return math.ceil(self.cols / self.tile_size)

    def tile_shape(self, block_row: int, block_col: int) -> tuple[int, int]:
        """Shape of the (possibly ragged edge) tile at a grid position."""
        height = min(self.tile_size, self.rows - block_row * self.tile_size)
        width = min(self.tile_size, self.cols - block_col * self.tile_size)
        return height, width

    # -- construction -------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        engine: EngineContext,
        array: np.ndarray,
        tile_size: int,
        num_partitions: Optional[int] = None,
    ) -> "TiledMatrix":
        """Cut a local 2-D array into tiles and distribute them.

        Tiles are numbered row-major and dealt out in contiguous runs; a
        run of full tiles is one :class:`TileBatch`, a slice of a single
        ``(tiles, n, n)`` copy of the array, and a run holding a ragged
        edge tile a list of ``((bi, bj), tile)`` records.
        """
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise SacTypeError(f"need a 2-D array, got shape {array.shape}")
        rows, cols = array.shape
        if tile_size <= 0:
            raise SacTypeError(f"tile size must be positive: {tile_size}")
        n = tile_size
        grid_cols = math.ceil(cols / n)
        count = math.ceil(rows / n) * grid_cols
        full_rows, full_cols = rows // n, cols // n
        full = np.ascontiguousarray(
            array[: full_rows * n, : full_cols * n]
            .reshape(full_rows, n, full_cols, n)
            .swapaxes(1, 2)
        ).reshape(full_rows * full_cols, n, n)
        parts = max(1, min(
            num_partitions or engine.cluster.partitions_for(array.nbytes, count),
            count
        ))
        slices: list = []
        for p in range(parts):
            start, end = p * count // parts, (p + 1) * count // parts
            bi, bj = np.divmod(np.arange(start, end), grid_cols)
            if (bi < full_rows).all() and (bj < full_cols).all():
                # Full tiles are consecutive in ``full`` too: a run
                # crossing a tile row holds no ragged column tile.
                first = start // grid_cols * full_cols + start % grid_cols
                slices.append(TileBatch(
                    np.stack((bi, bj), axis=1), full[first : first + end - start]
                ))
            else:
                slices.append([
                    ((i, j), array[i * n : (i + 1) * n, j * n : (j + 1) * n].copy())
                    for i, j in zip(bi.tolist(), bj.tolist())
                ])
        return cls(rows, cols, tile_size, ParallelCollectionRDD(engine, slices))

    @classmethod
    def from_items(
        cls,
        engine: EngineContext,
        rows: int,
        cols: int,
        tile_size: int,
        items: Iterable[tuple[tuple[int, int], Any]],
        num_partitions: Optional[int] = None,
    ) -> "TiledMatrix":
        """The paper's ``tiled(n,m)`` builder applied to a local list.

        Groups elements by tile coordinate (``group by (i/N, j/N)``) and
        assembles each group into a dense tile.
        """
        grid: dict[tuple[int, int], np.ndarray] = {}
        matrix = cls(rows, cols, tile_size, engine.empty_rdd())  # shape helper
        for (i, j), value in items:
            if not (0 <= i < rows and 0 <= j < cols):
                continue
            coord = (i // tile_size, j // tile_size)
            tile = grid.get(coord)
            if tile is None:
                tile = np.zeros(matrix.tile_shape(*coord))
                grid[coord] = tile
            tile[i % tile_size, j % tile_size] = value
        rdd = distribute_blocks(engine, sorted(grid.items()), num_partitions)
        return cls(rows, cols, tile_size, rdd)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Save to an ``.npz`` archive (shape, tile size, and all tiles)."""
        arrays = {"__meta__": np.array([self.rows, self.cols, self.tile_size])}
        for (bi, bj), tile in self.tiles.collect():
            arrays[f"tile_{bi}_{bj}"] = tile
        np.savez(path, **arrays)

    @classmethod
    def load(
        cls,
        engine: EngineContext,
        path: str,
        num_partitions: Optional[int] = None,
    ) -> "TiledMatrix":
        """Load a matrix saved with :meth:`save`."""
        archive = np.load(path)
        if "__meta__" not in archive.files:
            raise SacTypeError(f"{path} is not a saved TiledMatrix archive")
        rows, cols, tile_size = (int(x) for x in archive["__meta__"])
        tiles = []
        for name in archive.files:
            if name == "__meta__":
                continue
            _prefix, bi, bj = name.split("_")
            tiles.append(((int(bi), int(bj)), archive[name]))
        rdd = distribute_blocks(engine, sorted(tiles), num_partitions)
        return cls(rows, cols, tile_size, rdd)

    # -- materialization ---------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Collect all tiles into one local dense array: a
        :class:`TileBatch` partition with one fancy assignment, a record
        list tile by tile."""
        n = self.tile_size
        out = np.zeros((self.rows, self.cols))
        grid = None
        parts = self.tiles.ctx.run_job(self.tiles, _raw, description="collect")
        for part in parts:
            if type(part) is not TileBatch:
                for (bi, bj), tile in part:
                    out[bi * n : bi * n + tile.shape[0], bj * n : bj * n + tile.shape[1]] = tile
                continue
            if grid is None:
                # ``out`` as a (tile row, row, tile column, column) grid
                # of its full tiles, a view.
                row_stride, col_stride = out.strides
                grid = np.lib.stride_tricks.as_strided(
                    out, (self.rows // n, n, self.cols // n, n),
                    (n * row_stride, row_stride, n * col_stride, col_stride),
                )
            grid[part.coords[:, 0], :, part.coords[:, 1], :] = part.values
        return out

    def sparsify(self) -> Iterator[tuple[tuple[int, int], Any]]:
        """Reference sparsifier (Section 5)::

            [ ((ii*N+i, jj*N+j), a(i,j)) | ((ii,jj),a) <- tiles,
              i <- 0 until N, j <- 0 until N ]
        """
        n = self.tile_size
        for (bi, bj), tile in self.tiles.collect():
            for i in range(tile.shape[0]):
                for j in range(tile.shape[1]):
                    yield (bi * n + i, bj * n + j), tile[i, j].item()

    def cache(self) -> "TiledMatrix":
        self.tiles.cache()
        return self

    def materialize(self) -> "TiledMatrix":
        """Cache and force computation now, cutting the lazy lineage.

        Iterative algorithms must call this (or :meth:`cache` plus an
        action) each step, exactly as on Spark, or the lineage grows
        unboundedly.
        """
        self.tiles.cache()
        self.tiles.count()
        return self

    def num_tiles(self) -> int:
        return self.tiles.count()

    def __repr__(self) -> str:
        return (
            f"TiledMatrix({self.rows}x{self.cols}, tile={self.tile_size}, "
            f"grid={self.grid_rows}x{self.grid_cols})"
        )


class TiledVector:
    """A vector partitioned into a distributed list of dense blocks."""

    #: See :attr:`TiledMatrix.stats`.
    stats = None

    def __init__(self, length: int, tile_size: int, blocks: RDD):
        if length <= 0:
            raise SacTypeError(f"vector length must be positive: {length}")
        self.length = length
        self.tile_size = tile_size
        self.blocks = blocks

    @property
    def grid_size(self) -> int:
        return math.ceil(self.length / self.tile_size)

    def block_length(self, block_index: int) -> int:
        return min(self.tile_size, self.length - block_index * self.tile_size)

    @classmethod
    def from_numpy(
        cls,
        engine: EngineContext,
        array: np.ndarray,
        tile_size: int,
        num_partitions: Optional[int] = None,
    ) -> "TiledVector":
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 1:
            raise SacTypeError(f"need a 1-D array, got shape {array.shape}")
        blocks = [
            (bi, array[bi * tile_size : (bi + 1) * tile_size].copy())
            for bi in range(math.ceil(len(array) / tile_size))
        ]
        rdd = distribute_blocks(engine, blocks, num_partitions)
        return cls(len(array), tile_size, rdd)

    @classmethod
    def from_items(
        cls,
        engine: EngineContext,
        length: int,
        tile_size: int,
        items: Iterable[tuple[int, Any]],
        num_partitions: Optional[int] = None,
    ) -> "TiledVector":
        """The paper's block-vector builder: ``group by i/N``."""
        grid: dict[int, np.ndarray] = {}
        helper = cls(length, tile_size, engine.empty_rdd())
        for i, value in items:
            if not 0 <= i < length:
                continue
            block_index = i // tile_size
            block = grid.get(block_index)
            if block is None:
                block = np.zeros(helper.block_length(block_index))
                grid[block_index] = block
            block[i % tile_size] = value
        rdd = distribute_blocks(engine, sorted(grid.items()), num_partitions)
        return cls(length, tile_size, rdd)

    def to_numpy(self) -> np.ndarray:
        out = np.zeros(self.length)
        n = self.tile_size
        for bi, block in self.blocks.collect():
            out[bi * n : bi * n + block.shape[0]] = block
        return out

    def sparsify(self) -> Iterator[tuple[int, Any]]:
        n = self.tile_size
        for bi, block in self.blocks.collect():
            for i in range(block.shape[0]):
                yield bi * n + i, block[i].item()

    def cache(self) -> "TiledVector":
        self.blocks.cache()
        return self

    def materialize(self) -> "TiledVector":
        """Cache and force computation now (see ``TiledMatrix.materialize``)."""
        self.blocks.cache()
        self.blocks.count()
        return self

    def __repr__(self) -> str:
        return f"TiledVector({self.length}, tile={self.tile_size})"


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------


def _require_engine(ctx: BuildContext, name: str) -> EngineContext:
    if ctx.engine is None:
        raise SacTypeError(
            f"builder {name!r} needs an engine context; run the query "
            "through a SacSession connected to an EngineContext"
        )
    return ctx.engine


def _build_tiled(ctx: BuildContext, args: tuple, items) -> TiledMatrix:
    if len(args) != 2:
        raise SacTypeError("tiled(n,m) builder takes two dimension arguments")
    engine = _require_engine(ctx, "tiled")
    return TiledMatrix.from_items(
        engine, int(args[0]), int(args[1]), ctx.tile_size, items
    )


def _build_tiled_vector(ctx: BuildContext, args: tuple, items) -> TiledVector:
    if len(args) != 1:
        raise SacTypeError("tiled_vector(n) builder takes one dimension argument")
    engine = _require_engine(ctx, "tiled_vector")
    return TiledVector.from_items(engine, int(args[0]), ctx.tile_size, items)


def _build_rdd(ctx: BuildContext, args: tuple, items) -> Any:
    """``rdd(L)`` / ``rdd[...]``: distribute an association list."""
    engine = _require_engine(ctx, "rdd")
    return engine.parallelize(list(items))


REGISTRY.register_sparsifier(TiledMatrix, lambda m: m.sparsify())
REGISTRY.register_sparsifier(TiledVector, lambda v: v.sparsify())
REGISTRY.register_builder("tiled", _build_tiled)
REGISTRY.register_builder("tiled_vector", _build_tiled_vector)
REGISTRY.register_builder("rdd", _build_rdd)
