"""MLlib-workalike ``BlockMatrix`` — the paper's comparison baseline.

Spark MLlib's ``linalg.distributed.BlockMatrix`` is reproduced here *on
our engine*, mirroring the real implementation's plan shapes:

* ``add``/``subtract`` cogroup the two block RDDs on a
  ``GridPartitioner`` and combine block pairs (missing blocks are
  zeros), converting each block to/from the Breeze representation — the
  conversion copy is reproduced because it is part of what the paper
  measured against.

* ``multiply`` follows MLlib's ``simulateMultiply``: every A-block is
  replicated to the *result partitions* that need it (one per partition
  containing result blocks of its row band), symmetrically for B; the
  replicated streams are cogrouped per partition id; all block products
  are computed there and merged by a final ``reduceByKey`` on the result
  partitioner.  Each product allocates a fresh block (as MLlib does),
  which is the allocation pressure the paper's generated code avoids.

* The paper ran MLlib with the **pure JVM** Breeze backend (no native
  BLAS).  Our blocks multiply with NumPy (native BLAS), so a
  :class:`KernelProfile` charges the *simulated* clock the documented
  JVM/native gap for each kernel invocation.  Set ``profile=None`` to
  compare plan shapes only; EXPERIMENTS.md reports both.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..engine import EngineContext, GridPartitioner, RDD
from ..storage.tiled import distribute_blocks


@dataclass(frozen=True)
class KernelProfile:
    """Relative cost of the baseline's local kernels vs native BLAS.

    ``gemm_slowdown`` / ``elementwise_slowdown`` multiply the measured
    kernel time in the *simulated* cost accounting only; wall-clock
    numbers are never altered.  Defaults follow common JVM-vs-native
    gemm measurements for pure-JVM Breeze (the paper's configuration).
    """

    gemm_slowdown: float = 4.0
    elementwise_slowdown: float = 1.5


#: The configuration of the paper's evaluation (Section 6).
PURE_JVM_BREEZE = KernelProfile()


class BlockMatrix:
    """A distributed block matrix in the style of Spark MLlib.

    Blocks are keyed by ``(block_row, block_col)``; edge blocks may be
    smaller than ``rows_per_block`` × ``cols_per_block``.
    """

    def __init__(
        self,
        blocks: RDD,
        rows_per_block: int,
        cols_per_block: int,
        num_rows: int,
        num_cols: int,
        profile: Optional[KernelProfile] = PURE_JVM_BREEZE,
    ):
        self.blocks = blocks
        self.rows_per_block = rows_per_block
        self.cols_per_block = cols_per_block
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.profile = profile

    # -- shape ------------------------------------------------------------

    @property
    def num_row_blocks(self) -> int:
        return math.ceil(self.num_rows / self.rows_per_block)

    @property
    def num_col_blocks(self) -> int:
        return math.ceil(self.num_cols / self.cols_per_block)

    def block_shape(self, i: int, j: int) -> tuple[int, int]:
        return (
            min(self.rows_per_block, self.num_rows - i * self.rows_per_block),
            min(self.cols_per_block, self.num_cols - j * self.cols_per_block),
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        engine: EngineContext,
        array: np.ndarray,
        block_size: int,
        num_partitions: Optional[int] = None,
        profile: Optional[KernelProfile] = PURE_JVM_BREEZE,
    ) -> "BlockMatrix":
        array = np.asarray(array, dtype=np.float64)
        rows, cols = array.shape
        blocks = []
        for bi in range(math.ceil(rows / block_size)):
            for bj in range(math.ceil(cols / block_size)):
                block = array[
                    bi * block_size : (bi + 1) * block_size,
                    bj * block_size : (bj + 1) * block_size,
                ].copy()
                blocks.append(((bi, bj), block))
        # The partition count ``TiledMatrix.from_numpy`` picks for the
        # same array, so SAC and the baseline run on one layout.
        rdd = distribute_blocks(engine, blocks, num_partitions)
        return cls(rdd, block_size, block_size, rows, cols, profile)

    # -- kernel accounting ----------------------------------------------------

    def _charge(self, elapsed: float, slowdown: float) -> None:
        """Charge the simulated clock for the JVM/native kernel gap."""
        if self.profile is not None and slowdown > 1.0:
            self.blocks.ctx.metrics.inflate_task(elapsed * (slowdown - 1.0))

    def _to_breeze(self, block: np.ndarray) -> np.ndarray:
        """MLlib converts every block to a Breeze matrix before math."""
        return np.array(block)  # the copy is the point

    # -- operations ---------------------------------------------------------

    def validate(self) -> None:
        """MLlib-style validation: block coordinates within the grid and
        block shapes consistent with the declared dimensions."""
        grid_rows, grid_cols = self.num_row_blocks, self.num_col_blocks

        def check(record):
            (bi, bj), block = record
            if not (0 <= bi < grid_rows and 0 <= bj < grid_cols):
                raise ValueError(f"block ({bi}, {bj}) outside the grid")
            expected = self.block_shape(bi, bj)
            if block.shape != expected:
                raise ValueError(
                    f"block ({bi}, {bj}) has shape {block.shape}, "
                    f"expected {expected}"
                )

        self.blocks.foreach(check)

    def _blockwise(self, other: "BlockMatrix", op: Callable) -> "BlockMatrix":
        if (self.num_rows, self.num_cols) != (other.num_rows, other.num_cols):
            raise ValueError(
                f"dimension mismatch: {self.num_rows}x{self.num_cols} vs "
                f"{other.num_rows}x{other.num_cols}"
            )
        # Spark's ``createPartitioner``: as many partitions as this side.
        partitioner = GridPartitioner(
            self.num_row_blocks, self.num_col_blocks, self.blocks.num_partitions
        )
        cogrouped = self.blocks.cogroup(other.blocks, partitioner=partitioner)
        outer = self

        def combine(record):
            key, (mine, theirs) = record
            start = time.perf_counter()
            if mine and theirs:
                result = op(outer._to_breeze(mine[0]), outer._to_breeze(theirs[0]))
            elif mine:
                result = op(outer._to_breeze(mine[0]), 0.0)
            else:
                result = op(0.0, outer._to_breeze(theirs[0]))
            elapsed = time.perf_counter() - start
            outer._charge(elapsed, outer.profile.elementwise_slowdown if outer.profile else 1.0)
            return key, result

        return BlockMatrix(
            cogrouped.map(combine),
            self.rows_per_block, self.cols_per_block,
            self.num_rows, self.num_cols, self.profile,
        )

    def add(self, other: "BlockMatrix") -> "BlockMatrix":
        """Block-wise addition via cogroup (MLlib's plan)."""
        return self._blockwise(other, lambda a, b: a + b)

    def subtract(self, other: "BlockMatrix") -> "BlockMatrix":
        """Block-wise subtraction via cogroup."""
        return self._blockwise(other, lambda a, b: a - b)

    def multiply(self, other: "BlockMatrix") -> "BlockMatrix":
        """MLlib's ``simulateMultiply`` + cogroup + products + reduceByKey."""
        if self.num_cols != other.num_rows:
            raise ValueError(
                f"inner dimensions disagree: {self.num_cols} vs {other.num_rows}"
            )
        if self.cols_per_block != other.rows_per_block:
            raise ValueError("block sizes are incompatible for multiply")
        # Spark sizes the result grid from its inputs' partition counts.
        result_partitioner = GridPartitioner(
            self.num_row_blocks, other.num_col_blocks,
            max(self.blocks.num_partitions, other.blocks.num_partitions),
        )
        a_dest, b_dest = self._simulate_multiply(other, result_partitioner)
        grid_cols = other.num_col_blocks

        flat_a = self.blocks.flat_map(
            lambda record: [
                (pid, (record[0], record[1])) for pid in a_dest[record[0]]
            ]
        )
        flat_b = other.blocks.flat_map(
            lambda record: [
                (pid, (record[0], record[1])) for pid in b_dest[record[0]]
            ]
        )
        cogrouped = flat_a.cogroup(
            flat_b,
            num_partitions=result_partitioner.num_partitions,
        )
        outer = self

        def products(record):
            pid, (a_blocks, b_blocks) = record
            by_k: dict[int, list] = {}
            for (k, j), block in b_blocks:
                by_k.setdefault(k, []).append((j, block))
            out = []
            for (i, k), a_block in a_blocks:
                for j, b_block in by_k.get(k, ()):
                    if result_partitioner.partition((i, j)) != pid:
                        continue
                    start = time.perf_counter()
                    # MLlib allocates one fresh Breeze product per pair.
                    product = outer._to_breeze(a_block) @ outer._to_breeze(b_block)
                    elapsed = time.perf_counter() - start
                    outer._charge(
                        elapsed,
                        outer.profile.gemm_slowdown if outer.profile else 1.0,
                    )
                    out.append(((i, j), product))
            return out

        partial = cogrouped.flat_map(products)
        combined = partial.reduce_by_key(
            lambda a, b: a + b, partitioner=result_partitioner
        )
        return BlockMatrix(
            combined,
            self.rows_per_block, other.cols_per_block,
            self.num_rows, other.num_cols, self.profile,
        )

    def _simulate_multiply(
        self, other: "BlockMatrix", partitioner: GridPartitioner
    ) -> tuple[dict, dict]:
        """Destination partitions per block (MLlib's ``simulateMultiply``).

        For dense matrices every A-block ``(i, k)`` is needed by the
        partitions holding result row band ``i``, and every B-block
        ``(k, j)`` by the partitions holding result column band ``j``.
        """
        a_dest: dict[tuple[int, int], list[int]] = {}
        b_dest: dict[tuple[int, int], list[int]] = {}
        for i in range(self.num_row_blocks):
            for k in range(self.num_col_blocks):
                dests = {
                    partitioner.partition((i, j))
                    for j in range(other.num_col_blocks)
                }
                a_dest[(i, k)] = sorted(dests)
        for k in range(other.num_row_blocks):
            for j in range(other.num_col_blocks):
                dests = {
                    partitioner.partition((i, j))
                    for i in range(self.num_row_blocks)
                }
                b_dest[(k, j)] = sorted(dests)
        return a_dest, b_dest

    def transpose(self) -> "BlockMatrix":
        """Transpose blocks and their coordinates."""
        outer = self

        def flip(record):
            (bi, bj), block = record
            start = time.perf_counter()
            result = outer._to_breeze(block).T.copy()
            outer._charge(
                time.perf_counter() - start,
                outer.profile.elementwise_slowdown if outer.profile else 1.0,
            )
            return (bj, bi), result

        return BlockMatrix(
            self.blocks.map(flip),
            self.cols_per_block, self.rows_per_block,
            self.num_cols, self.num_rows, self.profile,
        )

    def map_blocks(self, fn: Callable[[np.ndarray], np.ndarray]) -> "BlockMatrix":
        """Apply ``fn`` to every block (how MLlib users scale a matrix —
        there is no public scalar-multiply on ``BlockMatrix``)."""
        outer = self

        def apply(record):
            key, block = record
            start = time.perf_counter()
            result = fn(outer._to_breeze(block))
            outer._charge(
                time.perf_counter() - start,
                outer.profile.elementwise_slowdown if outer.profile else 1.0,
            )
            return key, result

        return BlockMatrix(
            self.blocks.map(apply),
            self.rows_per_block, self.cols_per_block,
            self.num_rows, self.num_cols, self.profile,
        )

    def cache(self) -> "BlockMatrix":
        self.blocks.cache()
        return self

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.num_rows, self.num_cols))
        for (bi, bj), block in self.blocks.collect():
            out[
                bi * self.rows_per_block : bi * self.rows_per_block + block.shape[0],
                bj * self.cols_per_block : bj * self.cols_per_block + block.shape[1],
            ] = block
        return out

    def __repr__(self) -> str:
        return (
            f"BlockMatrix({self.num_rows}x{self.num_cols}, "
            f"block={self.rows_per_block}x{self.cols_per_block})"
        )
