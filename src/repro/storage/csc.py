"""Compressed Sparse Column storage.

The column-major sibling of :mod:`repro.storage.csr`.  The paper's
future-work section (Section 8) names "tiled arrays where each tile is
stored in the compressed sparse column format" as the natural next
storage; :mod:`repro.storage.sparse_tiled` builds exactly that on top of
this class.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from ..comprehension.errors import SacTypeError
from .registry import REGISTRY, BuildContext


class CscMatrix:
    """CSC matrix: ``indptr`` (m+1 columns), ``indices`` (rows), ``data``."""

    def __init__(
        self,
        rows: int,
        cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ):
        if len(indptr) != cols + 1:
            raise SacTypeError(
                f"indptr length {len(indptr)} does not match cols {cols}"
            )
        if len(indices) != len(data):
            raise SacTypeError("indices and data lengths differ")
        self.rows = rows
        self.cols = cols
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)

    @classmethod
    def from_items(
        cls, rows: int, cols: int, items: Iterable[tuple[tuple[int, int], Any]]
    ) -> "CscMatrix":
        """Build from an association list (clipping, dropping zeros)."""
        per_col: list[list[tuple[int, Any]]] = [[] for _ in range(cols)]
        for (i, j), value in items:
            if 0 <= i < rows and 0 <= j < cols and value != 0:
                per_col[j].append((i, value))
        indptr = np.zeros(cols + 1, dtype=np.int64)
        indices: list[int] = []
        data: list[Any] = []
        for j, column in enumerate(per_col):
            column.sort()
            for i, value in column:
                indices.append(i)
                data.append(value)
            indptr[j + 1] = len(indices)
        return cls(
            rows, cols, indptr, np.array(indices, dtype=np.int64), np.array(data)
        )

    @classmethod
    def from_numpy(cls, array: np.ndarray) -> "CscMatrix":
        array = np.asarray(array)
        if array.ndim != 2:
            raise SacTypeError(f"need a 2-D array, got shape {array.shape}")
        rows, cols = array.shape
        nz_rows, nz_cols = np.nonzero(array)
        return cls.from_items(
            rows,
            cols,
            (
                ((int(i), int(j)), array[i, j].item())
                for i, j in zip(nz_rows, nz_cols)
            ),
        )

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def nbytes(self) -> int:
        """Bytes of the three stored arrays."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def density(self) -> float:
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (zero-copy views)."""
        start, end = self.indptr[j], self.indptr[j + 1]
        return self.indices[start:end], self.data[start:end]

    def get(self, i: int, j: int) -> Any:
        rows, values = self.column(j)
        pos = np.searchsorted(rows, i)
        if pos < len(rows) and rows[pos] == i:
            return values[pos].item()
        return 0

    def sparsify(self) -> Iterator[tuple[tuple[int, int], Any]]:
        """Walk columns in order, yielding ``((i, j), value)`` per entry."""
        for j in range(self.cols):
            rows, values = self.column(j)
            for i, value in zip(rows, values):
                yield (int(i), j), value.item()

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for j in range(self.cols):
            rows, values = self.column(j)
            out[rows, j] = values
        return out

    def __repr__(self) -> str:
        return f"CscMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _build_csc(ctx: BuildContext, args: tuple, items) -> CscMatrix:
    if len(args) != 2:
        raise SacTypeError("csc(n,m) builder takes two dimension arguments")
    return CscMatrix.from_items(int(args[0]), int(args[1]), items)


REGISTRY.register_sparsifier(CscMatrix, lambda m: m.sparsify())
REGISTRY.register_builder("csc", _build_csc)
