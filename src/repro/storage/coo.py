"""Coordinate-format sparse storages (Section 4's distributed format).

A COO matrix stores only its non-zero entries as ``((i, j), value)``
pairs.  The paper uses this format in two roles: as the *abstract*
representation every storage sparsifies into, and as a concrete
distributed format (an RDD of coordinate pairs) whose inefficiency
relative to tiling motivates Section 5.  ``CooMatrix``/``CooVector`` here
are the local concrete form; the distributed form is simply an engine RDD
of the same pairs (see :mod:`repro.planner.rdd_rules`).

Both hold their entries as parallel *columns* — index arrays and one
value array, sorted by key and read-only — so the coordinate rule can
hand them to the engine as column batches without touching an element
in Python.  ``entries`` is the same data as a read-only mapping, built
on first use.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..comprehension.errors import SacTypeError
from .registry import REGISTRY, BuildContext


def _value_column(values: Iterable[Any]) -> np.ndarray:
    """``values`` as one 1-D array: numeric where NumPy finds a common
    numeric dtype, else an object array holding each value as it is."""
    values = list(values)
    try:
        column = np.asarray(values)
    except (ValueError, OverflowError):
        column = None
    if column is None or column.shape != (len(values),) or column.dtype.kind not in "biuf":
        column = np.empty(len(values), dtype=object)
        for position, value in enumerate(values):
            column[position] = value
    return column


def _frozen(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column


class CooVector:
    """Sparse vector: sorted ``index`` and ``values`` columns plus a length."""

    def __init__(self, length: int, entries: Mapping[int, Any]):
        index = np.fromiter(entries, dtype=np.int64, count=len(entries))
        order = np.argsort(index, kind="stable")
        self.length = length
        self.index = _frozen(index[order])
        self.values = _frozen(_value_column(entries.values())[order])
        self._entries = None

    @classmethod
    def from_items(cls, length: int, items: Iterable[tuple[int, Any]]) -> "CooVector":
        entries: dict[int, Any] = {}
        for index, value in items:
            if 0 <= index < length and value != 0:
                entries[index] = value
        return cls(length, entries)

    @property
    def entries(self) -> Mapping[int, Any]:
        """``{index: value}``, read-only."""
        if self._entries is None:
            self._entries = MappingProxyType(
                dict(zip(self.index.tolist(), self.values.tolist()))
            )
        return self._entries

    @property
    def nnz(self) -> int:
        return len(self.values)

    def density(self) -> float:
        """Fill ratio from the stored entries — free, no scan."""
        return self.nnz / self.length if self.length else 0.0

    def sparsify(self) -> Iterator[tuple[int, Any]]:
        return zip(self.index.tolist(), self.values.tolist())

    def get(self, index: int) -> Any:
        return self.entries.get(index, 0)

    def __repr__(self) -> str:
        return f"CooVector(length={self.length}, nnz={self.nnz})"


class CooMatrix:
    """Sparse matrix: ``row_index``/``col_index``/``values`` columns sorted
    by ``(i, j)``, plus dimensions."""

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], Any]):
        keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        self._init_sorted(
            rows, cols, keys[order, 0], keys[order, 1],
            _value_column(entries.values())[order],
        )

    def _init_sorted(self, rows, cols, row_index, col_index, values) -> None:
        self.rows = rows
        self.cols = cols
        self.row_index = _frozen(row_index)
        self.col_index = _frozen(col_index)
        self.values = _frozen(values)
        self._entries = None

    @classmethod
    def from_items(
        cls, rows: int, cols: int, items: Iterable[tuple[tuple[int, int], Any]]
    ) -> "CooMatrix":
        entries: dict[tuple[int, int], Any] = {}
        for (i, j), value in items:
            if 0 <= i < rows and 0 <= j < cols and value != 0:
                entries[(i, j)] = value
        return cls(rows, cols, entries)

    @classmethod
    def from_numpy(cls, array) -> "CooMatrix":
        array = np.asarray(array)
        if array.ndim != 2:
            raise SacTypeError(f"need a 2-D array, got shape {array.shape}")
        # Row-major positions of the non-zeros are already in key order
        # (and a boolean mask scans several times faster than floats).
        flat = np.flatnonzero(array != 0)
        row_index, col_index = np.divmod(flat, array.shape[1])
        matrix = cls.__new__(cls)
        matrix._init_sorted(
            *array.shape, row_index, col_index, array.reshape(-1)[flat]
        )
        return matrix

    @property
    def entries(self) -> Mapping[tuple[int, int], Any]:
        """``{(i, j): value}``, read-only."""
        if self._entries is None:
            self._entries = MappingProxyType(dict(self.sparsify()))
        return self._entries

    @property
    def nnz(self) -> int:
        return len(self.values)

    def density(self) -> float:
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    def sparsify(self) -> Iterator[tuple[tuple[int, int], Any]]:
        keys = zip(self.row_index.tolist(), self.col_index.tolist())
        return zip(keys, self.values.tolist())

    def get(self, i: int, j: int) -> Any:
        return self.entries.get((i, j), 0)

    def to_numpy(self):
        out = np.zeros((self.rows, self.cols))
        out[self.row_index, self.col_index] = self.values
        return out

    def __repr__(self) -> str:
        return f"CooMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _build_coo(ctx: BuildContext, args: tuple, items) -> CooMatrix:
    if len(args) != 2:
        raise SacTypeError("coo(n,m) builder takes two dimension arguments")
    return CooMatrix.from_items(int(args[0]), int(args[1]), items)


def _build_coo_vector(ctx: BuildContext, args: tuple, items) -> CooVector:
    if len(args) != 1:
        raise SacTypeError("coo_vector(n) builder takes one dimension argument")
    return CooVector.from_items(int(args[0]), items)


REGISTRY.register_sparsifier(CooVector, lambda v: v.sparsify())
REGISTRY.register_sparsifier(CooMatrix, lambda m: m.sparsify())
REGISTRY.register_builder("coo", _build_coo)
REGISTRY.register_builder("coo_vector", _build_coo_vector)
