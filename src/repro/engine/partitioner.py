"""Partitioners: how keyed records map to reduce-side partitions.

Mirrors Spark's ``Partitioner`` hierarchy.  ``HashPartitioner`` is the
default for all shuffles; ``GridPartitioner`` mirrors the one Spark MLlib
uses for ``BlockMatrix`` so the baseline library distributes blocks the
same way the real MLlib does.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

import numpy as np

#: CPython hashes ints modulo the Mersenne prime ``2**61 - 1``, so
#: ``hash(v) == v`` holds exactly for ``0 <= v < 2**61 - 1``.  The batch
#: paths only claim a key set when every component is in that window —
#: outside it the scalar ``portable_hash`` is the ground truth.
_HASH_IDENTITY_CAP = (1 << 61) - 1


def _as_int_key_array(keys: Sequence[Any]) -> Optional[np.ndarray]:
    """``keys`` as an int array, or ``None`` when batch hashing is unsafe.

    Accepts uniform bare-int keys (1-D result) and uniform same-width
    int-tuple keys (2-D result).  Floats, strings, mixed or ragged keys,
    negatives, and ints at/above the hash-identity cap all return
    ``None`` — those key sets keep the scalar per-record path.
    """
    try:
        arr = np.asarray(keys)
    except (ValueError, OverflowError):
        return None
    if arr.dtype.kind != "i" or arr.ndim not in (1, 2) or arr.size == 0:
        return None
    if int(arr.min()) < 0 or int(arr.max()) >= _HASH_IDENTITY_CAP:
        return None
    return arr


def _tuple_hash_batch(arr: np.ndarray) -> np.ndarray:
    """Vectorized :func:`portable_hash` for a 2-D array of int tuples.

    uint64 multiplication wraps modulo ``2**64`` exactly like the scalar
    loop's ``&= 0xFFFFFFFFFFFFFFFF``, and truncation commutes with the
    xor because every component is below ``2**61``; the replication is
    bit-exact, which the parity fuzz test pins.
    """
    value = np.full(arr.shape[0], 0x345678, dtype=np.uint64)
    mult = np.uint64(1000003)
    for column in range(arr.shape[1]):
        value = (value * mult) ^ arr[:, column].astype(np.uint64)
    return value


def portable_hash(key: Hashable) -> int:
    """Deterministic, non-negative hash used for partitioning.

    Python's built-in ``hash`` is salted for ``str`` between interpreter
    runs; partitioning must be stable so tests and benchmarks are
    reproducible, so strings hash via a small FNV-1a here.  Tuples hash
    recursively; everything else falls back to ``hash`` (ints/floats are
    stable in CPython).
    """
    if isinstance(key, str):
        value = 0xCBF29CE484222325
        for byte in key.encode("utf-8"):
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return value
    if isinstance(key, tuple):
        value = 0x345678
        for item in key:
            value = (value * 1000003) ^ portable_hash(item)
            value &= 0xFFFFFFFFFFFFFFFF
        return value
    if isinstance(key, bool):
        return int(key)
    return hash(key) & 0xFFFFFFFFFFFFFFFF


class Partitioner:
    """Maps keys to partition ids in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_batch(self, keys: Sequence[Any]) -> Optional[np.ndarray]:
        """Partition ids for a whole key batch, or ``None``.

        ``None`` means "no vectorized path for these keys" — the caller
        falls back to per-record :meth:`partition` calls.  A non-``None``
        result must equal ``[self.partition(k) for k in keys]`` exactly;
        the shuffle's bucket contents (and therefore every byte counter)
        ride on that equivalence.
        """
        return None

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:  # partitioners are compared, never hashed by content
        return hash((type(self).__name__, self.num_partitions))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_partitions})"


class HashPartitioner(Partitioner):
    """Spark's default: ``portable_hash(key) % num_partitions``."""

    def partition(self, key: Any) -> int:
        return portable_hash(key) % self.num_partitions

    def partition_batch(self, keys: Sequence[Any]) -> Optional[np.ndarray]:
        arr = _as_int_key_array(keys)
        if arr is None:
            return None
        # ``portable_hash`` of an in-window int is the int itself, so a
        # bare-int batch skips the tuple fold entirely.
        hashed = arr.astype(np.uint64) if arr.ndim == 1 else _tuple_hash_batch(arr)
        return (hashed % np.uint64(self.num_partitions)).astype(np.int64)


class GridPartitioner(Partitioner):
    """Partitioner for block-coordinate keys ``(block_row, block_col)``.

    Mirrors MLlib's ``GridPartitioner``: the logical grid of blocks is cut
    into roughly square sub-grids, one per partition, so that neighbouring
    blocks land on the same executor.
    """

    def __init__(self, rows: int, cols: int, num_partitions: int):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
        super().__init__(min(num_partitions, rows * cols))
        self.rows = rows
        self.cols = cols
        # Choose sub-grid side lengths so the partition count is respected.
        target = max(1, round((rows * cols / self.num_partitions) ** 0.5))
        self.row_step = min(rows, target)
        self.col_step = min(cols, target)
        self._cols_per_row_band = -(-cols // self.col_step)  # ceil division

    def partition(self, key: Any) -> int:
        row, col = key
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            # Out-of-grid keys (possible for padded edges) hash instead.
            return portable_hash(key) % self.num_partitions
        band = (row // self.row_step) * self._cols_per_row_band + col // self.col_step
        return band % self.num_partitions

    def partition_batch(self, keys: Sequence[Any]) -> Optional[np.ndarray]:
        arr = _as_int_key_array(keys)
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
            return None
        rows, cols = arr[:, 0], arr[:, 1]
        band = (rows // self.row_step) * self._cols_per_row_band + (
            cols // self.col_step
        )
        out = (band % self.num_partitions).astype(np.int64)
        in_grid = (rows < self.rows) & (cols < self.cols)  # already >= 0
        if not in_grid.all():
            hashed = _tuple_hash_batch(arr) % np.uint64(self.num_partitions)
            out = np.where(in_grid, out, hashed.astype(np.int64))
        return out
