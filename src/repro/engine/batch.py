"""Column batches: struct-of-arrays records and their three array passes.

Section 4's coordinate rule moves one ``(key, value)`` record per array
element.  When every bound variable is numeric the same program runs
over :class:`ColumnBatch` records instead — one per partition, a
``{name: 1-D ndarray}`` of the bound variables — and each of its
operators is one array pass:

* :func:`scatter` — hash the key columns, one stable argsort, columns
  permuted once, each reducer's piece a *slice* of the permuted columns;
* :func:`merge_join` — sort the right side's keys once, ``searchsorted``
  the left keys into them, expand the runs of duplicate right keys;
* :func:`group_reduce` — stable sort by key, ``ufunc.reduceat`` at the
  segment starts.

The shuffle is not taught about batches: a piece travels as an ordinary
``(reducer, ColumnBatch)`` record through ``cogroup`` / ``group_by_key``
under ``HashPartitioner(width)``, which maps a reducer id below
``width`` to itself.  What a batch costs on the wire
(:meth:`ColumnBatch.wire_bytes`, read by the byte accountant) is ``Σ
nbytes + 16 per column + 8``: every column's buffer, an array header
each, one container header.  Column names are the plan's, not the
data's, and cost nothing.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .partitioner import HashPartitioner

#: Key components are folded into CPython's hash-identity window before
#: hashing (any function of the key is a valid hash), so negative and
#: huge components take the batch path too.
_KEY_WINDOW = np.int64((1 << 60) - 1)


class ColumnBatch:
    """Rows of named, equally long 1-D columns."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    @property
    def rows(self) -> int:
        for column in self.columns.values():
            return len(column)
        return 0

    def wire_bytes(self) -> int:
        """Serialized size: see the module docstring."""
        return 8 + sum(c.nbytes + 16 for c in self.columns.values())

    def take(self, selector: Any) -> "ColumnBatch":
        """The rows ``selector`` (index array, mask or slice) picks."""
        return ColumnBatch({n: c[selector] for n, c in self.columns.items()})

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Rows of ``batches`` (same columns each), in the given order."""
        if len(batches) == 1:
            return batches[0]
        return ColumnBatch({
            name: np.concatenate([b.columns[name] for b in batches])
            for name in batches[0].columns
        })

    def __repr__(self) -> str:
        return f"ColumnBatch({self.rows} rows x {list(self.columns)})"


def reducer_ids(keys: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The reducer in ``[0, width)`` of every row's (composite) key.

    Float components hash by their truncation, so ``2`` and ``2.0`` meet
    on one reducer the way they meet in one ``dict`` slot.
    """
    with np.errstate(invalid="ignore"):  # a NaN or infinite key truncates too
        folded = [np.asarray(k).astype(np.int64) & _KEY_WINDOW for k in keys]
    stacked = folded[0] if len(folded) == 1 else np.stack(folded, axis=1)
    return HashPartitioner(width).partition_batch(stacked)


def scatter(
    batch: ColumnBatch, keys: Sequence[np.ndarray], width: int
) -> list[tuple[int, ColumnBatch]]:
    """``(reducer, piece)`` per reducer that gets rows, ascending; a
    piece keeps its rows in the batch's order."""
    if batch.rows == 0:
        return []
    if width == 1:
        return [(0, batch)]
    ids = reducer_ids(keys, width)
    order = np.argsort(ids, kind="stable")
    permuted = batch.take(order)
    bounds = np.searchsorted(ids[order], np.arange(width + 1)).tolist()
    return [
        (reducer, permuted.take(slice(lo, hi)))
        for reducer, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if lo != hi
    ]


def _key_codes(
    left: Sequence[np.ndarray], right: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One comparable code per row of each side: the key itself when it
    has one component, else its rank in the lexicographic order of all
    the keys of both sides."""
    if len(left) == 1:
        return left[0], right[0]
    split = len(left[0])
    code = None
    for lcol, rcol in zip(left, right):
        _, rank = np.unique(np.concatenate([lcol, rcol]), return_inverse=True)
        if code is None:
            code = rank
        else:
            # Re-ranked per component, so codes stay below the row count.
            _, code = np.unique(
                code * (int(rank.max()) + 1) + rank, return_inverse=True
            )
    return code[:split], code[split:]


def merge_join(
    left: ColumnBatch,
    right: ColumnBatch,
    left_keys: Sequence[np.ndarray],
    right_keys: Sequence[np.ndarray],
) -> ColumnBatch:
    """Inner equi-join: the columns of both sides (the right side's win a
    shared name), one row per matching pair, in left row order and, for
    one left row, in right row order."""
    if left.rows == 0 or right.rows == 0:
        return ColumnBatch({
            **{n: c[:0] for n, c in left.columns.items()},
            **{n: c[:0] for n, c in right.columns.items()},
        })
    lcode, rcode = _key_codes(left_keys, right_keys)
    order = np.argsort(rcode, kind="stable")
    sorted_codes = rcode[order]
    # One binary search per left row; where its run of equal right keys
    # ends is looked up from one search per *right* row.
    lo = np.searchsorted(sorted_codes, lcode, side="left")
    run_end = np.searchsorted(sorted_codes, sorted_codes, side="right")
    probe = np.minimum(lo, len(sorted_codes) - 1)
    counts = np.where(sorted_codes[probe] == lcode, run_end[probe] - lo, 0)
    left_rows = np.repeat(np.arange(left.rows), counts)
    # Position of each output row within its left row's run of matches.
    within = np.arange(len(left_rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    right_rows = order[np.repeat(lo, counts) + within]
    return ColumnBatch({
        **left.take(left_rows).columns, **right.take(right_rows).columns
    })


def segments(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the stable permutation that sorts the rows by
    (composite) key, and where in it each distinct key's run begins."""
    if len(keys) == 1:
        order = np.argsort(keys[0], kind="stable")
    else:
        order = np.lexsort(tuple(reversed(keys)))
    first = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        first[1:] = False
        for key in keys:
            ranked = key[order]
            first[1:] |= ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(first)


def group_reduce(
    keys: Sequence[np.ndarray],
    slots: Sequence[np.ndarray],
    combines: Sequence[np.ufunc],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One row per distinct (composite) key, ascending, each slot folded
    over the key's rows in row order by its monoid's ufunc."""
    order, starts = segments(keys)
    heads = order[starts]
    # Python floats overflow to inf (and inf - inf to nan) silently.
    with np.errstate(over="ignore", invalid="ignore"):
        folded = [
            ufunc.reduceat(slot[order], starts)
            for slot, ufunc in zip(slots, combines)
        ]
    return [key[heads] for key in keys], folded
