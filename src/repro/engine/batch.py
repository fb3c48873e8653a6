"""Array-at-a-time partitions: tile batches and column batches.

**Tile batches.**  Section 5 stores a matrix as an RDD of ``((i, j),
tile)`` records.  A partition of same-shaped tiles is held as one
:class:`TileBatch` instead — a ``(t, 2)`` coordinate array and a ``(t,
h, w)`` value array — which *is* the sequence of the records it stands
for, so every record-level consumer reads it unchanged, while the
consumers that profit (the fused kernel through :func:`tile_groups`, the
byte accountant, ``count``, ``TiledMatrix.to_numpy``) read the two
arrays whole.

**Column batches.**  Section 4's coordinate rule moves one ``(key,
value)`` record per array element.  When every bound variable is
numeric the same program runs over :class:`ColumnBatch` records
instead — one per partition, a ``{name: 1-D ndarray}`` of the bound
variables — and each of its operators is one array pass:

* :func:`scatter` — hash the key columns, one stable argsort, columns
  permuted once, each reducer's piece a *slice* of the permuted columns;
* :func:`merge_join` — sort the right side's keys once, ``searchsorted``
  the left keys into them, expand the runs of duplicate right keys;
* :func:`group_reduce` — stable sort by key, ``ufunc.reduceat`` at the
  segment starts.

A column is int64, float64, bool or — for what no numeric dtype holds as
Python does (strings, tuples, ints mixed with floats) — ``object``.  An
``object`` key column is factorised through a ``dict``: keys meet by
Python equality, and on one reducer whatever column carries them.

The shuffle is not taught about batches: a piece travels as an ordinary
``(reducer, ColumnBatch)`` record through ``cogroup`` / ``group_by_key``
under ``HashPartitioner(width)``, which maps a reducer id below
``width`` to itself.  What a batch costs on the wire
(:meth:`ColumnBatch.wire_bytes`, read by the byte accountant) is ``Σ
nbytes + 16 per column + 8``: every column's buffer, an array header
each (an ``object`` one's values priced one by one), one container
header.  Column names are the plan's, not the data's, and cost nothing.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from .partitioner import HashPartitioner

#: Key components are folded into CPython's hash-identity window before
#: hashing (any function of the key is a valid hash), so negative and
#: huge components take the batch path too.
_KEY_WINDOW = np.int64((1 << 60) - 1)


class TileBatch:
    """Same-shaped tiles: ``coords`` ``(t, 2)`` int64, ``values`` ``(t, h, w)``.

    A read-only sequence of the ``((i, j), tile)`` records it stands
    for: ``len`` is ``t``, iteration yields ``((int, int), values[k])``
    (the records built once, on first use, from one ``tolist``), and a
    slice is the batch of those rows.  It pickles as its two arrays.
    """

    __slots__ = ("coords", "values", "_records")

    def __init__(self, coords: np.ndarray, values: np.ndarray):
        self.coords = coords
        self.values = values
        self._records: Optional[list] = None

    def __len__(self) -> int:
        return len(self.coords)

    def records(self) -> list[tuple[tuple[int, int], np.ndarray]]:
        records = self._records
        if records is None:
            keys = map(tuple, self.coords.tolist())
            records = self._records = list(zip(keys, self.values))
        return records

    def __iter__(self) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
        return iter(self.records())

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return TileBatch(self.coords[index], self.values[index])
        return self.records()[index]

    def __reduce__(self) -> tuple:
        return TileBatch, (self.coords, self.values)

    def __repr__(self) -> str:
        return f"TileBatch({len(self)} tiles of {self.values.shape[1:]})"


_NDARRAY = {np.ndarray}
#: What the tiles of one group agree on.
_TRAITS = (operator.attrgetter("dtype"), operator.attrgetter("shape"))


def _stack(tiles: Sequence[np.ndarray]) -> np.ndarray:
    """Same-shaped tiles as one array with a leading batch axis."""
    if len(tiles) == 1:
        return tiles[0][None]
    return np.concatenate(tiles).reshape((len(tiles),) + tiles[0].shape)


def tile_groups(
    part: Iterable, operands: Sequence[int], joined: bool = False
) -> list[tuple[Optional[np.ndarray], np.ndarray, tuple[np.ndarray, ...]]]:
    """A fused kernel's input partition as ``(rows, coords, values)`` groups.

    Every group agrees on the dtype and shape of each of its records'
    tiles: ``coords`` is its ``(g, d)`` int64 key array, ``values`` the
    stacked operand tiles (``operands`` index a joined record's tile
    tuple; a plain record has one tile), and ``rows`` the records'
    positions in the partition — ``None`` when the group is the whole
    partition in order.  A :class:`TileBatch` is one such group as it
    is; a record list is copied into the stacks of its groups.
    """
    if type(part) is TileBatch:
        if not len(part):
            return []
        return [(None, part.coords, (part.values,) if operands else ())]
    records = list(part)
    if len(records) < 2:  # nothing to group: a partition of one tile is common
        if not records:
            return []
        ((key, value),) = records
        tiles = [np.asarray(tile) for tile in (value if joined else (value,))]
        coords = np.array([key], dtype=np.int64)
        return [(None, coords, tuple([tiles[k][None] for k in operands]))]
    keys, values = zip(*records)
    # One column per tile of a record, each an array.
    columns = [
        column if set(map(type, column)) == _NDARRAY
        else list(map(np.asarray, column))
        for column in (zip(*values) if joined else [values])
    ]
    stacked = [columns[k] for k in operands]
    traits = [list(map(trait, column)) for column in columns for trait in _TRAITS]
    if all(trait.count(trait[0]) == len(trait) for trait in traits):
        return [(None, _coords(keys), tuple(map(_stack, stacked)))]
    groups: dict[tuple, list[int]] = {}
    for row, signature in enumerate(zip(*traits)):
        groups.setdefault(signature, []).append(row)
    return [
        (
            np.array(rows),
            _coords([keys[row] for row in rows]),
            tuple(_stack([column[row] for row in rows]) for column in stacked),
        )
        for rows in groups.values()
    ]


def _coords(keys: Sequence[tuple]) -> np.ndarray:
    """Tuple keys as a ``(len(keys), d)`` int64 array."""
    width = len(keys[0])
    flat = itertools.chain.from_iterable(keys)
    return np.fromiter(flat, np.int64, len(keys) * width).reshape(-1, width)


def in_input_order(pieces: Sequence[tuple[Optional[np.ndarray], list]]) -> list:
    """The records of :func:`tile_groups`' groups, ``(rows, records)``
    each, back in partition order."""
    if len(pieces) < 2:
        return pieces[0][1] if pieces else []
    rows = np.concatenate([rows for rows, _ in pieces])
    records = [record for _, group in pieces for record in group]
    return [records[i] for i in np.argsort(rows, kind="stable").tolist()]


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
        return 8 + sum(_wire_bytes(c) + 16 for c in self.columns.values())

    def take(self, selector: Any) -> "ColumnBatch":
        """The rows ``selector`` (index array, mask or slice) picks."""
        return ColumnBatch({n: c[selector] for n, c in self.columns.items()})

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Rows of ``batches`` (same columns each), in the given order."""
        if len(batches) == 1:
            return batches[0]
        return ColumnBatch({
            name: _concat([b.columns[name] for b in batches])
            for name in batches[0].columns
        })

    def __repr__(self) -> str:
        return f"ColumnBatch({self.rows} rows x {list(self.columns)})"


def _wire_bytes(column: np.ndarray) -> int:
    if column.dtype != object:
        return column.nbytes
    from .serialization import estimate_size  # it prices batches
    return sum(map(estimate_size, column.tolist()))


def _concat(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Pieces of differing dtypes (an int64 and a float64 piece of one
    record source) meet as ``object``: each value keeps its type."""
    if len({c.dtype for c in columns if len(c)}) > 1:
        columns = [c.astype(object) for c in columns]
    return np.concatenate(columns)


def _factorise(column: np.ndarray) -> np.ndarray:
    """Codes equal where Python finds the values equal, by first row."""
    codes: dict[Any, int] = {}
    first = map(codes.setdefault, column.tolist(), itertools.count())
    return np.fromiter(first, np.int64, len(column))


def _object_hash(value: Any) -> Any:
    """What a numeric key column truncates ``value`` to, so that equal
    numbers (``2``, ``2.0``, ``True``) meet; else its hash."""
    if isinstance(value, (int, np.integer)) and -(1 << 63) <= value < 1 << 63:
        return int(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return np.float64(value).astype(np.int64)
    return hash(value)


def reducer_ids(keys: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The reducer in ``[0, width)`` of every row's (composite) key.

    Float components hash by their truncation, so ``2`` and ``2.0`` meet
    on one reducer the way they meet in one ``dict`` slot — in a numeric
    column or an ``object`` one.
    """
    with np.errstate(invalid="ignore"):  # a NaN or infinite key truncates too
        folded = [
            np.fromiter(map(_object_hash, k.tolist()), np.int64, len(k))
            if k.dtype == object else k.astype(np.int64)
            for k in map(np.asarray, keys)
        ]
    folded = [k & _KEY_WINDOW for k in folded]
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
    the keys of both sides (an ``object`` component's dict code)."""
    split = len(left[0])
    if any(c.dtype == object for c in (*left, *right)):
        codes = [_factorise(_concat([l, r])) for l, r in zip(left, right)]
        left, right = [c[:split] for c in codes], [c[split:] for c in codes]
    if len(left) == 1:
        return left[0], right[0]
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
    one left row, in right row order.  No keys: every pair (a cartesian
    product)."""
    if not left_keys:
        left_keys = [np.zeros(left.rows, np.int8)]
        right_keys = [np.zeros(right.rows, np.int8)]
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
    (composite) key, and where in it each distinct key's run begins —
    ``object`` keys ordered by first row."""
    keys = [k if k.dtype != object else _factorise(k) for k in keys]
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
    python_order: bool = False,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One row per distinct (composite) key, ascending, each slot folded
    over the key's rows in row order by its monoid's ufunc.  With
    ``python_order``, a Python loop's groups bit for bit: keys by first
    row, each fold strictly left to right (``reduceat`` adds in lanes)."""
    order, starts = segments(keys)
    heads = order[starts]
    fold = _fold_in_order if python_order else np.ufunc.reduceat
    # Python floats overflow to inf (and inf - inf to nan) silently.
    with np.errstate(over="ignore", invalid="ignore"):
        folded = [
            fold(ufunc, slot[order], starts)
            for slot, ufunc in zip(slots, combines)
        ]
    if python_order:
        rank = np.argsort(heads, kind="stable")
        heads, folded = heads[rank], [slot[rank] for slot in folded]
    return [key[heads] for key in keys], folded


def _fold_in_order(
    ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``ufunc.reduceat(values, starts)`` folding each segment left to
    right, in at most √len(values) passes: one ``accumulate`` per
    segment, or one pass per position across the segments that long."""
    lengths = np.diff(starts, append=len(values))
    longest = int(lengths.max(initial=0))
    out = values[starts]
    if len(starts) < longest:
        for segment, (lo, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
            out[segment] = ufunc.accumulate(values[lo:lo + n])[-1]
        return out
    for position in range(1, longest):
        live = np.flatnonzero(lengths > position)
        out[live] = ufunc(out[live], values[starts[live] + position])
    return out
