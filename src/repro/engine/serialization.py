"""Size estimation for shuffle accounting.

The engine never actually serializes data (everything stays in one Python
process), but the cost model needs to know how many bytes each shuffle
*would* move on a real cluster.  ``estimate_size`` walks common container
shapes structurally — NumPy arrays report their true buffer size, which is
what dominates block-array workloads — and falls back to ``pickle`` for
anything exotic.
"""

from __future__ import annotations

import pickle
import sys
from typing import Any

import numpy as np

from .batch import ColumnBatch, TileBatch

#: Flat per-record envelope a real serializer would add (type tags, length
#: prefixes).  Chosen to roughly match Kryo's overhead for small tuples.
RECORD_OVERHEAD = 8

_PRIMITIVE_SIZES = {
    bool: 1,
    int: 8,
    float: 8,
    complex: 16,
    type(None): 1,
}


def estimate_size(obj: Any) -> int:
    """Estimate the serialized size of ``obj`` in bytes.

    NumPy arrays count their exact buffer size plus a small header;
    containers are summed recursively.  The estimate is intentionally on
    the "wire format" side rather than the Python-object side: a Python
    float counts 8 bytes, not ``sys.getsizeof``'s 24.
    """
    size = _estimate(obj)
    return size if size > 0 else 1


def _estimate(obj: Any) -> int:
    primitive = _PRIMITIVE_SIZES.get(type(obj))
    if primitive is not None:
        return primitive
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 16
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, (str, bytes, bytearray)):
        return len(obj) + 4
    if isinstance(obj, tuple):
        return 2 + sum(_estimate(item) for item in obj)
    if isinstance(obj, (list, set, frozenset)):
        return 8 + sum(_estimate(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(_estimate(k) + _estimate(v) for k, v in obj.items())
    if type(obj) is ColumnBatch:
        return obj.wire_bytes()
    return _fallback_estimate(obj)


def _fallback_estimate(obj: Any) -> int:
    """Pickle-based fallback for user-defined types."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable: charge its in-memory footprint
        return sys.getsizeof(obj)


def estimate_record_size(record: Any) -> int:
    """Size of one shuffle record, including the per-record envelope."""
    return estimate_size(record) + RECORD_OVERHEAD


# ----------------------------------------------------------------------
# Fast-path accounting for homogeneous record streams
# ----------------------------------------------------------------------
#
# Shuffle streams in this engine are overwhelmingly *homogeneous*: every
# record of a tiled-matrix shuffle is ``((i, j), ndarray)`` and every
# record of a keyed RDD of numbers is, say, ``((i, j), float)``.
# Walking each record recursively through ``_estimate`` costs more than
# the rest of the shuffle loop combined, so the accountant below derives
# a record's size from a structural *signature* — key shape plus value
# type (and dtype/shape for arrays) — and memoizes the estimate per
# signature.
# Records that do not fit a fixed-size signature fall back to the full
# recursive walk, so the totals are byte-identical to per-record
# estimation in every case.

#: Types whose estimate does not depend on the value (see
#: ``_PRIMITIVE_SIZES``); signature membership implies a constant size.
_FIXED_SIZE_TYPES = frozenset(_PRIMITIVE_SIZES)

#: Size of a ``((int, int), ndarray)`` tile record minus the array
#: buffer: record tuple (2) + key tuple (2 + 8 + 8) + array header (16)
#: + per-record envelope.
_TILE_RECORD_OVERHEAD = 2 + (2 + 8 + 8) + 16 + RECORD_OVERHEAD

#: The same for an ``(int, ndarray)`` :class:`TiledVector` block record.
_BLOCK_RECORD_OVERHEAD = 2 + 8 + 16 + RECORD_OVERHEAD

#: A ``(reducer, ColumnBatch)`` record minus the batch's wire bytes.
_BATCH_RECORD_OVERHEAD = 2 + 8 + RECORD_OVERHEAD


def _fixed_size_signature(obj: Any) -> Any:
    """A hashable signature for values whose estimate is type-determined.

    Returns ``None`` when ``obj``'s size depends on its contents (strings,
    lists, dicts, arbitrary objects), which routes the record to the
    full walk.
    """
    t = type(obj)
    if t in _FIXED_SIZE_TYPES:
        return t
    if t is tuple:
        parts = tuple(map(_fixed_size_signature, obj))
        if None in parts:
            return None
        return ("t", parts)
    if isinstance(obj, np.generic):
        return ("g", t)
    return None


def _record_signature(record: Any) -> Any:
    """Signature of a ``(key, value)`` shuffle record, or ``None``."""
    if type(record) is not tuple or len(record) != 2:
        return None
    key, value = record
    ksig = _fixed_size_signature(key)
    if ksig is None:
        return None
    tv = type(value)
    if tv is np.ndarray:
        return (ksig, value.dtype, value.shape)
    vsig = _fixed_size_signature(value)
    if vsig is None:
        return None
    return (ksig, vsig)


class RecordSizeAccountant:
    """Amortized, byte-exact size accounting for shuffle record streams.

    Totals agree with :func:`estimate_record_size` on every input by
    construction: the first record of each signature is priced by the
    full estimator and later records of the same signature reuse the
    memoized price.  ``batch_size`` prices ``((i, j), ndarray)`` tile
    records and ``(i, ndarray)`` vector blocks — the block-array hot
    path, one record per tile from every ``BlockManager.put`` — inline
    from ``ndarray.nbytes``, with no call per record and no memo entry
    per ragged edge shape; a :class:`TileBatch` partition in O(1), the
    same bytes as its records; a ``(reducer, ColumnBatch)`` record of
    the coordinate rule in O(columns).
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict[Any, int] = {}

    def record_size(self, record: Any) -> int:
        """Size of one record (identical to ``estimate_record_size``)."""
        sig = _record_signature(record)
        if sig is None:
            return estimate_record_size(record)
        size = self._memo.get(sig)
        if size is None:
            size = estimate_record_size(record)
            self._memo[sig] = size
        return size

    def batch_size(self, records: Any) -> int:
        """Total size of a batch of records (one call per partition)."""
        if type(records) is TileBatch:
            # What the per-tile walk below sums, without the walk.
            return records.values.nbytes + len(records) * _TILE_RECORD_OVERHEAD
        total = 0
        ndarray = np.ndarray
        size_of = self.record_size
        for record in records:
            if type(record) is tuple and len(record) == 2:
                key, value = record
                if type(value) is ndarray:
                    if type(key) is int:
                        total += value.nbytes + _BLOCK_RECORD_OVERHEAD
                        continue
                    if (
                        type(key) is tuple and len(key) == 2
                        and type(key[0]) is int and type(key[1]) is int
                    ):
                        total += value.nbytes + _TILE_RECORD_OVERHEAD
                        continue
                elif type(value) is ColumnBatch and type(key) is int:
                    total += value.wire_bytes() + _BATCH_RECORD_OVERHEAD
                    continue
            total += size_of(record)
        return total
