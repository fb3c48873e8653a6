"""Generic RDD translation — paper Section 4, Rules (13) and (14).

Every generator is read as element-level records, equality guards
between generators become joins (Rule 14) and a group-by with
aggregations a map-side fold, a shuffle and a reduce-side fold
(Rule 13).  This is the paper's coordinate-format execution, the thing
Section 5 improves on, and the planner's safety net: any comprehension
too irregular for the tiled rules (e.g. the smoothing stencil, whose
group key is range-generated) still runs distributed through here.

The records are :class:`~repro.engine.batch.ColumnBatch` es, one per
partition and a column per bound variable; an expression with no array
form is evaluated per row by the reference interpreter.  This module
*recognizes* and *plans*: it emits a ``Coordinate`` IR node over one
element ``Scan`` per generator (an :class:`ElementSource`) with the
join order it chose, a function of the analysis, never of data.  The
runtime lives in :mod:`repro.planner.lower`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..comprehension.ast import Expr, Var, to_source
from ..comprehension.errors import SacPatternError
from ..engine import EngineContext, RDD
from ..engine.batch import ColumnBatch
from ..engine.cluster import ClusterSpec
from ..engine.rdd import ParallelCollectionRDD
from ..storage import CooMatrix, CooVector, CsrMatrix, DenseMatrix, DenseVector
from ..storage.csc import CscMatrix
from ..storage.registry import BuildContext
from ..storage.sparse_tiled import SparseTiledMatrix
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo, GenInfo
from .ir import CoordinateNode, IRNode, scan_storage_node
from .kernels import KernelUnsupported
from .plan import RULE_COORDINATE

#: Environment values whose repr is cheap and semantically meaningful;
#: everything else is tracked by object identity only.
_SCALAR_TYPES = (bool, int, float, str)


def emit_coordinate(
    info: CompInfo,
    env: dict[str, Any],
    engine: EngineContext,
    builder: Optional[str],
    args: tuple,
    build_context: BuildContext,
) -> Optional[IRNode]:
    """Recognize element-level RDD translation (Rules 13/14); emit IR."""
    if info.post_group_quals:
        return None
    if info.ranges:
        return None  # data-dependent ranges need the interpreter
    scans = []
    for gen in info.generators:
        source = _element_source(gen, env, engine)
        if source is None:
            return None
        scan = scan_storage_node(gen.source.name, source.value)
        scan.records = lambda source=source: source
        scans.append(scan)
    join_order = _join_order(info)
    # The interpreter evaluates guard/head expressions against the whole
    # environment, not just the generators — e.g. ``N2[i, j]`` indexes a
    # bystander binding.  Scalars go into the signature; every other
    # binding's identity gates fingerprint equality (and hence reuse).
    scalars = tuple(
        sorted(
            (name, repr(value))
            for name, value in env.items()
            if isinstance(value, _SCALAR_TYPES)
        )
    )
    identity = tuple(
        (name, id(value))
        for name, value in sorted(env.items())
        if not isinstance(value, _SCALAR_TYPES)
    )
    root = CoordinateNode(
        children=tuple(scans),
        sig=(
            ("comp", to_source(info.comp)),
            ("builder", builder, tuple(repr(a) for a in args)),
            ("tile_size", build_context.tile_size),
            ("scalars", scalars),
        ),
        identity=identity,
        info=info,
        builder=builder,
        args=args,
        join_order=join_order,
    )
    root.attrs.update(
        rule=RULE_COORDINATE,
        builder=builder,
        reusable=True,
        details={"generators": len(info.generators)},
    )
    return root


def _join_order(info: CompInfo) -> list[tuple[int, list[Expr], list[Expr]]]:
    """Order in which generators fold into one record stream (Rule 14).

    Starting from generator 0, repeatedly take every generator whose
    equality conditions reach the already-joined set — an entry is
    ``(generator, keys over the joined records, keys over its own)`` —
    else the next one by cartesian product (empty keys).
    """
    order = []
    joined_set = {0}
    remaining = list(range(1, len(info.generators)))
    pending_joins = list(info.joins)
    while remaining:
        progress = False
        for gen_idx in list(remaining):
            conds = [
                j
                for j in pending_joins
                if {j.left_gen, j.right_gen} <= joined_set | {gen_idx}
                and gen_idx in (j.left_gen, j.right_gen)
            ]
            if not conds:
                continue
            left_keys = []
            right_keys = []
            for cond in conds:
                if cond.left_gen == gen_idx:
                    right_keys.append(cond.left)
                    left_keys.append(cond.right)
                else:
                    right_keys.append(cond.right)
                    left_keys.append(cond.left)
            order.append((gen_idx, left_keys, right_keys))
            joined_set.add(gen_idx)
            remaining.remove(gen_idx)
            for cond in conds:
                pending_joins.remove(cond)
            progress = True
        if not progress:
            gen_idx = remaining.pop(0)
            order.append((gen_idx, [], []))
            joined_set.add(gen_idx)
    return order


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


@dataclass
class ElementSource:
    """One generator's source as :class:`~repro.engine.batch.ColumnBatch`
    records: one column per index variable plus the value variable's.

    A tiled source's batches are its partitions, all tiles of one in one
    batch; an RDD (or a list) of ``(key, value)`` pairs is columnised
    partition by partition when the program runs.  A driver-side
    storage's columns are cut into ``width`` contiguous slices.
    """

    gen: GenInfo
    value: Any
    engine: EngineContext

    def batches(self, width: int) -> RDD:
        """The source's batches (see the class docstring)."""
        value, gen = self.value, self.gen

        def batch(columns: Sequence[np.ndarray]) -> ColumnBatch:
            return ColumnBatch(dict(zip(gen.bound_vars, columns)))

        if isinstance(value, (RDD, list)):

            def columnise(records: Iterator) -> list[ColumnBatch]:
                records = list(records)
                return [batch(_record_columns(records, gen))] if records else []

            pairs = value if isinstance(value, RDD) else self.engine.parallelize(value)
            return pairs.map_partitions(columnise)
        if isinstance(value, (TiledMatrix, TiledVector, SparseTiledMatrix)):
            n = value.tile_size
            tiles = value.blocks if isinstance(value, TiledVector) else value.tiles

            def partition_batch(records: Iterator) -> list[ColumnBatch]:
                pieces = [batch(_tile_columns(coord, tile, n)) for coord, tile in records]
                return [ColumnBatch.concat(pieces)] if pieces else []

            return tiles.map_partitions(partition_batch)
        columns = _local_columns(value)
        total = len(columns[-1])
        bounds = [(k * total) // width for k in range(width + 1)]
        return self.engine.parallelize(
            [batch([c[lo:hi] for c in columns]) for lo, hi in zip(bounds, bounds[1:])],
            width,
        )


def source_rows(value: Any) -> int:
    """Rows :meth:`ElementSource.batches` yields for ``value`` — an upper
    bound for sparse tiles.  Pairs the driver holds (a list, a
    parallelized collection) count from its slices; pairs a job produces
    count 0, since planning never runs one."""
    if isinstance(value, list):
        return len(value)
    if isinstance(value, ParallelCollectionRDD):
        return sum(map(len, value._slices))
    if isinstance(value, RDD):
        return 0
    if isinstance(value, (TiledMatrix, SparseTiledMatrix)):
        # ``density()`` is the recorded statistic (1.0 when dense or
        # unknown), never a count action.
        density = value.density() if isinstance(value, SparseTiledMatrix) else 1.0
        return math.ceil(density * value.rows * value.cols)
    if isinstance(value, TiledVector):
        return value.length
    return len(_local_values(value))


def coordinate_width(cluster: ClusterSpec, sources: Sequence[tuple[Any, Any]]) -> int:
    """The coordinate program's shuffle width over its sources, each a
    generator (one column per index variable and one for the value
    variable) with the value it reads: :meth:`ClusterSpec.partitions_for`
    of 8 bytes per column per row, at most one partition per row.  The
    lowerer cuts this width and the cost model prices its coordinate
    candidate at it."""
    shapes = [
        (len(gen.index_vars) + (gen.value_var is not None), source_rows(value))
        for gen, value in sources
    ]
    return cluster.partitions_for(
        sum(8 * columns * rows for columns, rows in shapes),
        sum(rows for _columns, rows in shapes),
    )


def _element_source(
    gen: GenInfo, env: dict[str, Any], engine: EngineContext
) -> Optional[ElementSource]:
    if not isinstance(gen.source, Var):
        return None
    value = env.get(gen.source.name)
    if isinstance(value, np.ndarray) and value.ndim not in (1, 2):
        return None
    if isinstance(value, (
        RDD, TiledMatrix, TiledVector, SparseTiledMatrix, CooMatrix, CooVector,
        CsrMatrix, DenseMatrix, DenseVector, np.ndarray, list,
    )):
        return ElementSource(gen, value, engine)
    return None


#: Python ints are unbounded; an int64 column holds none past this
#: magnitude, so column arithmetic wraps nowhere Python's would not.
INT_COLUMN_CAP = 1 << 62


def _value_column(values: np.ndarray) -> np.ndarray:
    """``values`` as a float64 or int64 column (booleans count as ints,
    as they do in Python arithmetic) — else, for complex, strings or
    integers past ±2**62, an ``object`` column of the Python values."""
    kind = values.dtype.kind
    if kind == "f":
        return values.astype(np.float64, copy=False)
    if kind == "b" or kind in "iu" and (not values.size or (
        -INT_COLUMN_CAP <= values.min() and values.max() <= INT_COLUMN_CAP
    )):
        return values.astype(np.int64, copy=False)
    return _object_column(values.tolist())


def _object_column(values: Sequence) -> np.ndarray:
    """``values`` as they bind to a pattern variable (NumPy scalars as
    Python ones), one object each."""
    python = (v.item() if isinstance(v, np.generic) else v for v in values)
    return np.fromiter(python, object, len(values))


def _python_column(values: Sequence) -> np.ndarray:
    """Record values as a float64 column when every one is a float, an
    int64 one when every one is an int (not a bool) within ±2**62, else
    an ``object`` column: each value keeps its Python type."""
    kinds = set(map(type, values))
    if kinds and all(issubclass(k, (float, np.floating)) for k in kinds):
        return np.array(values, dtype=np.float64)
    if kinds and all(
        issubclass(k, (int, np.integer)) and k is not bool for k in kinds
    ):
        try:
            return _value_column(np.array(values, dtype=np.int64))
        except OverflowError:
            pass
    return _object_column(values)


def _record_columns(records: Sequence, gen: GenInfo) -> list[np.ndarray]:
    """``(key, value)`` records as ``gen``'s columns: a key binds whole to
    one index variable, else flattened across the pattern's."""
    keys = [key for key, _value in records]
    if gen.arity == 1:
        index = [keys]
    else:
        flat = [_flatten_key(key) for key in keys]
        if any(len(parts) != gen.arity for parts in flat):
            raise SacPatternError(f"a key does not bind {gen.arity} index variables")
        index = list(zip(*flat))
    columns = [_python_column(column) for column in index]
    if gen.value_var is not None:
        columns.append(_python_column([value for _key, value in records]))
    return columns


def _flatten_key(key: Any) -> tuple:
    if not isinstance(key, tuple):
        return (key,)
    if not any(isinstance(part, tuple) for part in key):
        return key
    return tuple(part for item in key for part in _flatten_key(item))


def _local_values(value: Any) -> np.ndarray:
    """A driver-side storage's values, flat, in sparsifier order."""
    if isinstance(value, (CooMatrix, CooVector)):
        return value.values
    if isinstance(value, (CsrMatrix, DenseMatrix, DenseVector)):
        return value.data.reshape(-1)
    if isinstance(value, np.ndarray) and value.ndim in (1, 2):
        return value.reshape(-1)
    raise KernelUnsupported(f"a {type(value).__name__} source has no columns")


def _local_columns(value: Any) -> list[np.ndarray]:
    """Index columns, then the value column, of a driver-side storage."""
    values = _value_column(_local_values(value))
    if isinstance(value, CooMatrix):
        index = [value.row_index, value.col_index]
    elif isinstance(value, CooVector):
        index = [value.index]
    elif isinstance(value, CsrMatrix):
        index = [
            np.repeat(np.arange(value.rows), np.diff(value.indptr)), value.indices
        ]
    else:
        shape = value.data.shape if not isinstance(value, np.ndarray) else value.shape
        index = [grid.reshape(-1) for grid in np.indices(shape)]
    return [*index, values]


def _tile_columns(coord: Any, tile: Any, n: int) -> list[np.ndarray]:
    """One tile's (or vector block's) global index columns and values."""
    if isinstance(tile, CscMatrix):
        local = [tile.indices, np.repeat(np.arange(tile.cols), np.diff(tile.indptr))]
        values = tile.data
    else:
        local = [grid.reshape(-1) for grid in np.indices(tile.shape)]
        values = tile.reshape(-1)
    offsets = coord if isinstance(coord, tuple) else (coord,)
    index = [grid + base * n for grid, base in zip(local, offsets)]
    return [*index, _value_column(values)]
