"""Generic RDD translation — paper Section 4, Rules (13) and (14).

This path evaluates a comprehension over *element-level* records:
every generator becomes an RDD of ``(key, value)`` coordinate pairs
(tiled inputs are sparsified distributedly, tile by tile), equality
guards between generators become RDD joins (Rule 14), and a group-by
with aggregations becomes ``map`` + ``reduceByKey(⊗)`` + ``mapValues(f)``
(Rule 13).

It is the reproduction of the paper's coordinate-format execution — the
thing Section 5 improves on — and doubles as the planner's safety net:
any comprehension too irregular for the tiled rules (e.g. the smoothing
stencil, whose group key is range-generated) still runs distributed
through here.

The program has two record types.  When every source yields numeric
columns and every expression has an array form, records are
:class:`~repro.engine.batch.ColumnBatch` es — one per partition, a
column per bound variable — and each operator is an array pass.
Otherwise records flow as plain ``dict`` environments, one per element,
and all expression evaluation reuses the reference interpreter, so that
path is correct by construction for anything the interpreter accepts.

The rule here *recognizes* and *plans*: it emits a ``Coordinate`` IR
node over one element ``Scan`` per generator (an :class:`ElementSource`,
readable as either record type), carrying the join order it chose (a
function of the analysis, never of data) and the program text
``explain()`` prints; the runtime (joins, group-by, assembly) and the
choice of record type live in :mod:`repro.planner.lower`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from ..comprehension.ast import Expr, Var, to_source
from ..comprehension.errors import SacTypeError
from ..engine import EngineContext, RDD
from ..engine.batch import ColumnBatch
from ..storage import CooMatrix, CooVector, CsrMatrix, DenseMatrix, DenseVector
from ..storage.csc import CscMatrix
from ..storage.registry import REGISTRY, BuildContext
from ..storage.sparse_tiled import SparseTiledMatrix
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo, GenInfo, regrouped_head_key
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
        description=(
            "element-level translation: coordinate pairs joined with RDD "
            "joins (Rule 14), aggregated with reduceByKey (Rule 13)"
        ),
        pseudocode=_pseudocode(info, [s.label for s in scans], join_order),
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


def _pseudocode(info: CompInfo, names: list[str], join_order: list) -> str:
    """The element-level program, one RDD operator per line."""
    steps = ["<elements>", f"{names[0]}.map(bind)"]
    for gen_idx, left_keys, _right_keys in join_order:
        if left_keys:
            steps.append(
                f".join({names[gen_idx]} on {[to_source(e) for e in left_keys]})"
            )
        else:
            steps.append(f".cartesian({names[gen_idx]})")
    steps += [f".filter({to_source(g)})" for g in info.residual_guards]
    if info.group_key_vars is not None:
        steps.append(".map(record => (key, (g1..gm))).reduceByKey(⊗)")
        slot_vars = [slot.slot_var for slot in info.slots]
        head_key = regrouped_head_key(info)
        if head_key is not None:
            steps.append(f".map((key, aggs) => ({to_source(head_key)}, f))")
        elif not (len(slot_vars) == 1 and info.residual_value == Var(slot_vars[0])):
            steps.append(".mapValues(f)")
    elif info.head_key is None:
        steps.append(".map(head)")
    else:
        steps.append(f".map(record => ({to_source(info.head_key)}, value))")
    return "\n".join(steps)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


@dataclass
class ElementSource:
    """One generator's source, readable as either record type.

    :meth:`pairs` is the RDD of ``(key, value)`` coordinate pairs;
    :meth:`rows` / :meth:`batches` read the same elements as
    :class:`~repro.engine.batch.ColumnBatch` records — one column per
    index variable plus the value variable's — and raise
    :class:`KernelUnsupported` for a source that does not yield numeric
    columns (``rows`` at lowering time, so the lowerer can decide).
    """

    gen: GenInfo
    value: Any
    engine: EngineContext
    _pairs: Optional[RDD] = None

    def pairs(self) -> RDD:
        """Built once: the node (and a session's cached pass result)
        keeps it across lowerings."""
        if self._pairs is None:
            self._pairs = self._element_rdd()
        return self._pairs

    def _element_rdd(self) -> RDD:
        value = self.value
        if isinstance(value, RDD):
            return value
        if isinstance(value, TiledMatrix):
            n = value.tile_size

            def explode_matrix(record):
                (bi, bj), tile = record
                for i in range(tile.shape[0]):
                    for j in range(tile.shape[1]):
                        yield (bi * n + i, bj * n + j), tile[i, j].item()

            return value.tiles.flat_map(explode_matrix)
        if isinstance(value, TiledVector):
            n = value.tile_size

            def explode_vector(record):
                bi, block = record
                for i in range(block.shape[0]):
                    yield bi * n + i, block[i].item()

            return value.blocks.flat_map(explode_vector)
        if isinstance(value, SparseTiledMatrix):
            n = value.tile_size

            def explode_sparse(record):
                (bi, bj), tile = record
                for (i, j), element in tile.sparsify():
                    yield (bi * n + i, bj * n + j), element

            return value.tiles.flat_map(explode_sparse)
        if isinstance(value, list):
            return self.engine.parallelize(value)
        return self.engine.parallelize(list(REGISTRY.sparsify(value)))

    def rows(self) -> int:
        """Rows :meth:`batches` yields (an upper bound for sparse tiles)."""
        value = self.value
        if isinstance(value, (TiledMatrix, SparseTiledMatrix)):
            # ``density()`` is the recorded statistic (1.0 when dense or
            # unknown), never a count action.
            density = value.density() if isinstance(value, SparseTiledMatrix) else 1.0
            return math.ceil(density * value.rows * value.cols)
        if isinstance(value, TiledVector):
            return value.length
        return len(_value_column(_local_values(value)))

    def batches(self, width: int) -> RDD:
        """``width`` contiguous slices of a local storage's columns; for a
        tiled one, every partition's tiles as one batch."""
        value, names = self.value, self.gen.bound_vars

        def batch(columns: Sequence[np.ndarray]) -> ColumnBatch:
            return ColumnBatch(dict(zip(names, columns)))

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


def _element_source(
    gen: GenInfo, env: dict[str, Any], engine: EngineContext
) -> Optional[ElementSource]:
    if not isinstance(gen.source, Var):
        return None
    value = env.get(gen.source.name)
    if isinstance(value, (
        RDD, TiledMatrix, TiledVector, SparseTiledMatrix, CooMatrix, CooVector,
        CsrMatrix, DenseMatrix, DenseVector, np.ndarray, list,
    )):
        return ElementSource(gen, value, engine)
    return None


#: Python ints are unbounded; a value column past this magnitude could
#: wrap in int64 where the per-record program would not.
INT_COLUMN_CAP = 1 << 62


def _value_column(values: np.ndarray) -> np.ndarray:
    """``values`` as a float64 or int64 column (booleans count as ints,
    as they do in Python arithmetic)."""
    kind = values.dtype.kind
    if kind == "f":
        return values.astype(np.float64, copy=False)
    if kind not in "iub":
        raise KernelUnsupported(f"values of dtype {values.dtype} do not fit a column")
    if kind != "b" and values.size and (
        int(values.max()) > INT_COLUMN_CAP or int(values.min()) < -INT_COLUMN_CAP
    ):
        raise KernelUnsupported("integer values beyond ±2**62 could wrap in int64")
    return values.astype(np.int64, copy=False)


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
    try:
        values = _value_column(values)
    except KernelUnsupported as exc:
        raise SacTypeError(f"the coordinate rule reads numeric tiles: {exc}") from None
    return [*(grid + base * n for grid, base in zip(local, offsets)), values]
