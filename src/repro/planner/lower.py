"""Lowering: the only place physical IR becomes RDD programs.

The rule emitters (:mod:`repro.planner.tiling`,
:mod:`repro.planner.groupby_join`, :mod:`repro.planner.rdd_rules`)
recognize patterns and emit a tree of typed nodes; the passes
(:mod:`repro.planner.passes`) may rewrite it; and this module — and
only this module — turns the result into an executable
:class:`~repro.planner.plan.Plan` built from engine RDD operations.

Lowering is compositional: :func:`lower_node` applies the one lowerer
registered for ``node.op`` to the node's lowered children, and a lowerer
reads nothing but the typed fields of its own node (and of that node's
direct children).  So whatever tree the trace shows is what runs, by
construction — swap a ``Scan`` and the program reads another storage —
and the adaptive layer's mid-job broadcast downgrade is just a second
tree through the same function.  *When* lineage is built is part of
each lowerer's contract: the 5.4 strategies and the coordinate rule
build their shuffles inside the thunk (fresh per ``execute()``, which
retained-shuffle reuse under CSE relies on), the other rules at lower
time.  The execute-time wrappers (estimated-shuffle recording, the
adaptive hook, the total-reduce / collect adapters) wrap the root's
thunk from outside the tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import (
    BinOp, BuilderApp, Call, Comprehension, Expr, Generator, IfExpr, LetQual,
    Lit, Reduce, TupleExpr, UnOp, Var, free_vars, pattern_vars, walk,
)
from ..comprehension.errors import SacPlanError, SacTypeError
from ..comprehension.interpreter import Interpreter, _hashable
from ..comprehension.monoids import monoid
from ..engine import EngineContext, GridPartitioner, HashPartitioner, RDD
from ..engine.batch import (
    ColumnBatch, TileBatch, group_reduce, merge_join, scatter, segments,
)
from ..storage.registry import REGISTRY, BuildContext
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo, GenInfo, key_components, regrouped_head_key
from .codegen import get_fused_kernel
from .groupby_join import GbjMatch, reconsider_join_strategy
from .ir import (
    IRNode, OP_ASSEMBLE, OP_BROADCAST, OP_COORDINATE, OP_FUSED_KERNEL,
    OP_GROUP_BY, OP_GROUP_BY_JOIN, OP_REPLICATE, OP_SCAN, OP_TILED_REDUCE,
    _digest,
)
from .kernels import (
    PARTIAL_CALLS, KernelUnsupported, band_gemm, compile_vectorized_cached,
)
from .passes import PlanState, analyze_cached, cse_enabled
from .plan import Plan, RULE_LOCAL, RULE_LOCAL_BATCH, rule_text
from .rdd_rules import INT_COLUMN_CAP, _join_order, _local_columns, coordinate_width
from .tiling import ResolvedGen, TiledSetup, _result_storage


def lower(state: PlanState) -> Plan:
    """Turn a pass-pipeline result into an executable plan."""
    root = state.physical
    if root is None:
        plan = lower_local(state.expr, state.env, state.build_context)
        plan.trace = state.trace
        plan.logical = state.logical
        return plan

    # Lowered first: a lowerer may annotate its node (the coordinate
    # rule records its shuffle width).  ``details`` is copied:
    # the adaptive thunk writes into it at execute time, and one root may
    # be lowered into many plans when the session reuses a pass-pipeline
    # result.
    thunk = lower_node(root, state)
    rule = root.attrs["rule"]
    plan = Plan(
        rule=rule,
        description=rule_text(rule, root.attrs.get("strategy"))[1],
        thunk=thunk,
        details=dict(root.attrs.get("details") or {}),
        estimate=root.attrs.get("estimate"),
        candidates=root.attrs.get("candidates") or {},
    )
    if root.attrs.get("adaptive_install"):
        _install_adaptive_reconsideration(plan, root, state)
    if root.attrs.get("record_estimate"):
        _record_estimate(plan, state.engine)
    _apply_wrapper(plan, state)
    plan.trace = state.trace
    plan.logical = state.logical
    plan.physical = root
    if root.attrs.get("reusable") and cse_enabled(state.options):
        plan.fingerprint = _plan_fingerprint(root, state)
    return plan


def lower_node(node: IRNode, state: PlanState) -> Any:
    """``node``'s lowerer applied to its lowered children.

    What a lowered node *is* depends on its operator: an RDD of records
    (``Scan``, ``Replicate``), a :class:`Tiles` (every tile producer), a
    thunk (``Broadcast``, and the ``Assemble``/``Coordinate`` roots,
    whose thunk is the plan's).  A node shared by CSE lowers once per
    occurrence.
    """
    lowerer = _LOWERER_FOR.get(node.op)
    if lowerer is None:
        raise SacPlanError(f"no lowerer for physical operator {node.op!r}")
    return lowerer(
        node, [lower_node(child, state) for child in node.children], state
    )


@dataclass
class Tiles:
    """A lowered tile producer: ``rdd()`` yields its tile RDD, building
    first whatever lineage the producer defers to execute time."""

    rdd: Callable[[], RDD]
    #: Boundary clipping already ran (inside a fused kernel).
    clipped: bool = False


def _plan_fingerprint(root: IRNode, state: PlanState) -> str:
    """Identity of the lowered program, for common-subplan reuse.

    Two compiles share a fingerprint only when they lowered the same
    physical DAG over the *same storage objects* under the same planner
    options and result wrapper — i.e. when handing back the earlier
    compile's Plan (and its shuffle outputs) is indistinguishable from
    re-planning.
    """
    return _digest((
        root.identity_fingerprint(),
        state.wrapper,
        state.reduce_monoid,
        state.options.cache_signature(),
    ))


def _apply_wrapper(plan: Plan, state: PlanState) -> None:
    """Adapt a distributed plan's result back into the driver."""
    if state.wrapper is None:
        return
    inner_thunk = plan.thunk
    if state.wrapper == "reduce":
        mon_name = state.reduce_monoid
        mon = monoid(mon_name) if mon_name != "count" else None

        def reduce_thunk():
            rdd = inner_thunk()
            assert isinstance(rdd, RDD)
            if mon_name == "count":
                return rdd.count()
            return rdd.aggregate(mon.zero, mon.combine, mon.combine)

        plan.description += f"; then total {mon_name}/ reduction"
        plan.thunk = reduce_thunk
    else:
        plan.description += "; collected to a list"
        plan.thunk = lambda: inner_thunk().collect()


# ----------------------------------------------------------------------
# The tiled rules' root
# ----------------------------------------------------------------------


def _lower_assemble(node: IRNode, inputs: list, state: PlanState) -> Callable:
    (tiles,) = inputs
    return lambda: _result_storage(
        node.tile_size, node.builder, node.args, tiles.rdd(),
        stats=node.out_stats, clipped=tiles.clipped,
    )


# ----------------------------------------------------------------------
# Section 5.1 — preserve-tiling (Eq. 17)
# ----------------------------------------------------------------------


def _lower_fused_kernel(node: IRNode, sources: list, state: PlanState) -> Tiles:
    """Rule 5.1's generated NumPy kernel, one call per partition.

    Rule 5.1 put the generated text on the node; here it is compiled
    (once per fingerprint, through the bounded kernel cache) and lowered
    to a single elementwise ``map_partitions``.  In ``"tiles"`` mode the
    kernel consumes the scan's raw tile records — the whole projection /
    compute / clip chain is one hop; in ``"joined"`` mode the tile join
    runs first and only compute + clip fuse.  Every partition the kernel
    runs over is counted by the entry it takes: a tile batch or records.
    """
    fused = node.kernel
    metrics = state.engine.metrics if state.engine is not None else None
    kernel = get_fused_kernel(fused.fingerprint, fused.source, metrics)
    if fused.mode == "tiles":
        (source_rdd,) = sources
    else:
        source_rdd = _join_on_out_coord(node.setup, node.out_classes, sources)
    def run(part):
        if metrics is not None:
            metrics.record_kernel_input(type(part) is TileBatch)
        return kernel(part)

    tiles_rdd = source_rdd.map_partitions(run, elementwise=True)
    return Tiles(lambda: tiles_rdd, clipped=True)


def _join_on_out_coord(
    setup: TiledSetup, out_classes: Sequence[int], sources: Sequence[RDD]
) -> RDD:
    """Join every generator's tiles on the output coordinate.

    Produces records ``(out_coords, tiles: tuple)``, one tile per
    generator in generator order.
    """
    position = {cls: pos for pos, cls in enumerate(out_classes)}
    n_out = len(out_classes)

    def keyed(gen: ResolvedGen, tiles: RDD) -> RDD:
        """Map a generator's tiles to their (replicated) output coordinates."""
        missing = [p for p, cls in enumerate(out_classes) if cls not in gen.axis_classes]
        missing_grids = [range(setup.grid_size(out_classes[p])) for p in missing]

        def expand(record):
            coords, tile = record
            base: dict[int, int] = {}
            for axis, cls in enumerate(gen.axis_classes):
                p = position[cls]
                if p in base and base[p] != coords[axis]:
                    return  # e.g. off-diagonal tile for an i == j query
                base[p] = coords[axis]
            for combo in itertools.product(*missing_grids):
                key = [0] * n_out
                for p, value in base.items():
                    key[p] = value
                for p, value in zip(missing, combo):
                    key[p] = value
                yield tuple(key), tile

        return tiles.flat_map(lambda record: list(expand(record)) or [])

    joined = keyed(setup.gens[0], sources[0]).map_values(lambda tile: (tile,))
    for gen, tiles in zip(setup.gens[1:], sources[1:]):
        joined = joined.join(keyed(gen, tiles)).map_values(
            lambda pair: pair[0] + (pair[1],)
        )
    return joined


# ----------------------------------------------------------------------
# Section 5.2 — tiled shuffle (Eq. 19)
# ----------------------------------------------------------------------


def _lower_group_by(node: IRNode, inputs: list, state: PlanState) -> Tiles:
    """groupByKey the replicated tiles, scatter each group into its tile."""
    (replicated,) = inputs
    tiles_rdd = replicated.group_by_key().map(node.assemble)
    return Tiles(lambda: tiles_rdd)


# ----------------------------------------------------------------------
# Section 5.3 — tiled reduce (join + reduceByKey)
# ----------------------------------------------------------------------


def _lower_tiled_reduce(node: IRNode, sources: list, state: PlanState) -> Tiles:
    """Join tiles on index equalities, contract per pair, reduceByKey(⊗′)."""
    out_classes, compute, finish = node.out_classes, node.compute, node.finish

    def to_partial(record):
        coords, tiles = record
        key = tuple(coords[cls] for cls in out_classes)
        return key, compute(coords, tiles)

    partials = _join_on_shared_classes(node.setup, sources).map(to_partial)
    reduced = partials.reduce_by_key(node.fold)
    tiles_rdd = reduced.map(lambda kv: (kv[0], finish(kv[0], kv[1])))
    return Tiles(lambda: tiles_rdd)


def _join_on_shared_classes(setup: TiledSetup, sources: Sequence[RDD]) -> RDD:
    """Progressively join generators' tiles on shared index classes.

    Produces records ``(coords: dict class -> block coord, tiles: tuple)``.
    """

    def initial(gen: ResolvedGen, tiles: RDD) -> RDD:
        def convert(record):
            coords, tile = record
            mapping: dict[int, int] = {}
            for axis, cls in enumerate(gen.axis_classes):
                if cls in mapping and mapping[cls] != coords[axis]:
                    return None
                mapping[cls] = coords[axis]
            return mapping, (tile,)

        return tiles.map(convert).filter(lambda r: r is not None)

    acc = initial(setup.gens[0], sources[0])
    acc_classes = set(setup.gens[0].axis_classes)
    for gen, tiles in zip(setup.gens[1:], sources[1:]):
        shared = sorted(acc_classes & set(gen.axis_classes))
        nxt = initial(gen, tiles)
        if shared:
            left = acc.map(
                lambda rec, s=tuple(shared): (tuple(rec[0][c] for c in s), rec)
            )
            right = nxt.map(
                lambda rec, s=tuple(shared): (tuple(rec[0][c] for c in s), rec)
            )
            acc = left.join(right).map(_merge_records)
        else:
            acc = acc.cartesian(nxt).map(
                lambda pair: ({**pair[0][0], **pair[1][0]}, pair[0][1] + pair[1][1])
            )
        acc_classes |= set(gen.axis_classes)
    return acc


def _merge_records(joined):
    _key, (left, right) = joined
    coords = {**left[0], **right[0]}
    return coords, left[1] + right[1]


# ----------------------------------------------------------------------
# Section 5.4 — group-by-join (SUMMA / broadcast)
# ----------------------------------------------------------------------


def _lower_broadcast(node: IRNode, inputs: list, state: PlanState) -> Callable:
    """Collect the small side and broadcast it keyed by its join coord —
    at execute time: the thunk is the parent's to call."""
    (tiles,) = inputs
    join_axis, key_axis = node.join_axis, node.key_axis

    def build():
        by_join: dict[int, list] = {}
        for coords, tile in tiles.collect():
            by_join.setdefault(coords[join_axis], []).append(
                (coords[key_axis], tile)
            )
        return tiles.ctx.broadcast(by_join)

    return build


def _lower_gbj(node: IRNode, inputs: list, state: PlanState) -> Tiles:
    """SUMMA (no broadcast ``side``): cogroup the replicated bands on
    the processor-grid cell, contract reducer-side into the cell's
    destination tiles."""
    if node.side is not None:
        return _map_side_join(node, *inputs)
    left_rdd, right_rdd = inputs
    match: GbjMatch = node.match
    contract, accumulate = match.contract, match.mon.np_combine
    gk = match.grid_join
    left_plain = match.left_join_axis == 1
    right_plain = match.right_join_axis == 0
    if cse_enabled(state.options):
        # The replicated bands are the plan's shuffle inputs.  Opting
        # their lineage in lets the BlockManager serve the recorded map
        # outputs to the fresh cogroup a later execution of this same
        # plan builds — iterations 2..k of a reused subplan skip the
        # replication shuffle entirely.
        left_rdd.mark_shuffle_reuse()
        right_rdd.mark_shuffle_reuse()

    def reduce_cell(record):
        _cell, (left_tagged, right_tagged) = record
        # Tags are ``own·gk + k`` (see ``emit_replicate``).
        by_row: dict[int, list] = {}
        for tag, tile in left_tagged:
            i, k = divmod(tag, gk)
            by_row.setdefault(i, []).append((k, tile))
        by_col: dict[int, dict[int, list]] = {}
        for tag, tile in right_tagged:
            j, k = divmod(tag, gk)
            by_col.setdefault(j, {}).setdefault(k, []).append(tile)
        # One GEMM over the cell's bands pays two band copies.  It earns
        # them where the cell spans several destination tiles; a single
        # destination's concatenated GEMM runs no faster than its tile
        # GEMMs (measured at tiles of 50 and of 200).
        if match.band_gemm and len(by_row) * len(by_col) > 1:
            tiles = band_gemm(
                [
                    (i, k, t if left_plain else t.T)
                    for i, row in by_row.items() for k, t in row
                ],
                [
                    (k, j, t if right_plain else t.T)
                    for j, col in by_col.items()
                    for k, stack in col.items() for t in stack
                ],
            )
            if tiles is not None:
                return tiles
        # Per tile pair, ascending k, into an accumulator the cell owns.
        tiles = []
        for i in sorted(by_row):
            row = sorted(by_row[i], key=lambda entry: entry[0])
            for j in sorted(by_col):
                col = by_col[j]
                out: Optional[np.ndarray] = None
                for k, left_tile in row:
                    for right_tile in col.get(k, ()):
                        partial = contract(left_tile, right_tile)
                        if out is None:
                            out = partial
                        else:
                            accumulate(out, partial, out=out)
                if out is not None:
                    tiles.append(((i, j), out))
        return tiles

    def build():
        # One partition per cell of the processor grid.
        p_r, p_c = node.grid
        partitioner = GridPartitioner(p_r, p_c, p_r * p_c)
        cogrouped = left_rdd.cogroup(right_rdd, partitioner=partitioner)
        return cogrouped.flat_map(reduce_cell)

    return Tiles(build)


def _map_side_join(node: IRNode, left: Any, right: Any) -> Tiles:
    """Stream the large side past the broadcast small one; merge the
    partial tiles with reduceByKey(⊗′)."""
    match: GbjMatch = node.match
    contract = match.contract
    small_is_left = node.side == "left"
    if small_is_left:
        broadcast_small, large = left, right
        join_axis, key_axis = match.right_join_axis, match.right_col_axis
    else:
        broadcast_small, large = right, left
        join_axis, key_axis = match.left_join_axis, match.left_row_axis

    def build():
        broadcast = broadcast_small()

        def contract_large(record):
            coords, big_tile = record
            own = coords[key_axis]
            hits = broadcast.value.get(coords[join_axis], ())
            if small_is_left:
                pairs = ((row, own, small, big_tile) for row, small in hits)
            else:
                pairs = ((own, col, big_tile, small) for col, small in hits)
            return [
                ((row, col), contract(left_tile, right_tile))
                for row, col, left_tile, right_tile in pairs
            ]

        return large.flat_map(contract_large).reduce_by_key(
            match.fold, num_partitions=node.reduce_partitions
        )

    return Tiles(build)


# ----------------------------------------------------------------------
# Section 4 — the coordinate rule (Rules 13/14) over column batches
# ----------------------------------------------------------------------

#: Environment bindings a batch expression may read besides columns.
_SCALAR_TYPES = (bool, int, float, np.number)

_ARITHMETIC_OPS = frozenset("+-*/%")
_BOOLEAN_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "&&", "||"})


@dataclass
class _BatchOps:
    """The coordinate program's array passes, wired by
    :func:`_lower_coordinate` (RDDs) or :func:`_local_plan` (in process).

    ``steps``: ``(generator, key columns of the joined rows, of its
    own)`` per ``join_order`` step, no keys for a cartesian one.  ``head``
    maps joined rows to result rows (keys ``k0..``, value ``v``); under a
    group-by, ``fold`` maps them to one row per key (``key_vars``, then
    the slots) and ``reduce`` such rows to result rows.  ``per_row``:
    why the first expression evaluated row by row has no array form.
    """

    steps: list[tuple[int, list, list]]
    head: Optional[Callable[[ColumnBatch], ColumnBatch]]
    fold: Optional[Callable[..., ColumnBatch]]
    reduce: Optional[Callable[..., ColumnBatch]]
    key_vars: list[str]
    n_keys: int
    tuple_key: bool
    per_row: Optional[str] = None


def _batch_ops(
    info: CompInfo, join_order: Sequence, env: dict[str, Any],
    build_context: BuildContext,
) -> _BatchOps:
    """``info``'s operators over column batches; raises
    :class:`SacPlanError` for a group-by with nothing to fold."""
    gens = info.generators
    # A name a pattern binds is never the environment's inside the query.
    shadowed = {name for gen in gens for name in gen.bound_vars}
    scalars = {
        name: value for name, value in env.items()
        if isinstance(value, _SCALAR_TYPES) and name not in shadowed
        and not (isinstance(value, int) and abs(value) > INT_COLUMN_CAP)  # could wrap
    }
    interpreter = Interpreter(env, build_context=build_context)
    per_row: list[str] = []

    def column(
        expr: Expr, bound: set[str], lift: Callable[[Any], Any] = lambda value: value,
    ) -> Callable[[ColumnBatch], np.ndarray]:
        """``expr`` over a batch whose columns are ``bound``: one array
        pass — or, where it has no array form or reads an ``object``
        column, the interpreter once per row, each value ``lift``ed, into
        an ``object`` column."""
        reads = sorted(free_vars(expr) & bound)
        try:
            _require_array_form(expr, bound, scalars, env)
            kernel = compile_vectorized_cached(expr, checked=True)
        except KernelUnsupported as reason:
            per_row.append(str(reason))
            kernel = None

        def evaluate(batch: ColumnBatch) -> np.ndarray:
            columns = batch.columns
            if kernel is None or any(columns[n].dtype == object for n in reads):
                read = {n: columns[n].tolist() for n in reads}
                return np.fromiter((
                    lift(interpreter.evaluate(expr, {n: v[row] for n, v in read.items()}))
                    for row in range(batch.rows)
                ), object, batch.rows)
            value = np.asarray(kernel({**scalars, **columns}))
            return value if value.ndim else np.full(batch.rows, value)

        return evaluate

    bound = set(gens[0].bound_vars)
    steps = []
    for gen_idx, left_keys, right_keys in join_order:
        own = set(gens[gen_idx].bound_vars)
        steps.append((
            gen_idx,
            [column(e, bound, _join_key) for e in left_keys],
            [column(e, own, _join_key) for e in right_keys],
        ))
        bound |= own
    guards = [column(guard, bound) for guard in info.residual_guards]

    def select(batch: ColumnBatch) -> ColumnBatch:
        for guard in guards:
            batch = batch.take(guard(batch).astype(bool, copy=False))
        return batch

    if info.group_key_vars is None:
        key_fns = [column(e, bound) for e in key_components(info.head_key)]
        value_fn = column(info.head_value, bound)

        def head(batch: ColumnBatch) -> ColumnBatch:
            batch = select(batch)
            return _result_batch([fn(batch) for fn in key_fns], value_fn(batch))

        return _BatchOps(
            steps, head, None, None, [],
            len(key_fns), isinstance(info.head_key, TupleExpr), *per_row[:1],
        )

    if not info.slots or not info.group_key_exprs:
        raise SacPlanError(
            "a distributed group-by needs aggregations over the lifted "
            "variables; collect-the-group queries run on the interpreter"
        )
    # Lists group as tuples, as the interpreter's groups key them.
    key_fns = [column(e, bound, _hashable) for e in info.group_key_exprs]
    slot_fns = [column(slot.expr, bound) for slot in info.slots]
    monoids = [monoid(slot.monoid) for slot in info.slots]
    key_vars = list(info.group_key_vars)
    names = key_vars + [slot.slot_var for slot in info.slots]
    residual = column(info.residual_value, set(names))
    head_key = regrouped_head_key(info)
    if head_key is None:
        head_fns = None
        n_keys, tuple_key = len(key_fns), len(key_fns) != 1
    else:
        head_fns = [column(e, set(names)) for e in key_components(head_key)]
        n_keys, tuple_key = len(head_fns), isinstance(head_key, TupleExpr)

    def fold(batch: ColumnBatch, python_order: bool = False) -> ColumnBatch:
        batch = select(batch)
        slots, combines = zip(*map(_foldable, [fn(batch) for fn in slot_fns], monoids))
        keys, slots = group_reduce(
            [fn(batch) for fn in key_fns], slots, combines, python_order
        )
        return ColumnBatch(dict(zip(names, keys + slots)))

    def reduce(
        pieces: Sequence[ColumnBatch], python_order: bool = False
    ) -> ColumnBatch:
        columns = ColumnBatch.concat(pieces).columns
        slots = [columns[name] for name in names[len(key_vars):]]
        slots, combines = zip(*map(_foldable, slots, monoids))
        keys, slots = group_reduce(
            [columns[name] for name in key_vars], slots, combines, python_order,
        )
        groups = ColumnBatch(dict(zip(names, keys + slots)))
        if head_fns is not None:
            keys = [fn(groups) for fn in head_fns]
        return _result_batch(keys, residual(groups))

    return _BatchOps(
        steps, None, fold, reduce, key_vars, n_keys, tuple_key, *per_row[:1]
    )


def _lower_coordinate(node: IRNode, sources: list, state: PlanState) -> Callable:
    """Element-level RDD operations over :class:`ColumnBatch` records:
    :func:`_batch_ops` wired so that each join step is a shuffle (a
    ``cartesian`` when it has no keys) and a group-by a map-side fold, a
    shuffle and a reduce-side fold.  The shuffle width, and the first
    expression evaluated per row, go on the node for ``explain()``.
    """
    ops = _batch_ops(node.info, node.join_order, state.env, state.build_context)
    builder = node.builder
    rank = {"tiled": 2, "tiled_vector": 1}.get(builder)
    # One key component may hold pairs (``group by k: (i, j)``).
    if rank and (ops.n_keys, ops.tuple_key) not in ((rank, rank > 1), (1, False)):
        raise SacPlanError(f"keys that do not index a {builder!r} builder")

    # The width follows the rows there are, not the cluster's cores.
    width = coordinate_width(
        state.engine.cluster, [(source.gen, source.value) for source in sources]
    )
    partitioner = HashPartitioner(width)
    node.width = width
    records = f"column batches (shuffle width {width})"
    if ops.per_row is not None:
        records += f"; per row: {ops.per_row}"
    node.attrs.setdefault("details", {})["records"] = records

    def scatter_on(fns: list) -> Callable[[ColumnBatch], list]:
        return lambda batch: scatter(batch, [fn(batch) for fn in fns], width)

    def join_on(left_fns: list, right_fns: list) -> Callable[[tuple], list]:
        def join(record: tuple) -> list:
            _reducer, (lefts, rights) = record
            if not lefts or not rights:
                return []
            left, right = ColumnBatch.concat(lefts), ColumnBatch.concat(rights)
            joined = merge_join(
                left, right,
                [fn(left) for fn in left_fns], [fn(right) for fn in right_fns],
            )
            return [joined] if joined.rows else []

        return join

    def partial_groups(batch: ColumnBatch) -> list:
        """Map side: one row per key of this batch, scattered by key."""
        groups = ops.fold(batch)
        keys = [groups.columns[name] for name in ops.key_vars]
        return scatter(groups, keys, width)

    def build() -> Any:
        joined = sources[0].batches(width)
        for gen_idx, left_fns, right_fns in ops.steps:
            right = sources[gen_idx].batches(width)
            if not left_fns:
                joined = joined.cartesian(right).map(
                    lambda pair: merge_join(*pair, [], [])
                )
                continue
            # ``cogroup``, not ``join``: a piece is not a value list the
            # skew splitter may chunk.
            joined = joined.flat_map(scatter_on(left_fns)).cogroup(
                right.flat_map(scatter_on(right_fns)), partitioner=partitioner,
            ).flat_map(join_on(left_fns, right_fns))
        if ops.fold is not None:
            # Reduce side: fold the map sides' partial rows in map-partition
            # order, then the residual f over the aggregates.
            result = joined.flat_map(partial_groups).group_by_key(
                partitioner=partitioner
            ).map(lambda record: ops.reduce(record[1]))
        else:
            result = joined.map(ops.head)
        n = state.build_context.tile_size
        if builder == "tiled":
            rows, cols = int(node.args[0]), int(node.args[1])
            tiles = _assemble_tiles(result, (rows, cols), n, partitioner)
            return TiledMatrix(rows, cols, n, tiles)
        if builder == "tiled_vector":
            length = int(node.args[0])
            blocks = _assemble_tiles(result, (length,), n, partitioner)
            return TiledVector(length, n, blocks)
        items = result.flat_map(
            lambda batch: _items(batch, ops.n_keys, ops.tuple_key)
        )
        if builder is None or builder == "rdd":
            return items
        return REGISTRY.build(builder, node.args, items.collect(), state.build_context)

    return build


def _require_array_form(
    expr: Expr, bound: set[str], scalars: dict, env: dict
) -> None:
    """Raise :class:`KernelUnsupported` where evaluating ``expr`` over
    whole columns would not be evaluating it row by row."""
    for sub in walk(expr):
        if isinstance(sub, TupleExpr):
            raise KernelUnsupported("a tuple value")
        if isinstance(sub, Lit) and not isinstance(sub.value, (bool, int, float)):
            raise KernelUnsupported(f"a {type(sub.value).__name__} value")
        if isinstance(sub, Var) and sub.name not in bound:
            if sub.name not in scalars:
                raise KernelUnsupported(
                    f"{sub.name!r} is neither a bound column nor a scalar"
                )
        if isinstance(sub, Call):
            if callable(env.get(sub.func)):
                raise KernelUnsupported(f"user function {sub.func!r}")
            if sub.func in ("min", "max", "pow") and len(sub.args) != 2:
                raise KernelUnsupported(f"{sub.func} of {len(sub.args)} arguments")
        # Python evaluates these lazily, NumPy both sides for every row.
        lazy = ()
        if isinstance(sub, IfExpr):
            lazy = (sub.then, sub.orelse)
        elif isinstance(sub, BinOp) and sub.op in ("&&", "||"):
            lazy = (sub.right,)
        if any(_is_partial(part) for branch in lazy for part in walk(branch)):
            raise KernelUnsupported("a partial operator behind a condition")
        # ``True + True`` is 2 in Python and ``True`` in NumPy.
        operands = ()
        if isinstance(sub, BinOp) and sub.op in _ARITHMETIC_OPS:
            operands = (sub.left, sub.right)
        elif isinstance(sub, UnOp) and sub.op == "-":
            operands = (sub.operand,)
        if any(_is_boolean(operand) for operand in operands):
            raise KernelUnsupported("arithmetic on a boolean")


def _is_partial(expr: Expr) -> bool:
    return (isinstance(expr, BinOp) and expr.op in "/%") or (
        isinstance(expr, Call) and expr.func in PARTIAL_CALLS
    )


def _is_boolean(expr: Expr) -> bool:
    return (isinstance(expr, BinOp) and expr.op in _BOOLEAN_OPS) or (
        isinstance(expr, UnOp) and expr.op != "-"
    )


def _join_key(value: Any) -> Any:
    """``value`` hashable and equal where Python's ``==`` finds it equal:
    a list is tagged, so that it never meets a tuple."""
    if isinstance(value, list):
        return (list, tuple(map(_join_key, value)))
    if isinstance(value, tuple):
        return tuple(map(_join_key, value))
    return value


def _foldable(slot: np.ndarray, mon: Any) -> tuple[np.ndarray, np.ufunc]:
    """``slot`` and the ufunc that folds it as ``mon`` does.  An ``object``
    slot, or a monoid with no ufunc (``++``), folds by ``mon.combine`` from
    each ``combine(zero, value)``, as :meth:`Monoid.fold` does."""
    if slot.dtype == object or mon.np_combine is None:
        lift = np.frompyfunc(lambda value: mon.combine(mon.zero, value), 1, 1)
        return lift(slot), np.frompyfunc(mon.combine, 2, 1)
    # A boolean slot counts as 0/1 under ``+`` and ``*``, as in Python.
    if slot.dtype == bool and mon.name in "+*":
        return slot.astype(np.int64), mon.np_combine
    # A sum folds from 0, so a lone -0.0 sums to 0.0, as in Python.
    if slot.dtype.kind == "f" and mon.name == "+":
        return slot + 0.0, mon.np_combine
    return slot, mon.np_combine


def _result_batch(keys: list[np.ndarray], value: np.ndarray) -> ColumnBatch:
    """The program's output rows: key components ``k0..``, value ``v``."""
    columns = {f"k{position}": key for position, key in enumerate(keys)}
    columns["v"] = value
    return ColumnBatch(columns)


def _items(batch: ColumnBatch, n_keys: int, tuple_key: bool) -> list:
    """A result batch as the ``(key, value)`` items a builder takes (bare
    values when the head has no key), Python scalars throughout."""
    values = batch.columns["v"].tolist()
    if not n_keys:
        return values
    keys = [batch.columns[f"k{position}"].tolist() for position in range(n_keys)]
    return list(zip(zip(*keys) if tuple_key else keys[0], values))


def _index_column(column: np.ndarray) -> np.ndarray:
    """A key component as the int64 index a tile is addressed by."""
    if column.dtype.kind not in "fO":
        return column.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # nan / inf fail the test below
        index = column.astype(np.int64)
    if (index != column).any():
        raise SacTypeError("a tiled builder needs integral indices")
    return index


def _assemble_tiles(
    result: RDD, dims: tuple[int, ...], n: int, partitioner: HashPartitioner
) -> RDD:
    """Result batches into the builder's dense ``(coord, tile)`` records.

    Rows outside ``dims`` are dropped, the rest scattered by tile
    coordinate; each tile is then one fancy assignment (of duplicate
    indices the last row wins).
    """
    rank = range(len(dims))

    def scatter_by_tile(batch: ColumnBatch) -> list:
        *keys, values = batch.columns.values()
        if len(keys) != len(dims):  # one column of (row, column) pairs
            pairs = keys[0].tolist()
            if not all(isinstance(key, tuple) and len(key) == 2 for key in pairs):
                raise SacTypeError("a tiled builder needs (row, column) keys")
            keys = [np.array(part) for part in zip(*pairs)] or keys * 2
        index = [_index_column(column) for column in keys]
        keep = np.ones(batch.rows, dtype=bool)
        for column, dim in zip(index, dims):
            keep &= (column >= 0) & (column < dim)
        kept = _result_batch(index, values).take(keep)
        coords = [kept.columns[f"k{axis}"] // n for axis in rank]
        return scatter(kept, coords, partitioner.num_partitions)

    def build_tiles(record: tuple) -> list:
        _reducer, pieces = record
        columns = ColumnBatch.concat(pieces).columns
        index = [columns[f"k{axis}"] for axis in rank]
        coords = [column // n for column in index]
        order, starts = segments(coords)
        bounds = [*starts.tolist(), len(order)]
        tiles = []
        for lo, hi in zip(bounds, bounds[1:]):
            rows = order[lo:hi]
            coord = tuple(int(column[rows[0]]) for column in coords)
            tile = np.zeros(tuple(
                min(n, dim - block * n) for block, dim in zip(coord, dims)
            ))
            tile[tuple(column[rows] % n for column in index)] = columns["v"][rows]
            tiles.append((coord if len(dims) > 1 else coord[0], tile))
        return tiles

    return result.flat_map(scatter_by_tile).group_by_key(
        partitioner=partitioner
    ).flat_map(build_tiles)


# ----------------------------------------------------------------------
# Execute-time wrappers
# ----------------------------------------------------------------------


def _install_adaptive_reconsideration(
    plan: Plan, root: IRNode, state: PlanState
) -> None:
    """Wrap the plan's thunk with the stage-boundary re-optimization.

    At execute time — when upstream stages have materialized and real
    sizes exist — the join strategy is reconsidered from measurements
    (:func:`~repro.planner.groupby_join.reconsider_join_strategy`) and
    a broadcast downgrade — an ``emit_broadcast`` tree through the same
    :func:`lower_node` — replaces the planned program if it fires.
    Every adaptive decision recorded while the plan runs (downgrades,
    but also the engine's skew splits) is sliced onto
    ``plan.adaptive_decisions`` for ``explain()``.
    """
    manager = state.engine.adaptive
    candidates = root.attrs.get("candidates") or {}
    strategy = root.attrs.get("strategy")
    inner = plan.thunk

    def thunk():
        start = len(manager.decisions)
        replacement = reconsider_join_strategy(state, candidates, strategy)
        if replacement is not None:
            tree, new_strategy = replacement
            plan.details["adaptive_strategy"] = new_strategy
            result = lower_node(tree, state)()
        else:
            result = inner()
        plan.adaptive_decisions = list(manager.decisions[start:])
        return result

    plan.thunk = thunk


def _record_estimate(plan: Plan, engine: EngineContext) -> None:
    """Record the chosen estimate when the plan actually executes."""
    if plan.estimate is None:
        return
    inner = plan.thunk
    estimated = plan.estimate.shuffle_bytes

    def thunk():
        engine.metrics.record_estimated_shuffle(estimated)
        return inner()

    plan.thunk = thunk


# ----------------------------------------------------------------------
# Sections 2-3 — local plans
# ----------------------------------------------------------------------


def lower_local(
    expr: Expr, env: dict[str, Any], build_context: BuildContext
) -> Plan:
    """A query over driver-side storages: the coordinate program's column
    batches at width 1, in process — else the reference interpreter,
    with the reason the batches could not run."""
    try:
        return _local_plan(expr, env, build_context)
    except (KernelUnsupported, SacPlanError) as reason:
        interpreter = Interpreter(env, build_context=build_context)
        return Plan(
            rule=RULE_LOCAL,
            description=rule_text(RULE_LOCAL)[1],
            thunk=lambda: interpreter.evaluate(expr),
            details={"fallback": str(reason)},
        )


def _local_plan(
    expr: Expr, env: dict[str, Any], build_context: BuildContext
) -> Plan:
    """No engine and no shuffle: ``merge_join`` the sources in
    ``join_order``, then the head, or fold → reduce the groups — each
    row the interpreter's, in its order.  The interpreter applies the
    builder or the ``op/`` fold to those rows, as it would to its own."""
    if isinstance(expr, BuilderApp) and isinstance(expr.source, Comprehension):
        comp, finish = expr.source, replace(expr, source=_ROWS)
    elif isinstance(expr, Reduce) and isinstance(expr.expr, Comprehension):
        comp, finish = expr.expr, replace(expr, expr=_ROWS)
    elif isinstance(expr, Comprehension):
        comp, finish = expr, _ROWS
    else:
        raise SacPlanError(f"not a comprehension query: {type(expr).__name__}")
    info = analyze_cached(comp)
    if info.ranges or info.post_group_quals:
        raise KernelUnsupported("a range, or a qualifier after the group-by")
    # Columns share one flat scope; where the interpreter's scoping
    # differs, its answer is the one to give.
    bound = [
        name for qual in comp.qualifiers
        if isinstance(qual, (Generator, LetQual))
        for name in pattern_vars(qual.pattern)
    ]
    if len(set(bound)) != len(bound) or free_vars(comp) & set(bound):
        raise KernelUnsupported("a name bound twice or read before it is bound")
    join_order = _join_order(info)
    # The interpreter nests generators in qualifier order; a join in any
    # other order lists the same rows in another order.
    folded = [gen_idx for gen_idx, _left, _right in join_order]
    if folded != list(range(1, len(info.generators))):
        raise KernelUnsupported("generators joined out of qualifier order")
    batches = [_local_batch(gen, env) for gen in info.generators]
    ops = _batch_ops(info, join_order, env, build_context)
    # A group-by head without a key lists bare values.
    n_keys = ops.n_keys if info.head_key is not None else 0
    interpreter = Interpreter(env, build_context=build_context)

    def run() -> Any:
        joined = batches[0]
        for gen_idx, left_fns, right_fns in ops.steps:
            right = batches[gen_idx]
            joined = merge_join(
                joined, right,
                [fn(joined) for fn in left_fns], [fn(right) for fn in right_fns],
            )
        if ops.fold is not None:
            # Re-folding one row per key keeps the rows in their order.
            groups = ops.fold(joined, python_order=True)
            result = ops.reduce([groups], python_order=True)
        else:
            result = ops.head(joined)
        rows = _items(result, n_keys, ops.tuple_key)
        return interpreter.evaluate(finish, extra_env={_ROWS.name: rows})

    return Plan(
        rule=RULE_LOCAL_BATCH,
        description=rule_text(RULE_LOCAL_BATCH)[1],
        thunk=run,
        details={"records": "column batches (in process)"},
        batch=(info, join_order),
    )


#: The local plan's result rows, as the interpreter's finishing step reads
#: them (no parsed name starts with ``$``).
_ROWS = Var("$rows")


def _local_batch(gen: GenInfo, env: dict[str, Any]) -> ColumnBatch:
    """A generator's driver-side storage as one batch of its columns."""
    value = env.get(gen.source.name) if isinstance(gen.source, Var) else None
    columns = _local_columns(value)
    if len(columns) - 1 != gen.arity:
        raise KernelUnsupported("a key pattern unlike the source's indices")
    return ColumnBatch(dict(zip(gen.bound_vars, columns)))


#: Physical operator -> its one lowerer ``(node, lowered children, state)``.
#: :func:`lower_node` failing loudly on an unknown operator is the point.
_LOWERER_FOR: dict[str, Callable[[IRNode, list, PlanState], Any]] = {
    OP_SCAN: lambda node, _inputs, state: node.records(),
    OP_FUSED_KERNEL: _lower_fused_kernel,
    OP_REPLICATE: lambda node, inputs, state: inputs[0].flat_map(node.fan_out),
    OP_GROUP_BY: _lower_group_by,
    OP_TILED_REDUCE: _lower_tiled_reduce,
    OP_BROADCAST: _lower_broadcast,
    OP_GROUP_BY_JOIN: _lower_gbj,
    OP_ASSEMBLE: _lower_assemble,
    OP_COORDINATE: _lower_coordinate,
}
