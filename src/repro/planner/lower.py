"""Lowering: the only place physical IR becomes RDD programs.

The rule emitters (:mod:`repro.planner.tiling`,
:mod:`repro.planner.groupby_join`, :mod:`repro.planner.rdd_rules`)
recognize patterns and attach a lowering payload (resolved setups,
compiled kernels, cost choices) to the physical root node; the passes
(:mod:`repro.planner.passes`) may rewrite the DAG; and this module —
and only this module — turns the result into an executable
:class:`~repro.planner.plan.Plan` built from engine RDD operations.

Keeping construction in one place is what makes the IR trustworthy:
whatever the trace shows is what runs, because nothing else can build a
program.  Lowering also implements the execute-time wrappers that used
to be scattered through the planner (estimated-shuffle recording, the
adaptive re-optimization hook, the total-reduce / collect adapters) and
the cash-out of the CSE pass: when common-subplan elimination is on,
the plan's replicated shuffle inputs are marked so the
:class:`~repro.engine.block_manager.BlockManager` may serve their map
outputs to later executions of the same (fingerprint-identical) plan.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import Expr, Var, free_vars, to_source
from ..comprehension.errors import SacPlanError
from ..comprehension.interpreter import Interpreter
from ..comprehension.monoids import monoid
from ..engine import EngineContext, GridPartitioner, RDD
from ..storage.registry import REGISTRY, BuildContext
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo
from .codegen import get_fused_kernel
from .groupby_join import GbjMatch, _match_stats, reconsider_join_strategy
from .ir import IRNode, _digest
from .kernels import combine_tiles, contract, gather
from .passes import PlanState, cse_enabled
from .plan import (
    Plan, RULE_COORDINATE, RULE_GROUP_BY_JOIN, RULE_LOCAL,
    RULE_PRESERVE_TILING, RULE_TILED_REDUCE, RULE_TILED_SHUFFLE,
)
from .tiling import ResolvedGen, TiledSetup, _result_storage, _tile_shape


def lower(state: PlanState) -> Plan:
    """Turn a pass-pipeline result into an executable plan."""
    root = state.physical
    if root is None:
        plan = lower_local(state.expr, state.env, state.build_context)
        plan.trace = state.trace
        plan.logical = state.logical
        return plan

    plan = _LOWERERS[root.attrs["rule"]](root, state)
    plan.estimate = root.attrs.get("estimate")
    plan.candidates = root.attrs.get("candidates") or {}
    if root.attrs.get("adaptive_install"):
        _install_adaptive_reconsideration(plan, root, state)
    if root.attrs.get("record_estimate"):
        _record_estimate(plan, state.engine)
    plan = _apply_wrapper(plan, state)
    plan.trace = state.trace
    plan.logical = state.logical
    plan.physical = root
    if root.attrs.get("reusable") and cse_enabled(state.options):
        plan.fingerprint = _plan_fingerprint(root, state)
    return plan


def _plan_fingerprint(root: IRNode, state: PlanState) -> str:
    """Identity of the lowered program, for common-subplan reuse.

    Two compiles share a fingerprint only when they lowered the same
    physical DAG over the *same storage objects* under the same planner
    options, result wrapper, and adaptive setting — i.e. when handing
    back the earlier compile's Plan (and its shuffle outputs) is
    indistinguishable from re-planning.
    """
    manager = getattr(state.engine, "adaptive", None)
    return _digest((
        root.identity_fingerprint(),
        state.wrapper,
        state.reduce_monoid,
        state.options.cache_signature(),
        bool(manager is not None and manager.enabled),
    ))


def _apply_wrapper(plan: Plan, state: PlanState) -> Plan:
    """Adapt a distributed plan's result back into the driver."""
    if state.wrapper is None:
        return plan
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

        return Plan(
            rule=plan.rule,
            description=(
                f"{plan.description}; then total {mon_name}/ reduction"
            ),
            thunk=reduce_thunk,
            pseudocode=plan.pseudocode,
            details=plan.details,
            estimate=plan.estimate,
            candidates=plan.candidates,
        )
    return Plan(
        rule=plan.rule,
        description=plan.description + "; collected to a list",
        thunk=lambda: inner_thunk().collect(),
        pseudocode=plan.pseudocode,
        details=plan.details,
        estimate=plan.estimate,
        candidates=plan.candidates,
    )


def _base_plan(root: IRNode, thunk: Callable[[], Any]) -> Plan:
    """A plan carrying the emitter's annotations off the root node.

    ``details`` is copied: the adaptive thunk writes into it at execute
    time, and one root may be lowered into many plans when the session
    reuses a pass-pipeline result.
    """
    return Plan(
        rule=root.attrs["rule"],
        description=root.attrs["description"],
        thunk=thunk,
        pseudocode=root.attrs.get("pseudocode", ""),
        details=dict(root.attrs.get("details") or {}),
    )


# ----------------------------------------------------------------------
# Section 5.1 — preserve-tiling (Eq. 17)
# ----------------------------------------------------------------------


def _lower_preserve(root: IRNode, state: PlanState) -> Plan:
    """Join tiles on the output coordinate, compute locally per tile."""
    fused = root.attrs.get("fused_kernel")
    if fused is not None:
        plan = _lower_preserve_fused(root, state, fused)
        if plan is not None:
            return plan
    p = root.attrs["payload"]
    setup: TiledSetup = p["setup"]
    builder, args = p["builder"], p["args"]
    out_classes, value_fn, masks = p["out_classes"], p["value_fn"], p["masks"]
    out_stats = p["out_stats"]
    info = setup.info

    position = {cls: pos for pos, cls in enumerate(out_classes)}
    keyed = [
        _keyed_by_out_coord(setup, gen, out_classes, position)
        for gen in setup.gens
    ]

    joined = keyed[0].map_values(lambda tile: (tile,))
    for other in keyed[1:]:
        joined = joined.join(other).map_values(lambda pair: pair[0] + (pair[1],))

    gens = setup.gens
    # Only materialize index grids for variables the kernels actually use.
    used = free_vars(info.head_value)
    for guard in info.residual_guards:
        used |= free_vars(guard)
    used_index_vars = {
        var for var, cls in setup.classes.items()
        if var in used and cls in position
    }
    n = setup.tile_size
    identity = list(range(len(out_classes)))
    axis_maps = [
        [position[cls] for cls in gen.axis_classes] for gen in gens
    ]
    needs_grids = bool(used_index_vars) or any(
        axis_map != identity for axis_map in axis_maps
    )

    def compute(record):
        coords, tiles = record
        shape = _tile_shape(setup, out_classes, coords)
        env: dict[str, Any] = {}
        grids = np.indices(shape) if needs_grids else None
        for var in used_index_vars:
            pos = position[setup.classes[var]]
            env[var] = grids[pos] + coords[pos] * n
        for gen, axis_map, tile in zip(gens, axis_maps, tiles):
            if gen.value_var is not None:
                if axis_map == identity:
                    env[gen.value_var] = tile
                else:
                    env[gen.value_var] = gather(tile, axis_map, grids)
        value = np.asarray(value_fn(env), dtype=np.float64)
        if value.shape != shape:
            value = np.broadcast_to(value, shape).copy()
        if masks:
            keep = np.ones(shape, dtype=bool)
            for mask_fn in masks:
                keep &= np.asarray(mask_fn(env), dtype=bool)
            value = np.where(keep, value, 0.0)
        return coords, value

    tiles_rdd = joined.map(compute)
    return _base_plan(
        root,
        lambda: _result_storage(setup, builder, args, tiles_rdd, stats=out_stats),
    )


def _lower_preserve_fused(
    root: IRNode, state: PlanState, fused: dict[str, Any]
) -> Optional[Plan]:
    """One generated NumPy kernel per partition instead of N Python hops.

    The ``fusion`` pass already proved the chain has a source form and
    stashed the generated text; here it is compiled (once per
    fingerprint, through the bounded kernel cache) and lowered to a
    single elementwise ``map_partitions``.  In ``"tiles"`` mode the
    kernel consumes the generator's raw tile records — the whole
    projection / compute / clip chain is one hop; in ``"joined"`` mode
    the tile join is kept and only compute + clip fuse.  Returns
    ``None`` on any compile-time surprise so the caller falls back to
    the interpreter chain, which is always correct.
    """
    p = root.attrs["payload"]
    setup: TiledSetup = p["setup"]
    builder, args = p["builder"], p["args"]
    out_classes, out_stats = p["out_classes"], p["out_stats"]
    metrics = state.engine.metrics if state.engine is not None else None
    try:
        kernel = get_fused_kernel(fused["fingerprint"], fused["source"], metrics)
    except Exception:
        return None
    if fused["mode"] == "tiles":
        source_rdd = setup.gens[0].tile_records()
    else:
        position = {cls: pos for pos, cls in enumerate(out_classes)}
        keyed = [
            _keyed_by_out_coord(setup, gen, out_classes, position)
            for gen in setup.gens
        ]
        source_rdd = keyed[0].map_values(lambda tile: (tile,))
        for other in keyed[1:]:
            source_rdd = source_rdd.join(other).map_values(
                lambda pair: pair[0] + (pair[1],)
            )
    tiles_rdd = source_rdd.map_partitions(kernel, elementwise=True)
    n = setup.tile_size

    def build():
        # Clipping already ran inside the kernel; build storage directly.
        if builder == "tiled":
            result = TiledMatrix(int(args[0]), int(args[1]), n, tiles_rdd)
        else:
            result = TiledVector(int(args[0]), n, tiles_rdd)
        if out_stats is not None:
            result.stats = out_stats
        return result

    return _base_plan(root, build)


def _keyed_by_out_coord(
    setup: TiledSetup,
    gen: ResolvedGen,
    out_classes: Sequence[int],
    position: dict[int, int],
) -> RDD:
    """Map a generator's tiles to their (replicated) output coordinates."""
    missing = [p for p, cls in enumerate(out_classes) if cls not in gen.axis_classes]
    missing_grids = [range(setup.grid_size(out_classes[p])) for p in missing]
    n_out = len(out_classes)

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

    return gen.tile_records().flat_map(lambda record: list(expand(record)) or [])


# ----------------------------------------------------------------------
# Section 5.2 — tiled shuffle (Eq. 19)
# ----------------------------------------------------------------------


def _lower_shuffle(root: IRNode, state: PlanState) -> Plan:
    """Replicate tiles to I_f(K), groupByKey, scatter into output tiles."""
    p = root.attrs["payload"]
    setup: TiledSetup = p["setup"]
    builder, args = p["builder"], p["args"]
    out_dims, key_fns = p["out_dims"], p["key_fns"]
    value_fn, masks, out_stats = p["value_fn"], p["masks"], p["out_stats"]
    gen = setup.gens[0]
    n = setup.tile_size

    def tile_env(coords, tile):
        grids = np.indices(tile.shape)
        # Bind each index variable to its own axis (by position, not by
        # class: a residual ``i == j`` unifies the classes but the two
        # variables still read different axes — the guard masks them).
        env: dict[str, Any] = {}
        for axis, var in enumerate(gen.index_vars):
            env[var] = grids[axis] + coords[axis] * n
        if gen.value_var is not None:
            env[gen.value_var] = tile
        return env

    def keep_mask(env, shape):
        keep = np.ones(shape, dtype=bool)
        for mask_fn in masks:
            keep &= np.asarray(mask_fn(env), dtype=bool)
        return keep

    def replicate(record):
        """Compute I_f for one tile: destination coords it contributes to."""
        coords, tile = record
        env = tile_env(coords, tile)
        keys = [np.asarray(fn(env)) for fn in key_fns]
        keep = keep_mask(env, tile.shape)
        for dim, key in zip(out_dims, keys):
            keep &= (key >= 0) & (key < dim)
        if not keep.any():
            return []
        dest = np.stack(
            [np.broadcast_to(key, tile.shape)[keep] // n for key in keys], axis=-1
        )
        unique = {tuple(int(c) for c in row) for row in np.unique(dest, axis=0)}
        return [(k, (coords, tile)) for k in sorted(unique)]

    replicated = gen.tile_records().flat_map(replicate)
    grouped = replicated.group_by_key()

    def assemble(record):
        out_coord, contributions = record
        shape = tuple(
            min(n, dim - c * n) for dim, c in zip(out_dims, out_coord)
        )
        out = np.zeros(shape)
        for coords, tile in contributions:
            env = tile_env(coords, tile)
            keys = [
                np.broadcast_to(np.asarray(fn(env)), tile.shape) for fn in key_fns
            ]
            keep = keep_mask(env, tile.shape)
            for dim, key in zip(out_dims, keys):
                keep &= (key >= 0) & (key < dim)
            for key, k_block in zip(keys, out_coord):
                keep &= key // n == k_block
            if not keep.any():
                continue
            value = np.broadcast_to(
                np.asarray(value_fn(env), dtype=np.float64), tile.shape
            )
            locals_ = tuple(
                (key[keep] - k_block * n) for key, k_block in zip(keys, out_coord)
            )
            out[locals_] = value[keep]
        return out_coord, out

    tiles_rdd = grouped.map(assemble)
    return _base_plan(
        root,
        lambda: _result_storage(setup, builder, args, tiles_rdd, stats=out_stats),
    )


# ----------------------------------------------------------------------
# Section 5.3 — tiled reduce (join + reduceByKey)
# ----------------------------------------------------------------------


def _lower_tiled_reduce(root: IRNode, state: PlanState) -> Plan:
    """Join tiles on index equalities, contract per pair, reduceByKey(⊗′)."""
    p = root.attrs["payload"]
    setup: TiledSetup = p["setup"]
    builder, args = p["builder"], p["args"]
    out_classes, slot_monoids = p["out_classes"], p["slot_monoids"]
    compute, finish, out_stats = p["compute"], p["finish"], p["out_stats"]

    joined = _join_on_shared_classes(setup)

    def to_partial(record):
        coords, tiles = record
        key = tuple(coords[cls] for cls in out_classes)
        return key, compute(coords, tiles)

    def combine(left, right):
        return tuple(
            combine_tiles(m, a, b) for m, a, b in zip(slot_monoids, left, right)
        )

    partials = joined.map(to_partial)
    reduced = partials.reduce_by_key(combine)
    tiles_rdd = reduced.map(lambda kv: (kv[0], finish(kv[0], kv[1])))
    return _base_plan(
        root,
        lambda: _result_storage(setup, builder, args, tiles_rdd, stats=out_stats),
    )


def _join_on_shared_classes(setup: TiledSetup) -> RDD:
    """Progressively join generators' tiles on shared index classes.

    Produces records ``(coords: dict class -> block coord, tiles: tuple)``.
    """

    def initial(gen: ResolvedGen) -> RDD:
        def convert(record):
            coords, tile = record
            mapping: dict[int, int] = {}
            for axis, cls in enumerate(gen.axis_classes):
                if cls in mapping and mapping[cls] != coords[axis]:
                    return None
                mapping[cls] = coords[axis]
            return mapping, (tile,)

        return gen.tile_records().map(convert).filter(lambda r: r is not None)

    acc = initial(setup.gens[0])
    acc_classes = set(setup.gens[0].axis_classes)
    for gen in setup.gens[1:]:
        shared = sorted(acc_classes & set(gen.axis_classes))
        nxt = initial(gen)
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


def _lower_group_by_join(root: IRNode, state: PlanState) -> Plan:
    p = root.attrs["payload"]
    if "side" in p:
        thunk = build_broadcast_thunk(
            p["setup"], p["match"], p["builder"], p["args"], p["side"],
            reduce_partitions=p["reduce_partitions"],
        )
        return _base_plan(root, thunk)
    return _lower_gbj_replicate(root, state)


def _lower_gbj_replicate(root: IRNode, state: PlanState) -> Plan:
    """The SUMMA-style translation: replicate row/column tile bands."""
    p = root.attrs["payload"]
    setup: TiledSetup = p["setup"]
    match: GbjMatch = p["match"]
    builder, args = p["builder"], p["args"]
    left_gen, right_gen = match.left_gen, match.right_gen
    grid_rows, grid_cols = match.grid_rows, match.grid_cols
    left_row_axis, left_join_axis = match.left_row_axis, match.left_join_axis
    right_col_axis, right_join_axis = match.right_col_axis, match.right_join_axis
    left_axes, right_axes, out_axes = match.left_axes, match.right_axes, match.out_axes
    term, mon, value_vars = match.term, match.mon, match.value_vars

    def replicate_left(record):
        coords, tile = record
        row = coords[left_row_axis]
        k = coords[left_join_axis]
        return [((row, q), (k, tile)) for q in range(grid_cols)]

    def replicate_right(record):
        coords, tile = record
        col = coords[right_col_axis]
        k = coords[right_join_axis]
        return [((p, col), (k, tile)) for p in range(grid_rows)]

    left_rdd = left_gen.tile_records().flat_map(replicate_left)
    right_rdd = right_gen.tile_records().flat_map(replicate_right)
    if root.attrs.get("cse") and cse_enabled(state.options):
        # The replicated bands are the plan's shuffle inputs.  Opting
        # their lineage in lets the BlockManager serve the recorded map
        # outputs to the fresh cogroup a later execution of this same
        # plan builds — iterations 2..k of a reused subplan skip the
        # replication shuffle entirely.
        left_rdd.mark_shuffle_reuse()
        right_rdd.mark_shuffle_reuse()

    def reduce_destination(record):
        key, (left_tiles, right_tiles) = record
        by_k: dict[int, list[np.ndarray]] = {}
        for k, tile in right_tiles:
            by_k.setdefault(k, []).append(tile)
        out: Optional[np.ndarray] = None
        for k, left_tile in left_tiles:
            for right_tile in by_k.get(k, ()):
                partial = contract(
                    left_tile, right_tile, left_axes, right_axes, out_axes,
                    term, mon, (value_vars[0], value_vars[1]),
                )
                out = partial if out is None else combine_tiles(mon, out, partial)
        if out is None:
            return None
        return key, out

    def build():
        engine = left_gen.tiles.ctx
        partitioner = GridPartitioner(
            grid_rows, grid_cols, engine.default_parallelism
        )
        cogrouped = left_rdd.cogroup(right_rdd, partitioner=partitioner)
        tiles_rdd = (
            cogrouped.map(reduce_destination).filter(lambda r: r is not None)
        )
        return _result_storage(
            setup, builder, args, tiles_rdd, stats=_match_stats(match)
        )

    return _base_plan(root, build)


def build_broadcast_thunk(
    setup: TiledSetup,
    match: GbjMatch,
    builder: str,
    args: tuple,
    side: str,
    reduce_partitions: Optional[int] = None,
) -> Callable[[], Any]:
    """Map-side join: broadcast the small ``side``, stream the large side.

    Also used directly by the adaptive layer
    (:func:`~repro.planner.groupby_join.reconsider_join_strategy`) when
    a runtime measurement downgrades a planned strategy to broadcast.
    """
    small_is_left = side == "left"
    small = match.left_gen if small_is_left else match.right_gen
    large = match.right_gen if small_is_left else match.left_gen
    left_row_axis, left_join_axis = match.left_row_axis, match.left_join_axis
    right_col_axis, right_join_axis = match.right_col_axis, match.right_join_axis
    left_axes, right_axes, out_axes = match.left_axes, match.right_axes, match.out_axes
    term, mon, value_vars = match.term, match.mon, match.value_vars

    def build():
        engine = large.tiles.ctx
        # Collect and broadcast the small side, keyed by its join coord.
        by_join: dict[int, list] = {}
        if small_is_left:
            for coords, tile in small.tile_records().collect():
                by_join.setdefault(coords[left_join_axis], []).append(
                    (coords[left_row_axis], tile)
                )
        else:
            for coords, tile in small.tile_records().collect():
                by_join.setdefault(coords[right_join_axis], []).append(
                    (coords[right_col_axis], tile)
                )
        broadcast = engine.broadcast(by_join)

        def contract_large(record):
            coords, big_tile = record
            out = []
            if small_is_left:
                k = coords[right_join_axis]
                col = coords[right_col_axis]
                for row, small_tile in broadcast.value.get(k, ()):
                    partial = contract(
                        small_tile, big_tile, left_axes, right_axes, out_axes,
                        term, mon, (value_vars[0], value_vars[1]),
                    )
                    out.append(((row, col), partial))
            else:
                k = coords[left_join_axis]
                row = coords[left_row_axis]
                for col, small_tile in broadcast.value.get(k, ()):
                    partial = contract(
                        big_tile, small_tile, left_axes, right_axes, out_axes,
                        term, mon, (value_vars[0], value_vars[1]),
                    )
                    out.append(((row, col), partial))
            return out

        tiles_rdd = (
            large.tile_records()
            .flat_map(contract_large)
            .reduce_by_key(
                lambda a, b: combine_tiles(mon, a, b),
                num_partitions=reduce_partitions,
            )
        )
        return _result_storage(
            setup, builder, args, tiles_rdd, stats=_match_stats(match)
        )

    return build


# ----------------------------------------------------------------------
# Section 4 — coordinate fallback (Rules 13/14)
# ----------------------------------------------------------------------


def _lower_coordinate(root: IRNode, state: PlanState) -> Plan:
    """Element-level RDD operations: joins (Rule 14), group-by (Rule 13)."""
    p = root.attrs["payload"]
    info: CompInfo = p["info"]
    env, engine = p["env"], p["engine"]
    builder, args = p["builder"], p["args"]
    build_context: BuildContext = p["build_context"]
    sources: list[RDD] = p["sources"]

    evaluator = Interpreter(env, build_context=build_context)

    def expr_fn(expr: Expr) -> Callable[[dict], Any]:
        return lambda record: evaluator.evaluate(expr, extra_env=record)

    steps: list[str] = []

    def build() -> Any:
        rdd = _join_generators(info, sources, expr_fn, steps)
        for guard in info.residual_guards:
            fn = expr_fn(guard)
            rdd = rdd.filter(fn)
            steps.append(f".filter({to_source(guard)})")
        if info.group_key_vars is not None:
            rdd = _apply_group_by(info, rdd, expr_fn, steps)
        else:
            key_fn = expr_fn(info.head_key) if info.head_key is not None else None
            value_fn = expr_fn(info.head_value)
            if key_fn is None:
                rdd = rdd.map(value_fn)
                steps.append(".map(head)")
            else:
                rdd = rdd.map(lambda record: (key_fn(record), value_fn(record)))
                steps.append(f".map(record => ({to_source(info.head_key)}, value))")
        return _finish(rdd, engine, builder, args, build_context)

    plan = _base_plan(root, build)
    plan.pseudocode = "\n".join(["<elements>"] + steps) if steps else ""
    return plan


def _join_generators(
    info: CompInfo,
    sources: list[RDD],
    expr_fn: Callable[[Expr], Callable[[dict], Any]],
    steps: list[str],
) -> RDD:
    """Fold generators into one RDD of record dicts, joining when possible."""
    patterns = [
        _record_binder(gen) for gen in info.generators
    ]
    joined_rdd = sources[0].map(patterns[0])
    joined_set = {0}
    steps.append(f"{_gen_name(info, 0)}.map(bind)")
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
            left_fns = [expr_fn(e) for e in left_keys]
            right_fns = [expr_fn(e) for e in right_keys]
            bind = patterns[gen_idx]
            left = joined_rdd.map(
                lambda rec, fns=tuple(left_fns): (tuple(f(rec) for f in fns), rec)
            )
            right = sources[gen_idx].map(bind).map(
                lambda rec, fns=tuple(right_fns): (tuple(f(rec) for f in fns), rec)
            )
            joined_rdd = left.join(right).map(
                lambda kv: {**kv[1][0], **kv[1][1]}
            )
            steps.append(
                f".join({_gen_name(info, gen_idx)} on "
                f"{[to_source(e) for e in left_keys]})"
            )
            joined_set.add(gen_idx)
            remaining.remove(gen_idx)
            for cond in conds:
                pending_joins.remove(cond)
            progress = True
        if not progress:
            # No join condition available: cartesian product.
            gen_idx = remaining.pop(0)
            bind = patterns[gen_idx]
            joined_rdd = joined_rdd.cartesian(sources[gen_idx].map(bind)).map(
                lambda pair: {**pair[0], **pair[1]}
            )
            steps.append(f".cartesian({_gen_name(info, gen_idx)})")
            joined_set.add(gen_idx)
    return joined_rdd


def _record_binder(gen) -> Callable[[tuple], dict]:
    index_vars = list(gen.index_vars)
    value_var = gen.value_var

    def bind(pair: tuple) -> dict:
        key, value = pair
        record: dict[str, Any] = {}
        if len(index_vars) == 1:
            record[index_vars[0]] = key
        else:
            flat = _flatten_key(key)
            for name, part in zip(index_vars, flat):
                record[name] = part
        if value_var is not None:
            record[value_var] = value
        return record

    return bind


def _flatten_key(key: Any) -> list:
    if isinstance(key, tuple):
        out: list = []
        for part in key:
            out.extend(_flatten_key(part))
        return out
    return [key]


def _gen_name(info: CompInfo, index: int) -> str:
    source = info.generators[index].source
    return source.name if isinstance(source, Var) else f"gen{index}"


def _apply_group_by(
    info: CompInfo,
    rdd: RDD,
    expr_fn: Callable[[Expr], Callable[[dict], Any]],
    steps: list[str],
) -> RDD:
    if not info.slots:
        raise SacPlanError(
            "a distributed group-by needs aggregations over the lifted "
            "variables; collect-the-group queries run on the interpreter"
        )
    key_fns = [expr_fn(e) for e in (info.group_key_exprs or [])]
    slot_fns = [expr_fn(slot.expr) for slot in info.slots]
    monoids = [monoid(slot.monoid) for slot in info.slots]
    single_key = len(key_fns) == 1

    def to_pair(record: dict) -> tuple:
        key = key_fns[0](record) if single_key else tuple(f(record) for f in key_fns)
        return key, tuple(f(record) for f in slot_fns)

    def combine(left: tuple, right: tuple) -> tuple:
        return tuple(m.combine(a, b) for m, a, b in zip(monoids, left, right))

    reduced = rdd.map(to_pair).reduce_by_key(combine)
    steps.append(
        ".map(record => (key, (g1..gm))).reduceByKey(⊗)"
    )

    residual = info.residual_value
    slot_vars = [slot.slot_var for slot in info.slots]
    if len(slot_vars) == 1 and residual == Var(slot_vars[0]):
        result = reduced.map_values(lambda aggs: aggs[0])
    else:
        finish = expr_fn(residual)
        key_vars = info.group_key_vars or []

        def apply_residual(kv):
            key, aggs = kv
            record = dict(zip(slot_vars, aggs))
            parts = key if isinstance(key, tuple) else (key,)
            record.update(zip(key_vars, parts))
            return key, finish(record)

        result = reduced.map(apply_residual)
        steps.append(".mapValues(f)")
    return result


def _finish(
    rdd: RDD,
    engine: EngineContext,
    builder: Optional[str],
    args: tuple,
    build_context: BuildContext,
) -> Any:
    """Down-coerce the element RDD through the requested builder."""
    if builder is None or builder == "rdd":
        return rdd
    if builder == "tiled":
        return _assemble_tiled_matrix(rdd, engine, int(args[0]), int(args[1]), build_context)
    if builder == "tiled_vector":
        return _assemble_tiled_vector(rdd, engine, int(args[0]), build_context)
    # Local builders: collect the elements to the driver and build there.
    return REGISTRY.build(builder, args, rdd.collect(), build_context)


def _assemble_tiled_matrix(
    rdd: RDD, engine: EngineContext, rows: int, cols: int, ctx: BuildContext
) -> TiledMatrix:
    """The paper's distributed ``tiled`` builder: group elements by tile.

    Uses ``combineByKey`` so elements accumulate into dense tile buffers
    map-side instead of shuffling a list per tile (groupByKey).
    """
    n = ctx.tile_size
    helper = TiledMatrix(rows, cols, n, engine.empty_rdd())

    def create(entry):
        coord, offset_value = entry
        tile = np.zeros(helper.tile_shape(*coord))
        tile[offset_value[0]] = offset_value[1]
        return tile

    def merge_value(tile, entry):
        _coord, offset_value = entry
        tile[offset_value[0]] = offset_value[1]
        return tile

    def merge_tiles(a, b):
        return np.where(b != 0, b, a)

    keyed = rdd.filter(
        lambda kv: 0 <= kv[0][0] < rows and 0 <= kv[0][1] < cols
    ).map(
        lambda kv: (
            (kv[0][0] // n, kv[0][1] // n),
            ((kv[0][0] // n, kv[0][1] // n), ((kv[0][0] % n, kv[0][1] % n), kv[1])),
        )
    )
    tiles = keyed.combine_by_key(create, merge_value, merge_tiles)
    return TiledMatrix(rows, cols, n, tiles)


def _assemble_tiled_vector(
    rdd: RDD, engine: EngineContext, length: int, ctx: BuildContext
) -> TiledVector:
    n = ctx.tile_size
    helper = TiledVector(length, n, engine.empty_rdd())

    def create(entry):
        block_index, offset_value = entry
        block = np.zeros(helper.block_length(block_index))
        block[offset_value[0]] = offset_value[1]
        return block

    def merge_value(block, entry):
        _index, offset_value = entry
        block[offset_value[0]] = offset_value[1]
        return block

    def merge_blocks(a, b):
        return np.where(b != 0, b, a)

    keyed = rdd.filter(lambda kv: 0 <= kv[0] < length).map(
        lambda kv: (kv[0] // n, (kv[0] // n, (kv[0] % n, kv[1])))
    )
    blocks = keyed.combine_by_key(create, merge_value, merge_blocks)
    return TiledVector(length, n, blocks)


# ----------------------------------------------------------------------
# Execute-time wrappers
# ----------------------------------------------------------------------


def _install_adaptive_reconsideration(
    plan: Plan, root: IRNode, state: PlanState
) -> Plan:
    """Wrap the plan's thunk with the stage-boundary re-optimization.

    At execute time — when upstream stages have materialized and real
    sizes exist — the join strategy is reconsidered from measurements
    (:func:`~repro.planner.groupby_join.reconsider_join_strategy`) and
    a broadcast downgrade replaces the planned program if it fires.
    Every adaptive decision recorded while the plan runs (downgrades,
    but also the engine's skew splits and partition coalescing) is
    sliced onto ``plan.adaptive_decisions`` for ``explain()``.
    """
    engine = state.engine
    manager = getattr(engine, "adaptive", None)
    if manager is None or not manager.enabled:
        return plan
    p = root.attrs["payload"]
    setup = p["setup"]
    builder, args = p["builder"], p["args"]
    # Tiled-reduce roots carry no GbjMatch in their payload; the pass
    # that armed the hook recorded the matched pattern separately.
    match = root.attrs["adaptive_match"]
    candidates = root.attrs.get("candidates") or {}
    strategy = root.attrs.get("strategy")
    inner = plan.thunk

    def thunk():
        start = len(manager.decisions)
        replacement = reconsider_join_strategy(
            engine, setup, match, candidates, strategy, builder, args
        )
        if replacement is not None:
            new_thunk, new_strategy = replacement
            plan.details["adaptive_strategy"] = new_strategy
            result = new_thunk()
        else:
            result = inner()
        plan.adaptive_decisions = list(manager.decisions[start:])
        return result

    plan.thunk = thunk
    return plan


def _record_estimate(plan: Plan, engine: EngineContext) -> Plan:
    """Record the chosen estimate when the plan actually executes."""
    if plan.estimate is None:
        return plan
    inner = plan.thunk
    estimated = plan.estimate.shuffle_bytes

    def thunk():
        engine.metrics.record_estimated_shuffle(estimated)
        return inner()

    plan.thunk = thunk
    return plan


# ----------------------------------------------------------------------
# Local fallback
# ----------------------------------------------------------------------


def lower_local(
    expr: Expr, env: dict[str, Any], build_context: BuildContext
) -> Plan:
    from .local_codegen import CodegenUnsupported, compile_local
    from .plan import RULE_LOCAL_CODEGEN

    try:
        source, thunk = compile_local(expr, env, build_context)
    except CodegenUnsupported as reason:
        interpreter = Interpreter(env, build_context=build_context)
        return Plan(
            rule=RULE_LOCAL,
            description="reference in-memory evaluation (Sections 2-3)",
            thunk=lambda: interpreter.evaluate(expr),
            details={"codegen_fallback": str(reason)},
        )
    return Plan(
        rule=RULE_LOCAL_CODEGEN,
        description=(
            "generated imperative loop code (Sections 2-3): sparsifiers "
            "inlined as index loops, builders as array writes"
        ),
        thunk=thunk,
        pseudocode=source,
    )


#: Rule name -> lowerer.  Adding a rule means adding an emitter *and* a
#: lowerer; the dispatch failing loudly on an unknown rule is the point.
_LOWERERS: dict[str, Callable[[IRNode, PlanState], Plan]] = {
    RULE_PRESERVE_TILING: _lower_preserve,
    RULE_TILED_SHUFFLE: _lower_shuffle,
    RULE_TILED_REDUCE: _lower_tiled_reduce,
    RULE_GROUP_BY_JOIN: _lower_group_by_join,
    RULE_COORDINATE: _lower_coordinate,
}
