"""The group-by-join translation (paper Section 5.4).

A *group-by-join* is a join of two arrays followed by a group-by whose
key pairs one dimension from each side, and an aggregation::

    tiled(n,m)[ (k, ⊕/c) | ((i,j),a) <- A, ((ii,jj),b) <- B,
                kx(i,j) == ky(ii,jj), let c = h(a,b),
                group by k: (gx(i,j), gy(ii,jj)) ]

Matrix multiplication is the canonical instance (gx = i, kx = k,
ky = kk, gy = j, h = a*b, ⊕ = +).  Instead of shuffling one partial
product tile per (i, k, j) triple — what the Section 5.3 translation
does — this rule cuts the result's tile grid into a ``p_r × p_c``
processor grid of *cells*, replicates each A-tile to the ``p_c`` cells
of its row band and each B-tile to the ``p_r`` cells of its column
band, cogroups on the cell, and evaluates all contractions
reducer-side — one band GEMM per cell where cells span several
destination tiles, the term is a multiply-add and every block is
stored; per tile pair into an owned accumulator otherwise.  This is the SUMMA algorithm; total shuffle volume is
``|A|·p_c + |B|·p_r`` tiles instead of ``n·l·m/N³`` partial products.
The cost model picks the grid (:meth:`CostModel.replicate`);
``p_r = n/N, p_c = m/N`` is the paper's one destination tile per cell.

Matching and building are split so the planner can *cost* the
candidates first: :func:`match_group_by_join` recognizes the pattern
and returns a :class:`GbjMatch` carrying the quantities the cost model
needs (grids, dimensions, partition counts via the generators), then
:func:`emit_replicate` / :func:`emit_broadcast` emit the chosen
physical tree, which :mod:`repro.planner.lower` turns into the RDD
program node by node — at compile time and, when the adaptive layer
downgrades a strategy mid-job, again for the replacement tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..comprehension.ast import Var, free_vars, to_source
from ..engine import RecordSizeAccountant
from ..engine.adaptive import AdaptiveDecision
from ..comprehension.monoids import Monoid, monoid
from ..storage import stats as density
from .cost import (
    STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT, STRATEGY_REPLICATE,
    CostModel, choose_strategy,
)
from .ir import (
    BroadcastNode, GroupByJoinNode, IRNode, ReplicateNode, scan_gen_node,
)
from .kernels import _is_multiply_add, combine_tiles
from .plan import RULE_GROUP_BY_JOIN
from .tiling import (
    ResolvedGen, TiledSetup, _drop_if_dense, _out_classes, assemble_root,
    axis_names, bind_contraction,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from .passes import PlanState

#: Bytes per float64 element (kept in sync with cost.ELEMENT_BYTES).
_ELEMENT_BYTES = 8


@dataclass
class GbjMatch:
    """A recognized group-by-join, plus the shape facts the cost model uses.

    ``left_gen`` owns the result's row dimension and ``right_gen`` the
    column dimension (generators are swapped during matching if the
    group key listed them the other way around).
    """

    left_gen: ResolvedGen
    right_gen: ResolvedGen
    #: Axis positions: result-row axis and join axis of the left
    #: generator; result-column axis and join axis of the right.
    left_row_axis: int
    left_join_axis: int
    right_col_axis: int
    right_join_axis: int
    #: Index classes of the result's dimensions and of the join.
    row_class: int
    col_class: int
    join_class: int
    #: Tile grids: result rows/cols and the contracted dimension.
    grid_rows: int
    grid_cols: int
    grid_join: int
    #: The aggregated term h(a, b) and its monoid, and what both 5.4
    #: strategies run with them: ``contract(left_tile, right_tile)`` is
    #: ⊕/h over one tile pair, ``fold`` the tile monoid ⊗′.
    term: object
    mon: Monoid
    contract: Callable
    fold: Callable
    #: Logical dimensions (elements, not tiles).
    row_dim: int = 0
    col_dim: int = 0
    join_dim: int = 0
    #: ``contract`` is a plain matrix product of 2-D tiles, so a cell's
    #: tiles may be concatenated into bands and multiplied by one GEMM.
    band_gemm: bool = False

    @property
    def flops(self) -> float:
        """Dense contraction work: two flops per multiply-add."""
        return 2.0 * self.row_dim * self.join_dim * self.col_dim

    @property
    def result_bytes(self) -> int:
        """Dense payload bytes of the full result."""
        return self.row_dim * self.col_dim * _ELEMENT_BYTES


def match_group_by_join(setup: TiledSetup) -> Optional[GbjMatch]:
    """Recognize the group-by-join pattern; None if it does not apply."""
    info = setup.info
    if info.group_key_vars is None or info.post_group_quals:
        return None
    if len(setup.gens) != 2 or len(info.slots) != 1 or info.residual_guards:
        return None
    if len(info.joins) != 1:
        return None
    key_exprs = info.group_key_exprs or []
    if len(key_exprs) != 2:
        return None
    out_classes = _out_classes(setup, key_exprs)
    if out_classes is None:
        return None

    left_gen, right_gen = setup.gens
    # The group key must take one dimension from each generator.
    gx, gy = key_exprs
    assert isinstance(gx, Var) and isinstance(gy, Var)
    if gx.name in right_gen.index_vars and gy.name in left_gen.index_vars:
        # Classes stay as they are: already dimension-ordered by the key.
        left_gen, right_gen = right_gen, left_gen
    elif not (gx.name in left_gen.index_vars and gy.name in right_gen.index_vars):
        return None

    # The join condition must link the two generators on single index vars.
    join = info.joins[0]
    sides = {join.left_gen: join.left, join.right_gen: join.right}
    left_pos = setup.gens.index(left_gen)
    right_pos = setup.gens.index(right_gen)
    kx, ky = sides.get(left_pos), sides.get(right_pos)
    if not (isinstance(kx, Var) and isinstance(ky, Var)):
        return None
    if kx.name not in left_gen.index_vars or ky.name not in right_gen.index_vars:
        return None

    slot = info.slots[0]
    mon = monoid(slot.monoid)
    if mon.np_combine is None:
        return None
    value_vars = (left_gen.value_var, right_gen.value_var)
    if None in value_vars or not free_vars(slot.expr) <= set(value_vars):
        return None
    residual = info.residual_value
    if not (isinstance(residual, Var) and residual.name == slot.slot_var):
        return None  # non-identity f is handled by the 5.3 rule

    row_class, col_class = out_classes
    join_class = setup.classes[kx.name]

    left_row_axis = left_gen.index_vars.index(gx.name if gx.name in left_gen.index_vars else gy.name)
    left_join_axis = left_gen.index_vars.index(kx.name)
    right_col_axis = right_gen.index_vars.index(gy.name if gy.name in right_gen.index_vars else gx.name)
    right_join_axis = right_gen.index_vars.index(ky.name)

    return GbjMatch(
        left_gen=left_gen,
        right_gen=right_gen,
        left_row_axis=left_row_axis,
        left_join_axis=left_join_axis,
        right_col_axis=right_col_axis,
        right_join_axis=right_join_axis,
        row_class=row_class,
        col_class=col_class,
        join_class=join_class,
        grid_rows=setup.grid_size(row_class),
        grid_cols=setup.grid_size(col_class),
        grid_join=setup.grid_size(join_class),
        term=slot.expr,
        mon=mon,
        contract=bind_contraction(
            left_gen.axis_classes, right_gen.axis_classes,
            (row_class, col_class), slot.expr, mon, value_vars,
        ),
        fold=lambda a, b: combine_tiles(mon, a, b),
        row_dim=setup.class_dim[row_class],
        col_dim=setup.class_dim[col_class],
        join_dim=setup.class_dim[join_class],
        band_gemm=(
            _is_multiply_add(slot.expr, mon, value_vars)
            and {left_row_axis, left_join_axis} == {0, 1}
            and {right_col_axis, right_join_axis} == {0, 1}
            and len(left_gen.index_vars) == len(right_gen.index_vars) == 2
        ),
    )


def _match_stats(match: GbjMatch):
    """Result density of the matched contraction (estimate; None = dense)."""
    return _drop_if_dense(
        density.contraction(
            match.left_gen.stats, match.right_gen.stats,
            match.join_dim, match.grid_join,
        )
    )


def _gbj_sig(match: GbjMatch) -> tuple:
    """Semantic signature of the matched contraction."""
    return (
        ("term", to_source(match.term)),
        ("monoid", match.mon.name),
        ("axes", axis_names(match.left_gen.axis_classes),
         axis_names(match.right_gen.axis_classes),
         axis_names((match.row_class, match.col_class))),
        ("positions", match.left_row_axis, match.left_join_axis,
         match.right_col_axis, match.right_join_axis),
        ("grid", match.grid_rows, match.grid_cols, match.grid_join),
    )


def emit_replicate(
    setup: TiledSetup,
    match: GbjMatch,
    builder: str,
    args: tuple,
    grid: tuple[int, int],
) -> IRNode:
    """The SUMMA translation on a ``(p_r, p_c)`` processor grid: replicate
    row/column tile bands to the grid's cells."""
    p_r, p_c = grid
    gk = match.grid_join

    def band(gen, own_axis, join_axis, own_grid, own_cells, copies, label):
        """One side's tiles, each copied to every cell of its band and
        tagged with its position ``own·gk + k`` in that side's tile grid."""
        rows = label == "rows"

        def fan_out(record):
            coords, tile = record
            own = coords[own_axis]
            # Cells are balanced to within one tile of each other.
            cell = own * own_cells // own_grid
            tagged = (own * gk + coords[join_axis], tile)
            if rows:
                return [((cell, other), tagged) for other in range(copies)]
            return [((other, cell), tagged) for other in range(copies)]

        return ReplicateNode(
            children=(scan_gen_node(gen),),
            sig=(
                ("axis", own_axis, join_axis),
                ("cells", own_cells),
                ("copies", copies),
            ),
            label=label,
            fan_out=fan_out,
        )

    left_rep = band(
        match.left_gen, match.left_row_axis, match.left_join_axis,
        match.grid_rows, p_r, p_c, "rows",
    )
    right_rep = band(
        match.right_gen, match.right_col_axis, match.right_join_axis,
        match.grid_cols, p_c, p_r, "cols",
    )
    join = GroupByJoinNode(
        children=(left_rep, right_rep),
        sig=_gbj_sig(match) + (
            ("strategy", STRATEGY_REPLICATE), ("cells", p_r, p_c),
        ),
        attrs={"strategy": STRATEGY_REPLICATE, "monoid": match.mon.name},
        label="summa",
        match=match,
        grid=grid,
    )
    cell_rows = -(-match.grid_rows // p_r)
    cell_cols = -(-match.grid_cols // p_c)
    return assemble_root(
        setup, builder, args, join, _match_stats(match),
        rule=RULE_GROUP_BY_JOIN,
        strategy=STRATEGY_REPLICATE,
        description=(
            "group-by-join (SUMMA): replicate row/column tile bands to a "
            "processor grid, cogroup on the cell, contract reducer-side"
        ),
        pseudocode=(
            "Tiled(n, m, rdd[ (k, V) | (cell, (__a, __b)) <- As.cogroup(Bs), "
            "(k, V) <- contract(__a, __b) ])\n"
            f"As = A.tiles.flatMap {{ ((i,k),a) => (0 until {p_c}).map(q => "
            "((cell(gx(i,k)),q),(tag(gx(i,k),kx(i,k)),a))) }\n"
            f"Bs = B.tiles.flatMap {{ ((kk,j),b) => (0 until {p_r}).map(p => "
            "((p,cell(gy(kk,j))),(tag(gy(kk,j),ky(kk,j)),b))) }\n"
            f"V accumulates ⊕/{to_source(match.term)} over matching tile pairs"
            + (
                " (one GEMM over the bands of a cell of several tiles when"
                " every block is stored)"
                if match.band_gemm else ""
            )
        ),
        details={
            "replication": (
                f"A x{p_c}, B x{p_r} over a {p_r}x{p_c} grid of "
                f"≤{cell_rows}x{cell_cols}-tile cells"
            ),
            "monoid": match.mon.name,
        },
    )


def emit_broadcast(
    setup: TiledSetup,
    match: GbjMatch,
    builder: str,
    args: tuple,
    side: str,
    reduce_partitions: Optional[int] = None,
) -> IRNode:
    """Map-side join: broadcast the small ``side``, stream the large side.

    ``reduce_partitions`` is the cost model's recommended partition
    count for the final reduceByKey (defaults to the large side's
    partitioning when omitted).
    """
    small_is_left = side == "left"
    strategy = (
        STRATEGY_BROADCAST_LEFT if small_is_left else STRATEGY_BROADCAST_RIGHT
    )
    left_node: IRNode = scan_gen_node(match.left_gen)
    right_node: IRNode = scan_gen_node(match.right_gen)
    if small_is_left:
        left_node = BroadcastNode(
            children=(left_node,), sig=(("side", side),), label=side,
            join_axis=match.left_join_axis, key_axis=match.left_row_axis,
        )
    else:
        right_node = BroadcastNode(
            children=(right_node,), sig=(("side", side),), label=side,
            join_axis=match.right_join_axis, key_axis=match.right_col_axis,
        )
    join = GroupByJoinNode(
        children=(left_node, right_node),
        sig=_gbj_sig(match) + (
            ("strategy", strategy),
            ("reduce_partitions", reduce_partitions),
        ),
        attrs={"strategy": strategy, "monoid": match.mon.name},
        label="broadcast",
        match=match,
        side=side,
        reduce_partitions=reduce_partitions,
    )
    return assemble_root(
        setup, builder, args, join, _match_stats(match),
        rule=RULE_GROUP_BY_JOIN,
        strategy=strategy,
        description=(
            f"group-by-join (broadcast): small {side} side broadcast to "
            "every task; partial tiles merged with reduceByKey"
        ),
        pseudocode=(
            "small = sc.broadcast(S.tiles.collect().groupBy(join coord))\n"
            "Tiled(n, m, L.tiles.flatMap { t => small(k(t)).map(s => (key, contract(s, t))) }\n"
            "            .reduceByKey(⊗′))"
        ),
        details={"broadcast_side": side, "monoid": match.mon.name},
    )


# ----------------------------------------------------------------------
# Adaptive re-optimization (runtime strategy downgrade)
# ----------------------------------------------------------------------


def measure_gen_size(gen: ResolvedGen) -> Optional[tuple[int, int]]:
    """Measured (bytes, stored records) of a generator's *materialized*
    tiles, or None when they are not materialized yet.

    Walks the generator's tile lineage through narrow maps to its base:
    a parallelized collection (driver-resident, so already "materialized")
    or a wide dependency that has run its shuffle.  The base's stored
    records are priced with a fresh :class:`RecordSizeAccountant` on the
    driver — no job runs and no engine counter moves, so measurement is
    free to call before deciding whether to re-plan.  The record count at
    the base equals the stored-tile count (the narrow chain above it is
    the storage's 1:1 tile finishing, not a replication).
    """
    from ..engine.rdd import (
        CoGroupedRDD, MapPartitionsRDD, ParallelCollectionRDD, ShuffledRDD,
    )

    node = gen.tiles
    while isinstance(node, MapPartitionsRDD):
        node = node._parent
    if isinstance(node, ParallelCollectionRDD):
        partitions = node._slices
    elif isinstance(node, (ShuffledRDD, CoGroupedRDD)):
        partitions = node._output
        if partitions is None:
            return None
    else:
        return None
    accountant = RecordSizeAccountant()
    nbytes = 0
    records = 0
    for part in partitions:
        nbytes += accountant.batch_size(part)
        records += len(part)
    return nbytes, records


def reconsider_join_strategy(
    state: "PlanState", candidates: dict, chosen: str
) -> Optional[tuple[IRNode, str]]:
    """Re-cost a cost-chosen group-by-join from measured input sizes.

    Called by the planner's adaptive wrapper just before the plan's
    thunk runs.  Both sides are measured (when materialized), the
    measurements are recorded on the engine's
    :class:`~repro.engine.adaptive.AdaptiveManager` so *later* compiles
    price with facts, and the candidates are re-costed with the measured
    overrides.  Only a **downgrade to broadcast** is acted on — the
    cheap, low-risk correction when a side turned out far smaller than
    its recorded statistics claimed (e.g. stats were stripped, or an
    upstream filter was underestimated) — and only when the measured
    side actually fits the cluster's per-copy broadcast budget.

    Returns ``(replacement tree, new_strategy)`` — the same
    :func:`emit_broadcast` tree a compile-time broadcast choice emits,
    for the caller to lower — or None to keep the compile-time choice.
    """
    engine, setup, match = state.engine, state.setup, state.match
    manager = engine.adaptive
    fresh = False
    for gen in (match.left_gen, match.right_gen):
        storage = getattr(gen, "storage", None)
        if storage is None:
            continue
        size = measure_gen_size(gen)
        if size is not None:
            manager.record_measured_size(storage, *size)
            fresh = True
    if not fresh:
        return None

    model = CostModel(
        engine.cluster, engine.default_parallelism,
        measured=manager.measured_sizes,
        memory_limit=getattr(engine, "memory_limit", None),
    )
    recost = model.candidates(setup, match)
    new_strategy = choose_strategy(recost)
    if new_strategy == chosen or new_strategy not in (
        STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT
    ):
        return None
    estimate = recost[new_strategy]
    per_copy = estimate.broadcast_bytes / (1 + engine.cluster.num_executors)
    if per_copy > engine.cluster.adaptive_broadcast_bytes:
        return None

    side = "left" if new_strategy == STRATEGY_BROADCAST_LEFT else "right"
    small = match.left_gen if side == "left" else match.right_gen
    small_size = manager.measured_sizes.get(id(small.storage))
    old_estimate = candidates.get(chosen)
    manager.record_decision(AdaptiveDecision(
        kind="broadcast-downgrade",
        description=(
            f"measured {side} side fits the broadcast budget; "
            f"switched {chosen} -> {new_strategy} before launching the join"
        ),
        measured={
            "side": side,
            "side_bytes": small_size[0] if small_size else None,
            "side_tiles": small_size[1] if small_size else None,
            "per_copy_bytes": int(per_copy),
            "new_total_seconds": round(estimate.total_seconds, 6),
            "new_shuffle_bytes": estimate.shuffle_bytes,
        },
        estimate={
            "strategy": chosen,
            "total_seconds": (
                round(old_estimate.total_seconds, 6) if old_estimate else None
            ),
            "shuffle_bytes": (
                old_estimate.shuffle_bytes if old_estimate else None
            ),
        },
    ))
    replacement = emit_broadcast(
        setup, match, state.builder, state.args, side,
        reduce_partitions=estimate.reduce_partitions,
    )
    return replacement, new_strategy
