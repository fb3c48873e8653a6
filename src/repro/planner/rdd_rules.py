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

Records flow through the engine as plain ``dict`` environments; all
expression evaluation reuses the reference interpreter's semantics, so
this path is correct by construction for anything the interpreter
accepts.

The rule here *recognizes* and *plans*: it emits a ``Coordinate`` IR
node over one element ``Scan`` per generator, carrying the join order it
chose (a function of the analysis, never of data) and the program text
``explain()`` prints; the element-level runtime (joins, group-by,
assembly) lives in :mod:`repro.planner.lower`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..comprehension.ast import Expr, Var, to_source
from ..engine import EngineContext, RDD
from ..storage import CooMatrix, CooVector, CsrMatrix, DenseMatrix, DenseVector
from ..storage.registry import REGISTRY, BuildContext
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo, GenInfo
from .ir import CoordinateNode, IRNode, scan_storage_node
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
    for idx, gen in enumerate(info.generators):
        rdd = _element_rdd(gen, env, engine)
        if rdd is None:
            return None
        scan = scan_storage_node(
            gen.source.name if isinstance(gen.source, Var) else f"gen{idx}",
            env.get(gen.source.name) if isinstance(gen.source, Var) else None,
        )
        scan.records = lambda rdd=rdd: rdd
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
        if not (len(slot_vars) == 1 and info.residual_value == Var(slot_vars[0])):
            steps.append(".mapValues(f)")
    elif info.head_key is None:
        steps.append(".map(head)")
    else:
        steps.append(f".map(record => ({to_source(info.head_key)}, value))")
    return "\n".join(steps)


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------


def _element_rdd(
    gen: GenInfo, env: dict[str, Any], engine: EngineContext
) -> Optional[RDD]:
    """An RDD of ``(key, value)`` coordinate pairs for one generator."""
    if not isinstance(gen.source, Var):
        return None
    value = env.get(gen.source.name)
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
    from ..storage.sparse_tiled import SparseTiledMatrix

    if isinstance(value, SparseTiledMatrix):
        n = value.tile_size

        def explode_sparse(record):
            (bi, bj), tile = record
            for (i, j), element in tile.sparsify():
                yield (bi * n + i, bj * n + j), element

        return value.tiles.flat_map(explode_sparse)
    if isinstance(value, (CooMatrix, CooVector, CsrMatrix, DenseMatrix, DenseVector)):
        return engine.parallelize(list(value.sparsify()))
    if isinstance(value, np.ndarray):
        return engine.parallelize(list(REGISTRY.sparsify(value)))
    if isinstance(value, list):
        return engine.parallelize(value)
    return None
