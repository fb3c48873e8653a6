"""Block-array translation rules (paper Sections 5.1–5.3).

Three translations, in decreasing order of preference:

* :func:`emit_preserve` — **queries that preserve tiling** (5.1, Eq. 17):
  the output tile coordinate is a permutation/projection of the input
  tile coordinates, so tiles are joined directly and each output tile is
  computed from the matching input tiles with no shuffle beyond the join.
  Covers element-wise operations, transpose, diagonal extraction and
  broadcasts.

* :func:`emit_shuffle` — **queries that do not preserve tiling** (5.2,
  Eq. 19): output indices are arbitrary (vectorizable) functions of the
  input indices.  Every tile is replicated to the set ``I_f(K)`` of
  output tiles it can contribute to, tiles are grouped per destination
  with ``groupByKey``, and each destination tile is assembled by a
  masked scatter.  Covers rotations, shifts and slicing.

* :func:`emit_tiled_reduce` — **group-by queries** (5.3): generators are
  joined tile-wise on the index equalities, each joined tile tuple
  produces a *partial* output tile (a contraction), and partial tiles
  are merged with ``reduceByKey(⊗′)`` — the monoid applied to tiles
  pairwise — followed by ``mapValues(f′)`` for the residual function.
  Covers row/column aggregations and the join+group-by matrix multiply.

All three share the same vocabulary: index variables are grouped into
*classes* (union-find over equality guards); a class corresponds to one
logical array dimension, one tile-coordinate component, and one axis of
the NumPy arrays inside tiles.

These rules *emit IR nodes* (:mod:`repro.planner.ir`): each ``emit_*``
function performs the rule's eligibility checks and kernel compilation
and hands every node the typed fields its lowerer in
:mod:`repro.planner.lower` executes — the tree it returns is the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import Expr, Var, free_vars, to_source
from ..comprehension.errors import SacPlanError
from ..comprehension.monoids import Monoid, monoid
from ..engine import RDD
from ..storage import stats as density
from ..storage.stats import DENSE, DensityStats
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo, key_components
from .codegen import generate_fused_kernel
from .ir import (
    OP_FILTER, OP_MAP_TILES, AssembleNode, FusedKernelNode, GroupByNode,
    IRNode, ReplicateNode, TiledReduceNode, scan_gen_node,
)
from .kernels import (
    KernelUnsupported, combine_tiles, compile_vectorized_cached, contract,
)
from .plan import (
    RULE_PRESERVE_TILING, RULE_TILED_REDUCE, RULE_TILED_SHUFFLE,
)


@dataclass
class ResolvedGen:
    """A generator resolved to a tiled storage."""

    index_vars: list[str]
    value_var: Optional[str]
    storage: Any  # TiledMatrix | TiledVector | SparseTiledMatrix
    axis_classes: tuple[int, ...]
    axis_dims: tuple[int, ...]
    #: CSC-tiled source: tiles densify at the kernel boundary, absent
    #: (all-zero) tiles never join, and only +-aggregations whose term
    #: annihilates on this generator's value are sound (checked by the
    #: group-by rules).
    sparse: bool = False
    #: Density statistics the storage recorded at construction (or a
    #: prior query propagated onto it); the dense upper bound when
    #: nothing is known.  The cost model scales its payload/record/flops
    #: terms by these.
    stats: DensityStats = DENSE

    @property
    def tiles(self) -> RDD:
        if isinstance(self.storage, TiledVector):
            return self.storage.blocks
        return self.storage.tiles

    def tile_records(self):
        """Tiles as ``(coords_tuple, ndarray)`` with 1-D coords tupled."""
        if isinstance(self.storage, TiledVector):
            return self.tiles.map(lambda kv: ((kv[0],), kv[1]))
        if self.sparse:
            return self.tiles.map_values(lambda tile: tile.to_numpy())
        return self.tiles


@dataclass
class TiledSetup:
    """Shared context for all tiled translations of one comprehension."""

    info: CompInfo
    gens: list[ResolvedGen]
    classes: dict[str, int]
    class_dim: dict[int, int]
    tile_size: int
    const_env: dict[str, Any]

    def grid_size(self, cls: int) -> int:
        return math.ceil(self.class_dim[cls] / self.tile_size)

    def block_extent(self, cls: int, coord: int) -> int:
        return min(self.tile_size, self.class_dim[cls] - coord * self.tile_size)


def resolve_tiled(
    info: CompInfo, env: dict[str, Any], const_env: dict[str, Any]
) -> Optional[TiledSetup]:
    """Check all generators traverse tiled storages; build the setup.

    Returns ``None`` when the comprehension is not a candidate for the
    tiled rules (non-tiled sources, range generators, ...).
    """
    if info.ranges or not info.generators:
        return None
    from ..storage.sparse_tiled import SparseTiledMatrix

    classes = info.var_class()
    gens: list[ResolvedGen] = []
    tile_size: Optional[int] = None
    class_dim: dict[int, int] = {}
    for gen in info.generators:
        if not isinstance(gen.source, Var):
            return None
        storage = env.get(gen.source.name)
        sparse = isinstance(storage, SparseTiledMatrix)
        if isinstance(storage, (TiledMatrix, SparseTiledMatrix)):
            dims = (storage.rows, storage.cols)
            size = storage.tile_size
        elif isinstance(storage, TiledVector):
            dims = (storage.length,)
            size = storage.tile_size
        else:
            return None
        if len(gen.index_vars) != len(dims):
            raise SacPlanError(
                f"generator over {gen.source.name} binds {len(gen.index_vars)} "
                f"indices but the array has {len(dims)} dimensions"
            )
        if tile_size is None:
            tile_size = size
        elif tile_size != size:
            raise SacPlanError(
                f"mixed tile sizes {tile_size} and {size}; re-tile one input"
            )
        axis_classes = tuple(classes[v] for v in gen.index_vars)
        for cls, dim in zip(axis_classes, dims):
            previous = class_dim.setdefault(cls, dim)
            if previous != dim:
                raise SacPlanError(
                    f"joined dimensions disagree: {previous} vs {dim}"
                )
        gens.append(
            ResolvedGen(
                gen.index_vars, gen.value_var, storage, axis_classes, dims,
                sparse=sparse, stats=density.of(storage),
            )
        )
    assert tile_size is not None
    # Guard pruning below mutates ``residual_guards``; the analysis is
    # memoized on the AST node and may be shared across compiles with
    # different storages, so prune a private copy.
    info = replace(info, residual_guards=list(info.residual_guards))
    setup = TiledSetup(info, gens, classes, class_dim, tile_size, const_env)
    _prune_redundant_guards(setup)
    return setup


def _prune_redundant_guards(setup: TiledSetup) -> None:
    """Drop bound guards the storage dimensions already guarantee.

    Loop-to-traversal conversion leaves guards like ``i >= 0`` and
    ``i < n``; when ``i`` is an array index variable, the first is a
    tautology and the second is provable whenever ``n`` evaluates to that
    dimension's size.
    """
    from ..comprehension.ast import BinOp, Lit
    from ..comprehension.interpreter import Interpreter

    evaluator = Interpreter(setup.const_env)

    def provable(guard) -> bool:
        if not isinstance(guard, BinOp) or not isinstance(guard.left, Var):
            return False
        var = guard.left.name
        cls = setup.classes.get(var)
        if cls is None:
            return False
        if guard.op == ">=" and guard.right == Lit(0):
            return True
        if guard.op == "<":
            try:
                bound = evaluator.evaluate(guard.right)
            except Exception:
                return False
            return isinstance(bound, (int, float)) and bound >= setup.class_dim[cls]
        return False

    setup.info.residual_guards = [
        g for g in setup.info.residual_guards if not provable(g)
    ]


def sparse_gens_sound(setup: TiledSetup) -> bool:
    """Are sparse generators sound for this comprehension's aggregations?

    A CSC-tiled source omits zero elements and whole zero tiles; treating
    its tiles densely is only equivalent when every aggregation slot (a)
    reduces with ``+`` and (b) has a term that *annihilates* when the
    sparse generator's value is zero (a bare variable or a product
    containing it), so the extra zeros contribute the identity.

    Without a group-by, a *single*-generator map is sound exactly when
    its head value annihilates on the generator's value (transpose,
    scalar multiply, slicing): absent tiles then map to absent result
    tiles, which the dense builder fills with the same zeros the values
    would have produced.  Multi-generator joins over a sparse source
    stay unsound (a missing tile would silently drop the other side's
    contribution).  Queries that fail these checks run on the
    coordinate path, which respects sparse semantics exactly.
    """
    sparse_vars = [
        gen.value_var for gen in setup.gens if gen.sparse
    ]
    if not any(gen.sparse for gen in setup.gens):
        return True
    info = setup.info
    if info.group_key_vars is None or not info.slots:
        if info.group_key_vars is not None or len(setup.gens) != 1:
            return False
        var = sparse_vars[0]
        return var is not None and _annihilates(info.head_value, var)
    for slot in info.slots:
        if slot.monoid != "+":
            return False
        for var in sparse_vars:
            if var is None or not _annihilates(slot.expr, var):
                return False
    return True


def _annihilates(expr: Expr, var: str) -> bool:
    """Is ``expr`` zero whenever ``var`` is zero?"""
    from ..comprehension.ast import BinOp

    if isinstance(expr, Var):
        return expr.name == var
    if isinstance(expr, BinOp) and expr.op == "*":
        return _annihilates(expr.left, var) or _annihilates(expr.right, var)
    return False


# ----------------------------------------------------------------------
# Helpers shared by the rules
# ----------------------------------------------------------------------


def _out_classes(setup: TiledSetup, components: Sequence[Expr]) -> Optional[list[int]]:
    """Class ids of the output dimensions, if every key part is an index var."""
    out: list[int] = []
    for component in components:
        if not isinstance(component, Var) or component.name not in setup.classes:
            return None
        out.append(setup.classes[component.name])
    if len(set(out)) != len(out):
        return None  # repeated dimension, e.g. head key (i, i)
    return out


def _try_compile(
    expr: Expr, allowed: set[str], const_env: dict[str, Any]
) -> Optional[Callable[[dict[str, Any]], Any]]:
    """Vectorized compile with constants closed over; None if unsupported."""
    if not free_vars(expr) <= allowed | set(const_env):
        return None
    try:
        kernel = compile_vectorized_cached(expr)
    except KernelUnsupported:
        return None
    return lambda tile_env: kernel({**const_env, **tile_env})


def _index_env(
    setup: TiledSetup,
    out_classes: Sequence[int],
    coords: Sequence[int],
    grids: Sequence[np.ndarray],
) -> dict[str, Any]:
    """Bind every index variable to its global-index array."""
    n = setup.tile_size
    position = {cls: p for p, cls in enumerate(out_classes)}
    env: dict[str, Any] = {}
    for var, cls in setup.classes.items():
        p = position.get(cls)
        if p is not None:
            env[var] = grids[p] + coords[p] * n
    return env


def _result_storage(
    n: int,
    builder: str,
    args: tuple,
    tiles: RDD,
    stats: Optional[DensityStats] = None,
    clipped: bool = False,
):
    """Down-coerce a tile RDD through the requested distributed builder.

    Like the paper's builders, out-of-range indices are clipped: tiles
    wholly outside the declared dimensions are dropped and boundary
    tiles are trimmed (the declared result may be smaller than the
    traversed inputs) — unless the producer already did (``clipped``:
    a fused kernel trims inside the kernel).  ``stats`` carries the
    rule's propagated density estimate onto the result, so chained
    queries keep planning sparse-aware without running a count.
    """
    if builder not in ("tiled", "tiled_vector"):
        raise SacPlanError(f"tiled rules cannot build {builder!r}")
    matrix = builder == "tiled"
    dims = tuple(int(a) for a in args[: 2 if matrix else 1])

    def clip(record):
        key, tile = record
        coords = key if isinstance(key, tuple) else (key,)
        if any(c * n >= dim for c, dim in zip(coords, dims)):
            return None
        extent = tuple(
            min(size, dim - c * n)
            for size, dim, c in zip(tile.shape, dims, coords)
        )
        if extent != tile.shape:
            tile = tile[tuple(slice(e) for e in extent)]
        return (coords if matrix else coords[0]), tile

    if not clipped:
        tiles = tiles.map(clip).filter(lambda r: r is not None)
    result = (TiledMatrix if matrix else TiledVector)(*dims, n, tiles)
    if stats is not None:
        result.stats = stats
    return result


def _value_stats(setup: TiledSetup, expr: Expr) -> Optional[DensityStats]:
    """Propagate generator stats through a value expression.

    Returns ``None`` when nothing is known (all-dense inputs or an
    operator with no sparsity rule) — the caller then prices densely.
    The rules mirror :mod:`repro.storage.stats`: ``*`` annihilates
    (product bound; a dense factor passes the sparse side through),
    ``/`` preserves the numerator's support, ``+``/``-`` take the union
    bound (a dense term makes the result dense), and unary ``-`` is
    support-preserving.
    """
    from ..comprehension.ast import BinOp, UnOp

    gen_stats = {
        gen.value_var: gen.stats
        for gen in setup.gens
        if gen.value_var is not None
    }

    def walk(e: Expr) -> Optional[DensityStats]:
        if isinstance(e, Var):
            return gen_stats.get(e.name)
        if isinstance(e, UnOp) and e.op == "-":
            return walk(e.operand)
        if isinstance(e, BinOp):
            left, right = walk(e.left), walk(e.right)
            if e.op == "*":
                if left is None:
                    return right
                if right is None:
                    return left
                return density.product(left, right)
            if e.op in ("+", "-"):
                if left is None or right is None:
                    return None
                return density.union(left, right)
            if e.op == "/":
                return left
        return None

    return walk(expr)


def _drop_if_dense(stats: Optional[DensityStats]) -> Optional[DensityStats]:
    """Dense stats carry no information; keep results unannotated then."""
    if stats is None or stats.is_dense:
        return None
    return stats


def _guard_masks(
    setup: TiledSetup, allowed: set[str]
) -> Optional[list[Callable[[dict[str, Any]], Any]]]:
    masks = []
    for guard in setup.info.residual_guards:
        fn = _try_compile(guard, allowed, setup.const_env)
        if fn is None:
            return None
        masks.append(fn)
    return masks


def _all_vars(setup: TiledSetup) -> set[str]:
    names = set(setup.classes)
    for gen in setup.gens:
        if gen.value_var:
            names.add(gen.value_var)
    return names


# ----------------------------------------------------------------------
# Section 5.1 — queries that preserve tiling
# ----------------------------------------------------------------------


def assemble_root(
    setup: TiledSetup,
    builder: str,
    args: tuple,
    child: IRNode,
    out_stats: Optional[DensityStats],
    label: str = "",
    **annotations: Any,
) -> AssembleNode:
    """The ``Assemble`` root every tiled rule emits over its tile producer.

    Its signature captures the builder, its (already evaluated)
    arguments, the tile size, and the scalar constants the compiled
    kernels closed over; ``annotations`` (rule, strategy, details) are what ``explain()`` reads.
    """
    root = AssembleNode(
        children=(child,),
        sig=(
            ("builder", builder, tuple(repr(a) for a in args)),
            ("tile_size", setup.tile_size),
            ("consts", tuple(
                sorted((k, repr(v)) for k, v in setup.const_env.items())
            )),
        ),
        label=label,
        tile_size=setup.tile_size,
        builder=builder,
        args=args,
        out_stats=out_stats,
    )
    root.attrs.update(builder=builder, reusable=True, **annotations)
    return root


def emit_preserve(
    setup: TiledSetup, builder: str, args: tuple
) -> Optional[IRNode]:
    """Equation (17): join tiles on the output coordinate, compute locally.

    Checks eligibility and generates the rule's one per-partition kernel
    (:func:`~repro.planner.codegen.generate_fused_kernel`): the head
    value, the residual guards and the boundary clipping, run once per
    batch of same-shaped tiles.  A head or guard with no source form
    (:class:`KernelUnsupported`) means the rule does not apply.
    """
    info = setup.info
    if info.group_key_vars is not None or info.post_group_quals:
        return None
    components = key_components(info.head_key)
    if not components:
        return None
    out_classes = _out_classes(setup, components)
    if out_classes is None:
        return None
    out_set = set(out_classes)
    for gen in setup.gens:
        if not set(gen.axis_classes) <= out_set:
            return None  # an input dimension is not an output dimension
    try:
        fused = generate_fused_kernel(setup, out_classes, builder, args)
    except KernelUnsupported:
        return None

    # Element density follows the head value; block density is further
    # capped by the sparsest generator, because the tile join is an
    # inner join — a coordinate with any absent input tile yields no
    # output tile.
    value_stats = _value_stats(setup, info.head_value) or DENSE
    block_cap = min(gen.stats.block_density for gen in setup.gens)
    out_stats = _drop_if_dense(
        DensityStats(
            value_stats.density,
            min(value_stats.block_density, block_cap),
        )
    )

    # The logical operators the kernel computes, as ``explain`` names them.
    chain_ids = [f"{OP_MAP_TILES}[per-tile kernel]"]
    if info.residual_guards:
        chain_ids.append(f"{OP_FILTER}[residual guards]")
    kernel = FusedKernelNode(
        children=tuple(scan_gen_node(gen) for gen in setup.gens),
        sig=(
            ("fingerprint", fused.fingerprint),
            ("mode", fused.mode),
            ("fused", tuple(chain_ids)),
        ),
        attrs={"fingerprint": fused.fingerprint, "fused_ops": chain_ids},
        label="fused kernel",
        kernel=fused,
        setup=setup,
        out_classes=out_classes,
    )
    return assemble_root(
        setup, builder, args, kernel, out_stats, label=builder,
        rule=RULE_PRESERVE_TILING,
        details={
            "generators": len(setup.gens), "out_dims": len(out_classes),
            "fused_kernel": fused.fingerprint,
        },
    )


# ----------------------------------------------------------------------
# Section 5.2 — queries that do not preserve tiling
# ----------------------------------------------------------------------


def emit_shuffle(
    setup: TiledSetup, builder: str, args: tuple
) -> Optional[IRNode]:
    """Equation (19): replicate tiles to I_f(K), groupByKey, scatter.

    Checks eligibility, compiles the key/value/guard kernels and binds
    them into the two per-record functions the ``Replicate`` and
    ``GroupBy`` nodes own; :mod:`repro.planner.lower` composes them as
    flatMap → groupByKey → map.
    """
    info = setup.info
    if info.group_key_vars is not None or info.post_group_quals:
        return None
    if len(setup.gens) != 1:
        return None  # multi-generator non-preserving queries fall back
    gen = setup.gens[0]
    components = key_components(info.head_key)
    if not components:
        return None

    out_dims = [int(a) for a in args]
    if len(out_dims) != len(components):
        return None
    allowed = _all_vars(setup)
    key_fns = [_try_compile(c, allowed, setup.const_env) for c in components]
    value_fn = _try_compile(info.head_value, allowed, setup.const_env)
    masks = _guard_masks(setup, allowed)
    if any(fn is None for fn in key_fns) or value_fn is None or masks is None:
        return None

    # A shuffle permutes/projects the support; the element density
    # follows the head value exactly, and the block density is carried
    # through as an estimate (index remaps move non-zeros between tiles
    # but rarely change how many tiles are touched).
    out_stats = _drop_if_dense(_value_stats(setup, info.head_value))

    replicate, assemble = _scatter_fns(
        gen, setup.tile_size, out_dims, key_fns, value_fn, masks
    )
    replicated = ReplicateNode(
        children=(scan_gen_node(gen),),
        sig=(
            ("key", tuple(to_source(c) for c in components)),
            ("dims", tuple(out_dims)),
            ("guards", tuple(to_source(g) for g in info.residual_guards)),
        ),
        label="I_f(K)",
        fan_out=replicate,
    )
    grouped = GroupByNode(
        children=(replicated,),
        sig=(("head", to_source(info.head_value)),),
        label="destination tiles",
        assemble=assemble,
    )
    return assemble_root(
        setup, builder, args, grouped, out_stats, label=builder,
        rule=RULE_TILED_SHUFFLE,
        details={"key": to_source(info.head_key)},
    )


def _scatter_fns(
    gen: ResolvedGen,
    n: int,
    out_dims: Sequence[int],
    key_fns: Sequence[Callable],
    value_fn: Callable,
    masks: Sequence[Callable],
) -> tuple[Callable, Callable]:
    """The two per-record functions of Eq. (19): ``replicate`` lists the
    destination tiles I_f(K) an input tile contributes to, ``assemble``
    scatters a destination's grouped contributions into its tile."""

    def locate(coords, tile):
        """Per element: bindings, destination indices, and whether it
        passes the guards and lands inside the declared result."""
        grids = np.indices(tile.shape)
        # Bind each index variable to its own axis (by position, not by
        # class: a residual ``i == j`` unifies the classes but the two
        # variables still read different axes — the guard masks them).
        env: dict[str, Any] = {}
        for axis, var in enumerate(gen.index_vars):
            env[var] = grids[axis] + coords[axis] * n
        if gen.value_var is not None:
            env[gen.value_var] = tile
        keys = [
            np.broadcast_to(np.asarray(fn(env)), tile.shape) for fn in key_fns
        ]
        keep = np.ones(tile.shape, dtype=bool)
        for mask_fn in masks:
            keep &= np.asarray(mask_fn(env), dtype=bool)
        for dim, key in zip(out_dims, keys):
            keep &= (key >= 0) & (key < dim)
        return env, keys, keep

    def replicate(record):
        coords, tile = record
        _env, keys, keep = locate(coords, tile)
        if not keep.any():
            return []
        dest = np.stack([key[keep] // n for key in keys], axis=-1)
        unique = {tuple(int(c) for c in row) for row in np.unique(dest, axis=0)}
        return [(k, (coords, tile)) for k in sorted(unique)]

    def assemble(record):
        out_coord, contributions = record
        shape = tuple(
            min(n, dim - c * n) for dim, c in zip(out_dims, out_coord)
        )
        out = np.zeros(shape)
        for coords, tile in contributions:
            env, keys, keep = locate(coords, tile)
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

    return replicate, assemble


# ----------------------------------------------------------------------
# Section 5.3 — group-by queries on tiles
# ----------------------------------------------------------------------


def emit_tiled_reduce(
    setup: TiledSetup, builder: str, args: tuple
) -> Optional[IRNode]:
    """Join tiles on index equalities, contract per pair, reduceByKey(⊗′).

    Checks the 5.3 preconditions and compiles the partial/residual
    kernels and the ⊗′ fold onto the ``TiledReduce`` node; the tile join
    and reduceByKey are assembled in :mod:`repro.planner.lower`.
    """
    info = setup.info
    if info.group_key_vars is None or info.post_group_quals or not info.slots:
        return None
    if len(setup.gens) not in (1, 2):
        return None
    key_exprs = info.group_key_exprs or []
    out_classes = _out_classes(setup, key_exprs)
    if out_classes is None:
        return None
    # The head key must be the group-by key (Section 5.3's precondition).
    head_parts = key_components(info.head_key)
    if [to_source(e) for e in head_parts] != [
        to_source(Var(v)) for v in info.group_key_vars
    ] and [to_source(e) for e in head_parts] != [to_source(e) for e in key_exprs]:
        return None

    if setup.info.residual_guards and len(setup.gens) != 1:
        # Guards on joined generators interact with the contraction;
        # the single-generator path masks them with the monoid zero.
        return None
    slot_monoids = [monoid(slot.monoid) for slot in info.slots]
    if any(m.np_combine is None for m in slot_monoids):
        return None

    compute = _partial_tile_fn(setup, out_classes)
    if compute is None:
        return None
    out_stats = _drop_if_dense(_contraction_stats(setup, out_classes))

    def fold(left, right):
        return tuple(
            combine_tiles(m, a, b) for m, a, b in zip(slot_monoids, left, right)
        )

    reduce_node = TiledReduceNode(
        children=tuple(scan_gen_node(gen) for gen in setup.gens),
        sig=(
            ("slots", tuple(
                (to_source(slot.expr), slot.monoid) for slot in info.slots
            )),
            ("group", tuple(to_source(e) for e in key_exprs)),
            ("residual", to_source(info.residual_value)),
            ("guards", tuple(to_source(g) for g in info.residual_guards)),
        ),
        label="join + reduceByKey(⊗′)",
        setup=setup,
        out_classes=out_classes,
        compute=compute,
        fold=fold,
        finish=_residual_fn(setup, out_classes),
    )
    return assemble_root(
        setup, builder, args, reduce_node, out_stats, label=builder,
        rule=RULE_TILED_REDUCE,
        details={
            "monoids": [m.name for m in slot_monoids],
            "generators": len(setup.gens),
        },
    )


def _contraction_stats(
    setup: TiledSetup, out_classes: list[int]
) -> Optional[DensityStats]:
    """Result stats for a group-by contraction (5.3).

    Sums over the contracted dimensions fill the result: ``join_dim``
    addends per element, ``grid_join`` tile blocks per result tile.
    Two-generator joins use the matmul-shaped contraction estimate;
    single-generator projections (row/column sums) use the reduction
    rule.  Both are estimates (see :mod:`repro.storage.stats`), not
    bounds.
    """
    gen_classes: set[int] = set()
    for gen in setup.gens:
        gen_classes |= set(gen.axis_classes)
    contracted = [cls for cls in sorted(gen_classes) if cls not in out_classes]
    join_dim = 1
    grid_join = 1
    for cls in contracted:
        join_dim *= setup.class_dim[cls]
        grid_join *= setup.grid_size(cls)
    if len(setup.gens) == 2:
        return density.contraction(
            setup.gens[0].stats, setup.gens[1].stats, join_dim, grid_join
        )
    return density.reduction(setup.gens[0].stats, join_dim, grid_join)


def axis_names(classes: Sequence[int]) -> tuple[str, ...]:
    """Einsum-style axis names, one per index class: how ``contract``
    tells contracted from kept dimensions."""
    return tuple(f"c{cls}" for cls in classes)


def bind_contraction(
    left_classes: Sequence[int],
    right_classes: Sequence[int],
    out_classes: Sequence[int],
    term: Optional[Expr],
    mon: Monoid,
    value_vars: tuple[str, str],
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``⊕/h(a, b)`` over one tile pair with the axes bound.

    Every contraction the planner emits (5.3 pairs, 5.4 SUMMA and
    broadcast) is a closure made here.
    """
    left_axes, right_axes, out_axes = map(
        axis_names, (left_classes, right_classes, out_classes)
    )

    def contract_pair(left, right):
        return contract(
            left, right, left_axes, right_axes, out_axes, term, mon, value_vars
        )

    return contract_pair


def _partial_tile_fn(
    setup: TiledSetup, out_classes: list[int]
) -> Optional[Callable]:
    """Build the per-record partial-tile computation for every slot."""
    info = setup.info
    gens = setup.gens

    if len(gens) == 2:
        value_vars = (gens[0].value_var, gens[1].value_var)
        if None in value_vars:
            return None
        pairs = []
        for slot in info.slots:
            if not free_vars(slot.expr) <= {value_vars[0], value_vars[1]}:
                return None
            pairs.append(bind_contraction(
                gens[0].axis_classes, gens[1].axis_classes, out_classes,
                slot.expr, monoid(slot.monoid), value_vars,
            ))
        return lambda coords, tiles: tuple(pair(*tiles) for pair in pairs)

    gen = gens[0]
    contracted = [c for c in dict.fromkeys(gen.axis_classes) if c not in out_classes]
    combined = list(out_classes) + contracted
    allowed = _all_vars(setup)
    slot_fns = []
    for slot in info.slots:
        fn = _try_compile(slot.expr, allowed, setup.const_env)
        if fn is None:
            return None
        slot_fns.append((fn, monoid(slot.monoid)))
    # Residual guards mask masked-out positions to the monoid identity,
    # so they contribute nothing to the aggregation.
    masks = _guard_masks(setup, allowed)
    if masks is None:
        return None
    # Only ``+`` masks soundly: its identity (0) coincides with the dense
    # builder's fill, so fully-masked groups look like absent groups.
    if masks and any(mon.name != "+" for _fn, mon in slot_fns):
        return None

    def compute_single(coords, tiles):
        (tile,) = tiles
        shape = tuple(
            setup.block_extent(cls, coords[cls]) for cls in combined
        )
        grids = np.indices(shape)
        axis_of = {cls: i for i, cls in enumerate(combined)}
        index = tuple(grids[axis_of[cls]] for cls in gen.axis_classes)
        arr = tile[index]
        env: dict[str, Any] = {}
        if gen.value_var is not None:
            env[gen.value_var] = arr
        n = setup.tile_size
        for var, cls in setup.classes.items():
            if cls in axis_of:
                env[var] = grids[axis_of[cls]] + coords[cls] * n
        keep = None
        if masks:
            keep = np.ones(shape, dtype=bool)
            for mask_fn in masks:
                keep &= np.asarray(mask_fn(env), dtype=bool)
        reduce_axes = list(range(len(out_classes), len(combined)))
        out = []
        for fn, mon in slot_fns:
            values = np.broadcast_to(
                np.asarray(fn(env), dtype=np.float64), shape
            )
            if keep is not None:
                values = np.where(keep, values, mon.zero)
            result = values
            for axis in sorted(reduce_axes, reverse=True):
                result = mon.np_combine.reduce(result, axis=axis)
            out.append(np.asarray(result))
        return tuple(out)

    return compute_single


def _residual_fn(setup: TiledSetup, out_classes: list[int]) -> Callable:
    """The ``mapValues(f′)`` stage: residual head over aggregated tiles."""
    info = setup.info
    slot_vars = [slot.slot_var for slot in info.slots]
    residual = info.residual_value
    if (
        len(slot_vars) == 1
        and isinstance(residual, Var)
        and residual.name == slot_vars[0]
    ):
        return lambda _key, tiles: np.asarray(tiles[0], dtype=np.float64)
    kernel = compile_vectorized_cached(residual)
    const_env = setup.const_env

    def finish(key, tiles):
        shape = tiles[0].shape
        grids = np.indices(shape)
        env = dict(const_env)
        env.update(_index_env(setup, out_classes, key, grids))
        env.update(zip(slot_vars, tiles))
        return np.broadcast_to(
            np.asarray(kernel(env), dtype=np.float64), shape
        ).copy()

    return finish
