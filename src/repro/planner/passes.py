"""The pass pipeline: named, traced rewrites from query to physical IR.

``plan_query`` used to be one monolithic dispatch that recognized,
decided, and built in a single motion.  It is now a
:class:`PassManager` running a fixed sequence of named passes over a
:class:`PlanState`:

1. **normalize-bridge** — classify the normalized expression (builder
   comprehension, total reduction, bare comprehension, local), evaluate
   builder arguments, run the comprehension analysis, and derive the
   *logical* operator DAG;
2. **tiling-resolution** — resolve generators against tiled storages
   (index classes, grids, density stats) when the tiled rules may apply;
3. **strategy-selection** — check the head key against the builder,
   then run the translation rules in the paper's preference order and,
   for group-by-joins, the cost model; emits the *physical* operator
   DAG (rule 5.1's is its generated kernel,
   :func:`~repro.planner.codegen.generate_fused_kernel`), and marks a
   cost-chosen group-by-join for the stage-boundary re-optimization
   hook;
4. **cse** — common-subplan elimination: merge identity-equal subtrees
   and mark the plan's shuffle outputs for
   :class:`~repro.engine.block_manager.BlockManager` reuse (off by
   default; ``PlannerOptions(cse=True)``, which ``repro serve`` passes).

Every pass records a :class:`~repro.planner.ir.PassTraceEntry` with the
physical DAG rendered before and after, so ``Plan.explain()`` can show
*how* a plan came to be, and golden tests can pin the pipeline down.
Passes only decide, annotate and rewrite the tree — no RDD is constructed
here; that is :mod:`repro.planner.lower`'s job, node by node over
whatever tree the last pass left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..comprehension.ast import (
    BuilderApp, Comprehension, Expr, Generator, Reduce, TupleExpr, Var,
    to_source,
)
from ..comprehension.errors import SacPlanError
from ..comprehension.interpreter import Interpreter
from ..engine import EngineContext, RDD
from ..storage.registry import BuildContext
from ..storage.sparse_tiled import SparseTiledMatrix
from ..storage.tiled import TiledMatrix, TiledVector
from .analysis import CompInfo, analyze
from .cost import (
    STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT, STRATEGY_COORDINATE,
    STRATEGY_REPLICATE, STRATEGY_TILED_REDUCE, CostEstimate, CostModel,
    choose_strategy,
)
from .groupby_join import emit_broadcast, emit_replicate, match_group_by_join
from .ir import (
    IRNode, LOGICAL, OP_COLLECT, OP_FILTER, OP_FUSED_KERNEL, OP_GROUP_BY,
    OP_MAP_TILES, OP_REDUCE, PassTraceEntry, dedupe_dag, scan_storage_node,
)
from .rdd_rules import emit_coordinate
from .tiling import (
    emit_preserve, emit_shuffle, emit_tiled_reduce, resolve_tiled,
    sparse_gens_sound,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from .planner import PlannerOptions


#: Builders whose results live on the engine even when the inputs do not.
_DISTRIBUTED_BUILDERS = {"tiled", "tiled_vector", "rdd"}


def cse_enabled(options: "PlannerOptions") -> bool:
    """Is common-subplan elimination on for this compile (default off)?"""
    return options.cse


def fusion_enabled(options: "PlannerOptions") -> bool:
    """Always ``True``: rule 5.1 emits its generated kernel (kept for the
    benchmark harness, which records it)."""
    return True


@dataclass
class PlanState:
    """Everything the passes read and write while planning one query."""

    expr: Expr
    env: dict[str, Any]
    engine: Optional[EngineContext]
    build_context: BuildContext
    options: "PlannerOptions"
    #: "local" until the bridge proves the query distributed.
    kind: str = "local"
    #: How the physical plan's result re-enters the driver: ``None``
    #: (builder result), ``"reduce"`` (total ⊕/ aggregation), or
    #: ``"collect"`` (bare comprehension collected to a list).
    wrapper: Optional[str] = None
    reduce_monoid: Optional[str] = None
    comp: Optional[Comprehension] = None
    builder: Optional[str] = None
    args: tuple = ()
    info: Any = None
    setup: Any = None
    #: The recognized group-by-join, if any (the adaptive hook re-costs it).
    match: Any = None
    logical: Optional[IRNode] = None
    physical: Optional[IRNode] = None
    trace: list[PassTraceEntry] = field(default_factory=list)


PassFn = Callable[[PlanState], str]


class PassManager:
    """Run named passes in order, recording a trace entry for each."""

    def __init__(self, passes: list[tuple[str, PassFn]]):
        self.passes = passes

    def run(self, state: PlanState) -> PlanState:
        # Each pass's "after" rendering doubles as the next pass's
        # "before" — passes are the only writers of ``state.physical``.
        before = state.physical.render() if state.physical else ""
        for name, fn in self.passes:
            note = fn(state)
            after = state.physical.render() if state.physical else ""
            state.trace.append(PassTraceEntry(
                name=name,
                note=note,
                changed=before != after,
                before=before,
                after=after,
            ))
            before = after
        return state


def default_passes() -> list[tuple[str, PassFn]]:
    return [
        ("normalize-bridge", pass_normalize_bridge),
        ("tiling-resolution", pass_tiling_resolution),
        ("strategy-selection", pass_strategy_selection),
        ("cse", pass_cse),
    ]


# ----------------------------------------------------------------------
# Pass 1 — normalize bridge
# ----------------------------------------------------------------------


def pass_normalize_bridge(state: PlanState) -> str:
    """Classify the normalized AST and derive the logical DAG."""
    expr, env, engine = state.expr, state.env, state.engine

    if isinstance(expr, BuilderApp) and isinstance(expr.source, Comprehension):
        comp = expr.source
        distributed = (
            expr.name in _DISTRIBUTED_BUILDERS or _is_distributed(comp, env)
        )
        if engine is None or not distributed:
            return "local evaluation (no engine or no distributed input)"
        state.comp = comp
        state.builder = expr.name
        state.args = tuple(
            Interpreter(env, build_context=state.build_context).evaluate(a)
            for a in expr.args
        )
        state.kind = "distributed"
        shape = f"builder {expr.name!r}"
    elif isinstance(expr, Reduce) and isinstance(expr.expr, Comprehension):
        if engine is None or not _is_distributed(expr.expr, env):
            return "local evaluation (no engine or no distributed input)"
        state.comp = expr.expr
        state.wrapper = "reduce"
        state.reduce_monoid = expr.monoid
        state.kind = "distributed"
        shape = f"total {expr.monoid}/ reduction"
    elif isinstance(expr, Comprehension):
        if engine is None or not _is_distributed(expr, env):
            return "local evaluation (no engine or no distributed input)"
        state.comp = expr
        state.wrapper = "collect"
        state.kind = "distributed"
        shape = "bare comprehension (collect)"
    else:
        return "local evaluation (not a comprehension query)"

    try:
        state.info = analyze_cached(state.comp)
    except SacPlanError:
        state.kind = "local"
        return f"{shape}; analysis rejected the comprehension -> local"
    state.logical = _logical_dag(state)
    return f"{shape}; {len(state.info.generators)} generator(s) analyzed"


#: Attribute memoizing ``analyze`` on the (immutable) normalized node,
#: so a plan-cache hit re-plans without re-deriving the analysis.
_ANALYSIS_MEMO = "_sac_analysis_memo"


def analyze_cached(comp: Comprehension) -> CompInfo:
    """``analyze(comp)`` memoized on the AST node itself.

    Nodes are frozen dataclasses and rewrites build new trees, so the
    analysis of one node never goes stale; negative results (plan
    errors) are memoized too.  Concurrent compiles may race to compute
    the same value — the write is idempotent, so last-wins is fine.
    """
    memo = getattr(comp, _ANALYSIS_MEMO, None)
    if memo is None:
        try:
            memo = analyze(comp)
        except SacPlanError as exc:
            memo = exc
        object.__setattr__(comp, _ANALYSIS_MEMO, memo)
    if isinstance(memo, SacPlanError):
        raise type(memo)(*memo.args)  # afresh: a shared traceback would grow
    return memo


def _logical_dag(state: PlanState) -> IRNode:
    """Strategy-free description of what the comprehension computes."""
    info = state.info
    scans = tuple(
        scan_storage_node(
            gen.source.name if isinstance(gen.source, Var) else f"gen{idx}",
            state.env.get(gen.source.name)
            if isinstance(gen.source, Var) else None,
            level=LOGICAL,
        )
        for idx, gen in enumerate(info.generators)
    )
    node: IRNode
    inner = scans
    if info.residual_guards:
        inner = (IRNode(
            op=OP_FILTER,
            level=LOGICAL,
            children=scans,
            sig=(("guards",
                  tuple(to_source(g) for g in info.residual_guards)),),
        ),)
    if info.group_key_vars is not None:
        node = IRNode(
            op=OP_GROUP_BY,
            level=LOGICAL,
            children=inner,
            sig=(
                ("key", tuple(to_source(e)
                              for e in (info.group_key_exprs or []))),
                ("slots", tuple(
                    (to_source(slot.expr), slot.monoid)
                    for slot in info.slots
                )),
            ),
        )
    else:
        head_key = (
            to_source(info.head_key) if info.head_key is not None else None
        )
        node = IRNode(
            op=OP_MAP_TILES,
            level=LOGICAL,
            children=inner,
            sig=(
                ("key", head_key),
                ("value", to_source(info.head_value)),
            ),
            label="head",
        )
    if state.wrapper == "reduce":
        node = IRNode(
            op=OP_REDUCE,
            level=LOGICAL,
            children=(node,),
            sig=(("monoid", state.reduce_monoid),),
        )
    elif state.wrapper == "collect":
        node = IRNode(op=OP_COLLECT, level=LOGICAL, children=(node,))
    return node


# ----------------------------------------------------------------------
# Pass 2 — tiling resolution
# ----------------------------------------------------------------------


def pass_tiling_resolution(state: PlanState) -> str:
    """Resolve generators against tiled storages for the Section 5 rules."""
    if state.kind != "distributed":
        return "skipped (local plan)"
    if state.options.strategy == STRATEGY_COORDINATE:
        return "skipped (strategy coordinate)"
    if state.builder not in ("tiled", "tiled_vector"):
        return "skipped (result is not a tiled builder)"
    const_env = {
        name: value
        for name, value in state.env.items()
        if isinstance(value, (int, float, bool))
    }
    setup = resolve_tiled(state.info, state.env, const_env)
    if setup is not None:
        # The setup carries a guard-pruned copy of the analysis; use it
        # for the fallback too (the shared memoized CompInfo must stay
        # pristine for other storages' compiles).
        state.info = setup.info
    if setup is not None and not sparse_gens_sound(setup):
        state.setup = None  # sparse semantics need the coordinate path
        return "sparse generator semantics unsound -> coordinate path"
    state.setup = setup
    if setup is None:
        return "generators did not resolve to tiled storages"
    classes = sorted(set(setup.classes.values()))
    return (
        f"resolved {len(setup.gens)} generator(s); "
        f"index classes {classes}, tile size {setup.tile_size}"
    )


# ----------------------------------------------------------------------
# Pass 3 — strategy selection (the translation rules + cost model)
# ----------------------------------------------------------------------


def pass_strategy_selection(state: PlanState) -> str:
    """Run the rules in the paper's preference order; emit physical IR."""
    if state.kind != "distributed":
        return "skipped (local plan)"
    _check_key_arity(state)
    setup, info = state.setup, state.info
    if setup is not None:
        if info.group_key_vars is not None:
            root = _select_group_by(state)
            if root is not None:
                # Estimated-vs-actual shuffle accounting fires on the
                # cost-priced group-by family only (as before the IR).
                root.attrs["record_estimate"] = True
                state.physical = root
                return _selection_note(root)
        else:
            root = emit_preserve(setup, state.builder, state.args)
            if root is None:
                root = emit_shuffle(setup, state.builder, state.args)
            if root is not None:
                state.physical = root
                return _selection_note(root)

    root = emit_coordinate(
        info, state.env, state.engine, state.builder, state.args,
        state.build_context,
    )
    if root is None:
        state.kind = "local"
        return "no distributed rule applies -> local fallback"
    if state.options.strategy == STRATEGY_COORDINATE:
        root.attrs["details"]["strategy"] = STRATEGY_COORDINATE
    state.physical = root
    return _selection_note(root)


def _selection_note(root: IRNode) -> str:
    note = f"rule {root.attrs.get('rule', '?')}"
    strategy = root.attrs.get("strategy")
    if strategy:
        note += f" (strategy {strategy})"
    for node in root.children:  # rule 5.1: Assemble(FusedKernel(scans))
        if node.op == OP_FUSED_KERNEL:
            note += f"; kernel {node.kernel.fingerprint} (mode {node.kernel.mode})"
    return note


#: Head-key components each distributed array builder indexes by.
_KEY_ARITY = {"tiled": 2, "tiled_vector": 1}


def _check_key_arity(state: PlanState) -> None:
    """A head key the builder cannot index is a plan error at compile,
    before any rule (each would fail its own way at execute time)."""
    want = _KEY_ARITY.get(state.builder)
    key = state.info.head_key
    got = _key_arity(key, state.info, state.env)
    if want is not None and got is not None and got != want:
        raise SacPlanError(
            f"{state.builder} takes a {want}-component key; the head key "
            f"{to_source(key)} has {got}"
        )


def _key_arity(key: Optional[Expr], info: CompInfo, env: dict) -> Optional[int]:
    """How many components ``key`` has, where the query fixes it."""
    if isinstance(key, TupleExpr):
        return len(key.items)
    if not isinstance(key, Var):
        return None
    for gen in info.generators:
        if gen.index_vars == [key.name]:  # bound to a whole source key
            source = env.get(gen.source.name) if isinstance(gen.source, Var) else None
            if isinstance(source, TiledVector):
                return 1
            if isinstance(source, (TiledMatrix, SparseTiledMatrix)):
                return 2
            return None
        if key.name in gen.index_vars:
            return 1
    return None


def _select_group_by(state: PlanState) -> Optional[IRNode]:
    """Cost-based selection among the group-by strategies.

    When the group-by-join pattern matches, every candidate (SUMMA
    replication, broadcasting either side, the 5.3 join+group-by) is
    costed against the engine's cluster spec and the cheapest one is
    emitted — unless ``PlannerOptions.strategy`` pins one.  The
    estimates are attached to the root node for ``explain`` and the
    estimated-vs-actual shuffle counters.
    """
    setup, engine, options = state.setup, state.engine, state.options
    builder, args = state.builder, state.args
    match = state.match = match_group_by_join(setup)
    candidates: dict[str, CostEstimate] = {}
    # Only an unpinned choice may be second-guessed by the adaptive
    # layer at execute time.
    cost_chosen = options.strategy is None
    if match is not None:
        model = CostModel(
            engine.cluster,
            # A query compiled after an adaptive correction prices with
            # the measured facts and picks the cheap plan up front.
            measured=engine.adaptive.measured_sizes,
            memory_limit=getattr(engine, "memory_limit", None),
        )
        candidates = model.candidates(setup, match)
        strategy = options.strategy or choose_strategy(candidates)
        root: Optional[IRNode] = None
        if strategy == STRATEGY_REPLICATE:
            root = emit_replicate(
                setup, match, builder, args, candidates[strategy].grid
            )
        elif strategy in (STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT):
            side = "left" if strategy == STRATEGY_BROADCAST_LEFT else "right"
            root = emit_broadcast(
                setup, match, builder, args, side,
                reduce_partitions=candidates[strategy].reduce_partitions,
            )
        if root is not None:
            _attach_estimates(root, strategy, candidates)
            if cost_chosen and strategy == STRATEGY_REPLICATE:
                root.attrs["adaptive_install"] = True
            return root

    root = emit_tiled_reduce(setup, builder, args)
    if (
        root is None and match is not None
        and options.strategy != STRATEGY_TILED_REDUCE
    ):
        # The 5.3 rule has preconditions (e.g. on the head key) the
        # group-by-join does not; fall back to the always-buildable
        # SUMMA plan rather than dropping to the coordinate path.
        root = emit_replicate(
            setup, match, builder, args, candidates[STRATEGY_REPLICATE].grid
        )
        return _attach_estimates(root, STRATEGY_REPLICATE, candidates)
    if root is not None and candidates:
        _attach_estimates(root, STRATEGY_TILED_REDUCE, candidates)
        if match is not None and cost_chosen:
            root.attrs["adaptive_install"] = True
    return root


def _attach_estimates(
    root: IRNode, strategy: str, candidates: dict[str, CostEstimate]
) -> IRNode:
    root.attrs["candidates"] = candidates
    root.attrs["estimate"] = candidates.get(strategy)
    root.attrs["strategy"] = strategy
    details = root.attrs.setdefault("details", {})
    details["strategy"] = strategy
    if root.attrs["estimate"] is not None:
        details["priced_densities"] = root.attrs["estimate"].densities
    return root


# ----------------------------------------------------------------------
# Pass 4 — common-subplan elimination
# ----------------------------------------------------------------------


def pass_cse(state: PlanState) -> str:
    """Merge identity-equal subtrees; mark shuffle outputs reusable."""
    root = state.physical
    if root is None:
        return "skipped (local plan)"
    if not cse_enabled(state.options):
        return "disabled (enable with PlannerOptions(cse=True))"
    root, merged = dedupe_dag(root)
    root.attrs["cse"] = True
    root.attrs["cse_merged"] = merged
    state.physical = root
    return (
        f"{merged} duplicate subplan(s) merged; "
        "shuffle outputs marked for cross-query reuse"
    )


# ----------------------------------------------------------------------


def _is_distributed(comp: Comprehension, env: dict[str, Any]) -> bool:
    """Does any generator traverse a distributed storage?"""
    for qual in comp.qualifiers:
        if isinstance(qual, Generator) and isinstance(qual.source, Var):
            value = env.get(qual.source.name)
            if isinstance(
                value, (TiledMatrix, TiledVector, SparseTiledMatrix, RDD)
            ):
                return True
        if isinstance(qual, Generator) and isinstance(qual.source, Comprehension):
            if _is_distributed(qual.source, env):
                return True
    return False
