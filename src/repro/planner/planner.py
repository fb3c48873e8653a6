"""Planner driver: run the pass pipeline, then lower to an RDD program.

Order of preference for a tiled-builder comprehension over tiled inputs
(mirroring the paper's Section 5):

1. group-by-join family (5.4) — when the pattern matches, the *cost
   model* (:mod:`repro.planner.cost`) picks the cheapest of SUMMA
   replication, broadcasting either side, or the 5.3 join+group-by;
2. tiled reduce (5.3) — group-by with combinable aggregations;
3. preserve-tiling (5.1) — no group-by, aligned output;
4. tiled shuffle (5.2) — no group-by, computed output indices;
5. coordinate (Section 4, Rules 13/14) — the element-level fallback;
6. local — in-memory inputs: the coordinate program's column batches
   in process, else the reference interpreter (always correct).

The mechanics live elsewhere: :mod:`repro.planner.passes` runs the
named pass pipeline over the two-level IR (:mod:`repro.planner.ir`),
and :mod:`repro.planner.lower` turns the physical DAG into the
executable :class:`~repro.planner.plan.Plan`.  ``plan_query`` is just
the composition, so the finished plan carries the full pass trace.

``PlannerOptions(strategy=...)`` pins one of the cost model's candidate
names for the ablations: ``"tiled-reduce"`` reproduces the paper's
"SAC" (join + group-by) multiplication, ``"gbj-replicate"`` forces
SUMMA replication, ``"coordinate"`` reproduces the coordinate-format
execution of the earlier DIABLO system; the default (``None``) lets the
cost model decide.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Any, Optional

from ..comprehension.ast import Expr
from ..engine import EngineContext
from ..storage.registry import BuildContext
from .cost import STRATEGIES
from .lower import lower
from .passes import PassManager, PlanState, default_passes
from .plan import Plan


@dataclass
class PlannerOptions:
    """Planner switches; ``strategy`` is the ablations' one override.

    ``strategy``: ``None`` (default) lets the cost model pick the
    cheapest plan for a group-by-join (SUMMA replication, broadcasting
    one side, or the 5.3 join+group-by).  A candidate name pins it:
    ``"gbj-replicate"`` (SUMMA, Section 5.4), ``"gbj-broadcast-left"`` /
    ``"gbj-broadcast-right"`` (ship that whole side to every task — the
    Spark map-side join, an extension beyond the paper),
    ``"tiled-reduce"`` (the 5.3 join+group-by) or ``"coordinate"``
    (skip the tiled rules: the element-level Rules 13/14).  A pin is
    honoured where its rule applies; elsewhere the rules run in their
    usual order.  A pinned plan is never re-planned adaptively.

    ``cse``: common-subplan elimination, off by default (``repro
    serve`` turns it on).  When on, identity-equal subplans are merged,
    the plan gets a reuse fingerprint, the session hands the same
    lowered plan back on the next compile over the same objects, and
    its shuffle outputs are marked for
    :class:`~repro.engine.block_manager.BlockManager` reuse.

    ``fusion``: fused kernel codegen, on by default.  Preserve-tiling
    MapTiles/Filter chains lower to one generated NumPy kernel per
    partition, run once per stacked batch of tiles, instead of N
    Python-level RDD hops per tile; chains without a source form keep
    the interpreter lowering.  ``False`` pins the interpreter lowering
    for every chain (the differential tests' reference).
    """

    strategy: Optional[str] = None
    cse: bool = False
    fusion: bool = True

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected None or one "
                f"of {', '.join(STRATEGIES)}"
            )

    def cache_signature(self) -> tuple:
        """Hashable identity for plan caching: every field, since each
        one can change which plan comes out."""
        return astuple(self)


def plan_state(
    expr: Expr,
    env: dict[str, Any],
    engine: Optional[EngineContext],
    build_context: BuildContext,
    options: Optional[PlannerOptions] = None,
) -> PlanState:
    """Run the pass pipeline for a normalized query, stopping short of
    lowering.

    The returned state is read-only from here on: :func:`lower` may be
    applied to it any number of times, each call constructing a fresh
    :class:`~repro.planner.plan.Plan` (and fresh RDD lineages).  That
    split is what lets the session reuse a pass-pipeline result across
    the identical recompiles of an iterative workload while keeping
    execution byte-identical to an uncached compile.
    """
    options = options or PlannerOptions()
    state = PlanState(
        expr=expr,
        env=env,
        engine=engine,
        build_context=build_context,
        options=options,
    )
    PassManager(default_passes()).run(state)
    return state


def plan_query(
    expr: Expr,
    env: dict[str, Any],
    engine: Optional[EngineContext],
    build_context: BuildContext,
    options: Optional[PlannerOptions] = None,
) -> Plan:
    """Produce an executable plan for a desugared, normalized query."""
    return lower(plan_state(expr, env, engine, build_context, options))
