"""Translation of array comprehensions to distributed engine plans.

Implements the paper's translation scheme over an explicit two-level
plan IR (:mod:`ir`): Section 4's generic RDD rules (13/14) in
:mod:`rdd_rules`, Section 5's block-array rules in :mod:`tiling`
(5.1–5.3) and :mod:`groupby_join` (5.4), all *emitting IR nodes*; the
named pass pipeline (:mod:`passes`) decides and annotates, the single
lowering site (:mod:`lower`) builds the RDD program, and :mod:`planner`
composes the two.  NumPy tile kernels live in :mod:`kernels`.
"""

from .analysis import CompInfo, GenInfo, JoinCond, ReductionSlot, analyze
from .codegen import (
    FusedKernel, KERNEL_CACHE, KernelCache, explain, generate_fused_kernel,
)
from .cost import (
    CostEstimate, CostModel, STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT,
    STRATEGIES, STRATEGY_COORDINATE, STRATEGY_REPLICATE, STRATEGY_TILED_REDUCE,
    choose_strategy,
)
from .ir import IRNode, PassTraceEntry
from .kernels import (
    KernelUnsupported, compile_vectorized, compile_vectorized_cached, contract,
    gather,
)
from .passes import (
    PassManager, PlanState, cse_enabled, default_passes, fusion_enabled,
)
from .plan import (
    Plan, RULE_COORDINATE, RULE_GROUP_BY_JOIN, RULE_LOCAL, RULE_LOCAL_BATCH,
    RULE_PRESERVE_TILING, RULE_TILED_REDUCE, RULE_TILED_SHUFFLE,
)
from .planner import PlannerOptions, plan_query, plan_state

__all__ = [
    "CompInfo",
    "IRNode",
    "PassManager",
    "PassTraceEntry",
    "PlanState",
    "CostEstimate",
    "CostModel",
    "FusedKernel",
    "GenInfo",
    "JoinCond",
    "KERNEL_CACHE",
    "KernelCache",
    "KernelUnsupported",
    "Plan",
    "PlannerOptions",
    "STRATEGIES",
    "STRATEGY_BROADCAST_LEFT",
    "STRATEGY_BROADCAST_RIGHT",
    "STRATEGY_COORDINATE",
    "STRATEGY_REPLICATE",
    "STRATEGY_TILED_REDUCE",
    "RULE_COORDINATE",
    "RULE_GROUP_BY_JOIN",
    "RULE_LOCAL",
    "RULE_LOCAL_BATCH",
    "RULE_PRESERVE_TILING",
    "RULE_TILED_REDUCE",
    "RULE_TILED_SHUFFLE",
    "ReductionSlot",
    "analyze",
    "choose_strategy",
    "cse_enabled",
    "default_passes",
    "fusion_enabled",
    "compile_vectorized",
    "compile_vectorized_cached",
    "contract",
    "explain",
    "gather",
    "generate_fused_kernel",
    "plan_query",
    "plan_state",
]
