"""Executable plans: what the translation rules produce.

A :class:`Plan` packages the chosen rule, a human-readable explanation
and a thunk that runs it on the engine.  Its generated program (the
analogue of the paper's emitted Scala) is rendered when ``explain()`` or
``to_dict()`` asks: one line per operator of the physical DAG, read off
the fields lowering executes, so the text is the program that runs.
Tests assert on ``rule`` to pin down *which* translation fired for each
paper example, independent of the numeric result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..comprehension.ast import to_source
from .analysis import regrouped_head_key
from .cost import STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT, STRATEGY_REPLICATE
from .ir import (
    OP_ASSEMBLE, OP_BROADCAST, OP_COORDINATE, OP_FUSED_KERNEL, OP_GROUP_BY,
    OP_GROUP_BY_JOIN, OP_REPLICATE, OP_SCAN, OP_TILED_REDUCE,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from .analysis import CompInfo
    from .cost import CostEstimate
    from .ir import IRNode, PassTraceEntry

#: Rule identifiers, named after the paper's sections.
RULE_LOCAL = "local"
RULE_LOCAL_BATCH = "local-batch"
RULE_PRESERVE_TILING = "preserve-tiling"
RULE_TILED_SHUFFLE = "tiled-shuffle"
RULE_TILED_REDUCE = "tiled-reduce"
RULE_GROUP_BY_JOIN = "group-by-join"
RULE_COORDINATE = "coordinate"

_BROADCAST = (
    "group-by-join (broadcast): small {} side broadcast to every task; "
    "partial tiles merged with reduceByKey"
)
#: Per rule (per strategy for a group-by-join): the paper's section or
#: equation it implements, and the plan's description.
RULES: dict[str, tuple[str, str]] = {
    RULE_LOCAL: ("Sections 2-3", "reference in-memory evaluation (Sections 2-3)"),
    RULE_LOCAL_BATCH: ("Sections 2-3", (
        "the coordinate program in process (Sections 2-3): joins, guards "
        "and group-bys as array passes over column batches"
    )),
    RULE_PRESERVE_TILING: ("Section 5.1, Eq. (17)", (
        "output tile coordinates are a projection of input tile "
        "coordinates; tiles joined directly (no re-tiling shuffle)"
    )),
    RULE_TILED_SHUFFLE: ("Section 5.2, Eq. (19)", (
        "output indices are computed from input indices; tiles "
        "replicated to their destination set I_f(K) and regrouped"
    )),
    RULE_TILED_REDUCE: ("Section 5.3", (
        "tile-level join + per-pair partial aggregation, merged with "
        "reduceByKey over the tile monoid ⊗′"
    )),
    STRATEGY_REPLICATE: ("Section 5.4", (
        "group-by-join (SUMMA): replicate row/column tile bands to a "
        "processor grid, cogroup on the cell, contract reducer-side"
    )),
    STRATEGY_BROADCAST_LEFT: ("Section 5.4", _BROADCAST.format("left")),
    STRATEGY_BROADCAST_RIGHT: ("Section 5.4", _BROADCAST.format("right")),
    RULE_COORDINATE: ("Section 4, Rules (13)/(14)", (
        "element-level translation: coordinate pairs joined with RDD "
        "joins (Rule 14), aggregated with reduceByKey (Rule 13)"
    )),
}


def rule_text(rule: str, strategy: Optional[str] = None) -> tuple[str, str]:
    """``rule``'s section label and description from :data:`RULES`."""
    return RULES[strategy if rule == RULE_GROUP_BY_JOIN else rule]


@dataclass
class Plan:
    """An executable translation of one comprehension."""

    rule: str
    description: str
    thunk: Callable[[], Any]
    details: dict[str, Any] = field(default_factory=dict)
    #: Cost-model prediction for the chosen strategy, when the planner
    #: ran candidate selection (group-by-join-shaped queries).
    estimate: Optional["CostEstimate"] = None
    #: Every candidate's estimate, keyed by strategy name.
    candidates: dict[str, "CostEstimate"] = field(default_factory=dict)
    #: Adaptive-execution decisions (strategy downgrades, skew splits)
    #: that fired while this plan ran; populated at execute time for a
    #: cost-chosen group-by-join.
    adaptive_decisions: list = field(default_factory=list)
    #: Pass-pipeline trace: one before/after entry per named pass.
    trace: list["PassTraceEntry"] = field(default_factory=list)
    #: The logical operator DAG the normalize bridge derived.
    logical: Optional["IRNode"] = None
    #: The physical operator DAG this plan was lowered from.
    physical: Optional["IRNode"] = None
    #: Identity fingerprint of the physical DAG + planner options, set
    #: only for plans eligible for common-subplan reuse; ``None`` keeps
    #: the plan out of any fingerprint-keyed cache.
    fingerprint: Optional[str] = None
    #: A local-batch plan's column-batch program (it has no physical
    #: DAG): the analysis and join order its operators were built from.
    batch: Optional[tuple["CompInfo", list]] = None

    def execute(self) -> Any:
        """Run the plan and return the built storage/value."""
        return self.thunk()

    def fused_kernels(self) -> list[dict[str, Any]]:
        """One record per ``FusedKernel`` node of the physical DAG.

        Each entry carries the replaced chain's node ids, the source
        fingerprint, the record ``mode``, and the generated kernel text
        — read off the very node lowering executes.
        """
        if self.physical is None:
            return []
        return [
            {
                "nodes": list(node.attrs["fused_ops"]),
                "fingerprint": node.kernel.fingerprint,
                "mode": node.kernel.mode,
                "source": node.kernel.source,
            }
            for node in self.physical.walk()
            if node.op == OP_FUSED_KERNEL
        ]

    def program(self) -> list[str]:
        """The generated program: one line per physical operator, inputs
        first (a coordinate node indents its column-batch steps) — or a
        local-batch plan's steps in process."""
        if self.physical is not None:
            nodes = _inputs_first(self.physical, set())
            return [line for node in nodes for line in _lines(node)]
        if self.batch is not None:
            return _batch_steps(*self.batch, width=None)
        return []

    def explain(self) -> str:
        """Multi-line explanation: rule, description, generated program."""
        lines = [f"rule: {self.rule}", f"description: {self.description}"]
        if self.details:
            for key, value in sorted(self.details.items()):
                lines.append(f"{key}: {value}")
        if self.adaptive_decisions:
            lines.append("adaptive decisions:")
            for decision in self.adaptive_decisions:
                lines.append(f"  - {decision.summary()}")
        if self.candidates:
            lines.append("cost estimates (chosen first):")
            chosen = self.estimate.strategy if self.estimate else None
            ordered = sorted(
                self.candidates.values(),
                key=lambda est: (est.strategy != chosen, est.total_seconds),
            )
            for est in ordered:
                marker = "*" if est.strategy == chosen else " "
                lines.append(f"  {marker} {est.summary()}")
        if self.trace:
            lines.append("passes:")
            for entry in self.trace:
                lines.append(f"  - {entry.summary()}")
        for fused in self.fused_kernels():
            lines.append(
                f"fused kernel {fused['fingerprint']} "
                f"(mode {fused['mode']}; {' + '.join(fused['nodes'])}):"
            )
            lines.extend("  " + line for line in fused["source"].splitlines())
        program = self.program()
        if program:
            strategy = self.physical.attrs.get("strategy") if self.physical else None
            lines.append(f"generated program ({rule_text(self.rule, strategy)[0]}):")
            lines.extend("  " + line for line in program)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe export: operators, strategy, costs, pass trace."""
        from .ir import _json_safe

        out: dict[str, Any] = {
            "rule": self.rule,
            "description": self.description,
            "details": {k: _json_safe(v) for k, v in sorted(self.details.items())},
        }
        chosen = self.estimate.strategy if self.estimate else None
        if chosen is None:
            chosen = self.details.get("strategy")
        if chosen is not None:
            out["strategy"] = chosen
        if self.candidates:
            ordered = sorted(
                self.candidates.values(),
                key=lambda est: (est.strategy != chosen, est.total_seconds),
            )
            out["candidates"] = [
                {
                    "strategy": est.strategy,
                    "chosen": est.strategy == chosen,
                    "shuffle_bytes": est.shuffle_bytes,
                    "broadcast_bytes": est.broadcast_bytes,
                    "tasks": est.tasks,
                    "total_seconds": est.total_seconds,
                    **({"grid": list(est.grid)} if est.grid else {}),
                }
                for est in ordered
            ]
        if self.trace:
            out["passes"] = [entry.to_dict() for entry in self.trace]
        fused = self.fused_kernels()
        if fused:
            out["fused_kernels"] = fused
        if self.logical is not None:
            out["logical"] = self.logical.to_dict()
        if self.physical is not None:
            out["physical"] = self.physical.to_dict()
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        program = self.program()
        if program:
            out["program"] = program
        if self.adaptive_decisions:
            out["adaptive_decisions"] = [
                decision.summary() for decision in self.adaptive_decisions
            ]
        return out


def _inputs_first(node: "IRNode", seen: set[int]) -> list["IRNode"]:
    """``node``'s DAG in data-flow order: every node after its inputs, a
    shared (CSE'd) node once."""
    if id(node) in seen:
        return []
    seen.add(id(node))
    return [*(n for child in node.children for n in _inputs_first(child, seen)), node]


def _lines(node: "IRNode") -> list[str]:
    """``node``'s line, headed as :meth:`IRNode.render` names it; a
    coordinate node indents its steps."""
    head = f"{node.op}[{node.label}]" if node.label else node.op
    if node.op != OP_COORDINATE:
        return [f"{head}: {_step(node)}"]
    first, *steps = _batch_steps(node.info, node.join_order, node.width)
    call = _call(node.builder, node.args)
    if node.builder in ("tiled", "tiled_vector"):
        steps.append(f"scatter by tile → group_by_key (width {node.width}) → {call}")
    elif node.builder not in (None, "rdd"):
        steps.append(f"collect → {call}")
    return [f"{head}: {first}", *("  " + step for step in steps)]


def _step(node: "IRNode") -> str:
    """A tile operator's line, from the fields its lowerer executes."""
    if node.op == OP_SCAN:
        return node.attrs["storage"]
    if node.op == OP_FUSED_KERNEL:
        run = f"map_partitions(kernel {node.kernel.fingerprint})"
        if node.kernel.mode == "tiles":
            return run
        return f"join on the output coordinate → {run}"
    if node.op == OP_REPLICATE:
        sig = {entry[0]: entry[1:] for entry in node.sig}
        if "copies" in sig:  # 5.4: a row or column band
            return f"flat_map each tile to the {sig['copies'][0]} cells of its band"
        return f"flat_map each tile to I_f(K), K = {', '.join(sig['key'][0])}"
    if node.op == OP_GROUP_BY:
        return "group_by_key → scatter into destination tiles"
    if node.op == OP_TILED_REDUCE:
        monoids = ", ".join(mon for _expr, mon in dict(node.sig)["slots"])
        join = "join on shared indices → " if len(node.setup.gens) > 1 else ""
        return f"{join}contract → reduce_by_key({monoids}) → finish"
    if node.op == OP_BROADCAST:
        return "collect → broadcast by join coordinate"
    if node.op == OP_ASSEMBLE:
        return f"{_call(node.builder, node.args)} from the tiles"
    assert node.op == OP_GROUP_BY_JOIN, node.op
    mon = node.match.mon.name
    fold = f"{mon}/({to_source(node.match.term)})"
    if node.side is None:
        gemm = " (band GEMM)" if node.match.band_gemm else ""
        return f"cogroup on a {node.grid[0]}x{node.grid[1]} grid → {fold} per cell{gemm}"
    partitions = f" ({node.reduce_partitions} partitions)" if node.reduce_partitions else ""
    return (
        f"flat_map past the broadcast {node.side} side → {fold} per tile "
        f"pair → reduce_by_key({mon}){partitions}"
    )


def _keys(exprs: list) -> str:
    return "[" + ", ".join(map(to_source, exprs)) + "]"


def _call(builder: str, args: tuple) -> str:
    return f"{builder}({', '.join(map(str, args))})"


def _batch_steps(info: "CompInfo", join_order: list, width: Optional[int]) -> list[str]:
    """The coordinate program over column batches: each join and group-by
    shuffled at ``width``, or all in process (``None``)."""
    names = [gen.source.name for gen in info.generators]
    steps = [f"column batches of {names[0]}"]
    for gen_idx, left_keys, right_keys in join_order:
        on = f"on {_keys(left_keys)} = {_keys(right_keys)}"
        if width is None:
            join = f"merge_join {on}" if left_keys else "merge_join (cartesian)"
        elif left_keys:
            join = f"scatter {on} → cogroup (width {width}) → merge_join"
        else:
            join = "cartesian → merge_join"
        steps.append(f"join {names[gen_idx]}: {join}")
    select = "".join(f"filter {to_source(guard)} → " for guard in info.residual_guards)
    if info.group_key_vars is None:
        value = to_source(info.head_value)
        if info.head_key is not None:
            value = f"({to_source(info.head_key)}, {value})"
        return [*steps, f"{select}map to {value}"]
    monoids = ", ".join(slot.monoid for slot in info.slots)
    shuffle = "" if width is None else f"scatter → group_by_key (width {width}) → "
    head_key = regrouped_head_key(info)
    rekey = "" if head_key is None else f" → key {to_source(head_key)}"
    return [*steps, (
        f"{select}group_reduce {monoids} by {_keys(info.group_key_exprs)} → "
        f"{shuffle}reduce{rekey}"
    )]
