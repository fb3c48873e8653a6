"""Executable plans: what the translation rules produce.

A :class:`Plan` packages the chosen rule, a human-readable explanation,
Spark-like pseudocode of the generated program (the analogue of the
paper's emitted Scala), and a thunk that runs it on the engine.  Tests
assert on ``rule`` to pin down *which* translation fired for each paper
example, independent of the numeric result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from .ir import OP_FUSED_KERNEL

if TYPE_CHECKING:  # pragma: no cover - types only
    from .cost import CostEstimate
    from .ir import IRNode, PassTraceEntry

#: Rule identifiers, named after the paper's sections.
RULE_LOCAL = "local"                       # Sections 2-3, interpreter
RULE_LOCAL_BATCH = "local-batch"           # Sections 2-3, column batches
RULE_PRESERVE_TILING = "preserve-tiling"   # Section 5.1, Eq. (17)
RULE_TILED_SHUFFLE = "tiled-shuffle"       # Section 5.2, Eq. (19)
RULE_TILED_REDUCE = "tiled-reduce"         # Section 5.3 (join + reduceByKey)
RULE_GROUP_BY_JOIN = "group-by-join"       # Section 5.4 (SUMMA)
RULE_COORDINATE = "coordinate"             # Section 4, Rules (13)/(14)


@dataclass
class Plan:
    """An executable translation of one comprehension."""

    rule: str
    description: str
    thunk: Callable[[], Any]
    pseudocode: str = ""
    details: dict[str, Any] = field(default_factory=dict)
    #: Cost-model prediction for the chosen strategy, when the planner
    #: ran candidate selection (group-by-join-shaped queries).
    estimate: Optional["CostEstimate"] = None
    #: Every candidate's estimate, keyed by strategy name.
    candidates: dict[str, "CostEstimate"] = field(default_factory=dict)
    #: Adaptive-execution decisions (strategy downgrades, skew splits)
    #: that fired while this plan ran; populated at execute time when the
    #: engine's adaptive layer is enabled.
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
        if self.pseudocode:
            lines.append("generated program:")
            lines.extend("  " + line for line in self.pseudocode.splitlines())
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
        if self.pseudocode:
            out["pseudocode"] = self.pseudocode
        if self.adaptive_decisions:
            out["adaptive_decisions"] = [
                decision.summary() for decision in self.adaptive_decisions
            ]
        return out
