"""Comprehension analysis: the structure the translation rules match on.

A normalized, flat comprehension is decomposed into:

* **generators** over storages (tiled arrays, local arrays, RDDs of
  coordinate pairs) or index ranges, each binding index variables and a
  value variable;
* **join conditions** — equality guards linking variables of different
  generators (or expressions each depending on a single generator: the
  ``kx(i,j) == ky(ii,jj)`` form of the group-by-join rule);
* an **equivalence relation** over index variables induced by
  variable-to-variable equality guards (union-find);
* the **group-by key** and the **reduction structure** of the head: every
  use of lifted variables abstracted as ``⊕/g(vars)`` slots plus a
  residual function ``f`` over the slots (Section 3's
  ``f(⊕1/w1.map(g1), ..., ⊕m/wm.map(gm))`` decomposition).

Let-bindings are inlined (for analysis only) so the slots' ``g``
expressions mention generator-bound variables directly — ``let v = a*b,
group by (i,j)`` followed by ``+/v`` yields the slot ``(+, a*b)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..comprehension.ast import (
    BinOp, Comprehension, Expr, Generator, GroupByQual, Guard, LetQual, Lit,
    Node, Pattern, Qualifier, RangeExpr, Reduce, TupleExpr, TuplePat, Var,
    VarPat, WildPat, free_vars, pattern_to_expr, pattern_vars,
)
from ..comprehension.desugar import rewrite_bottom_up
from ..comprehension.errors import SacPlanError
from ..comprehension.monoids import is_monoid


@dataclass
class GenInfo:
    """One generator over an association-list source.

    ``index_vars`` are the variables of the key pattern (flattened) and
    ``value_var`` the variable bound to the element value (``None`` for a
    wildcard).  ``source`` is the *expression*; the planner resolves it to
    a storage against the environment.
    """

    index_vars: list[str]
    value_var: Optional[str]
    source: Expr
    position: int

    @property
    def arity(self) -> int:
        return len(self.index_vars)

    @property
    def bound_vars(self) -> list[str]:
        """Every variable the generator binds: indices, then the value."""
        if self.value_var is None:
            return list(self.index_vars)
        return [*self.index_vars, self.value_var]


@dataclass
class RangeGen:
    """A generator over an index range ``v <- lo until hi``."""

    var: str
    lo: Expr
    hi: Expr
    position: int


@dataclass
class JoinCond:
    """An equality guard usable as a join: ``left == right`` with each
    side's variables drawn from a single (distinct) generator."""

    left: Expr
    right: Expr
    left_gen: int
    right_gen: int


@dataclass
class ReductionSlot:
    """One ``⊕/g(vars)`` aggregation extracted from the head."""

    monoid: str
    expr: Expr  # g, over generator-bound variables
    slot_var: str


@dataclass
class CompInfo:
    """Full analysis result for one flat comprehension."""

    comp: Comprehension
    generators: list[GenInfo] = field(default_factory=list)
    ranges: list[RangeGen] = field(default_factory=list)
    joins: list[JoinCond] = field(default_factory=list)
    residual_guards: list[Expr] = field(default_factory=list)
    lets: dict[str, Expr] = field(default_factory=dict)
    group_key_vars: Optional[list[str]] = None
    #: analysis-time expansion of each group key variable
    group_key_exprs: Optional[list[Expr]] = None
    head_key: Optional[Expr] = None
    head_value: Optional[Expr] = None
    #: value expression with reductions abstracted into slots
    residual_value: Optional[Expr] = None
    slots: list[ReductionSlot] = field(default_factory=list)
    post_group_quals: list[Qualifier] = field(default_factory=list)

    # -- derived helpers ------------------------------------------------

    def var_class(self) -> dict[str, int]:
        """Union-find classes of index variables linked by ``==`` guards."""
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gen in self.generators:
            for var in gen.index_vars:
                parent.setdefault(var, var)
        for rng in self.ranges:
            parent.setdefault(rng.var, rng.var)
        for join in self.joins:
            if isinstance(join.left, Var) and isinstance(join.right, Var):
                parent[find(join.left.name)] = find(join.right.name)
        # Same-generator equalities (e.g. the diagonal's ``i == j``) also
        # unify dimensions; they stay as residual guards for masking.
        for guard in self.residual_guards:
            if (
                isinstance(guard, BinOp)
                and guard.op == "=="
                and isinstance(guard.left, Var)
                and isinstance(guard.right, Var)
                and guard.left.name in parent
                and guard.right.name in parent
            ):
                parent[find(guard.left.name)] = find(guard.right.name)
        roots: dict[str, int] = {}
        classes: dict[str, int] = {}
        for var in list(parent):
            root = find(var)
            if root not in roots:
                roots[root] = len(roots)
            classes[var] = roots[root]
        return classes

    def generator_of(self, var: str) -> Optional[int]:
        """Index of the generator binding ``var`` (index or value)."""
        for gen in self.generators:
            if var in gen.index_vars or var == gen.value_var:
                return gen.position
        return None


def analyze(comp: Comprehension) -> CompInfo:
    """Decompose a flat (desugared + normalized) comprehension."""
    info = CompInfo(comp=comp)
    saw_group_by = False

    for qual in comp.qualifiers:
        if isinstance(qual, GroupByQual):
            if saw_group_by:
                raise SacPlanError("multiple group-by qualifiers are not planned; "
                                   "use the reference interpreter")
            if qual.pattern is None or qual.key is not None:
                raise SacPlanError("group-by must be desugared before planning")
            saw_group_by = True
            info.group_key_vars = pattern_vars(qual.pattern)
            continue
        if saw_group_by:
            info.post_group_quals.append(qual)
            continue
        if isinstance(qual, Generator):
            _add_generator(info, qual)
        elif isinstance(qual, LetQual):
            _add_let(info, qual)
        elif isinstance(qual, Guard):
            _add_guard(info, qual.expr)
        else:
            raise SacPlanError(f"unexpected qualifier {type(qual).__name__}")

    if info.group_key_vars is not None:
        info.group_key_exprs = [
            _expand_lets(Var(name), info.lets) for name in info.group_key_vars
        ]

    _analyze_head(info)
    return info


# ----------------------------------------------------------------------


def _add_generator(info: CompInfo, qual: Generator) -> None:
    if isinstance(qual.source, RangeExpr):
        if not isinstance(qual.pattern, VarPat):
            raise SacPlanError(
                f"range generators bind one variable, got pattern {qual.pattern}"
            )
        info.ranges.append(
            RangeGen(qual.pattern.name, qual.source.lo, qual.source.hi,
                     len(info.generators) + len(info.ranges))
        )
        return
    pattern = qual.pattern
    if not isinstance(pattern, TuplePat) or len(pattern.items) != 2:
        raise SacPlanError(
            f"association-list generators match (key, value) pairs; got {pattern}"
        )
    key_pat, value_pat = pattern.items
    index_vars = _flat_vars(key_pat)
    # Wildcards in the index pattern get unique placeholder names so they
    # do not alias each other in the class analysis.
    index_vars = [
        f"_$g{len(info.generators)}w{i}" if name == "_" else name
        for i, name in enumerate(index_vars)
    ]
    if isinstance(value_pat, VarPat):
        value_var: Optional[str] = value_pat.name
    elif isinstance(value_pat, WildPat):
        value_var = None
    else:
        raise SacPlanError(f"value pattern must be a variable, got {value_pat}")
    info.generators.append(
        GenInfo(index_vars, value_var, qual.source, len(info.generators))
    )


def _flat_vars(pattern: Pattern) -> list[str]:
    if isinstance(pattern, VarPat):
        return [pattern.name]
    if isinstance(pattern, TuplePat):
        out: list[str] = []
        for item in pattern.items:
            out.extend(_flat_vars(item))
        return out
    if isinstance(pattern, WildPat):
        return ["_"]
    raise SacPlanError(f"unsupported index pattern {pattern}")


def _add_let(info: CompInfo, qual: LetQual) -> None:
    if not isinstance(qual.pattern, VarPat):
        # Tuple lets are rare after normalization; treat components as
        # opaque (forces the fallback paths).
        raise SacPlanError(f"tuple let patterns are not planned: {qual.pattern}")
    info.lets[qual.pattern.name] = _expand_lets(qual.expr, info.lets)


def _add_guard(info: CompInfo, expr: Expr) -> None:
    expanded = _expand_lets(expr, info.lets)
    if isinstance(expanded, BinOp) and expanded.op == "==":
        left_gen = _sole_generator(info, expanded.left)
        right_gen = _sole_generator(info, expanded.right)
        if (
            left_gen is not None
            and right_gen is not None
            and left_gen != right_gen
        ):
            info.joins.append(JoinCond(expanded.left, expanded.right, left_gen, right_gen))
            return
    info.residual_guards.append(expanded)


def _sole_generator(info: CompInfo, expr: Expr) -> Optional[int]:
    """The unique generator whose variables ``expr`` uses, if unique."""
    gens = set()
    for var in free_vars(expr):
        owner = info.generator_of(var)
        if owner is not None:
            gens.add(owner)
    if len(gens) == 1:
        return gens.pop()
    return None


def _expand_lets(expr: Expr, lets: dict[str, Expr]) -> Expr:
    if not lets:
        return expr

    def visit(node: Node) -> Node:
        if isinstance(node, Var) and node.name in lets:
            return lets[node.name]
        return node

    return rewrite_bottom_up(expr, visit)  # type: ignore[return-value]


def _analyze_head(info: CompInfo) -> None:
    head = info.comp.head
    if isinstance(head, TupleExpr) and len(head.items) == 2:
        info.head_key = _expand_lets(head.items[0], info.lets)
        info.head_value = _expand_lets(head.items[1], info.lets)
    else:
        info.head_key = None
        info.head_value = _expand_lets(head, info.lets)
    if info.group_key_vars is None:
        info.residual_value = info.head_value
        return
    # Abstract reductions into slots (Section 3).
    counter = [0]
    slots: list[ReductionSlot] = []

    def visit(node: Node) -> Node:
        if isinstance(node, Reduce):
            name = f"agg${counter[0]}"
            counter[0] += 1
            mon = node.monoid
            expr = _expand_lets(node.expr, info.lets)
            if mon == "count":
                mon, expr = "+", Lit(1)
            if not is_monoid(mon):
                raise SacPlanError(f"cannot plan reduction by {node.monoid!r}")
            slots.append(ReductionSlot(mon, expr, name))
            return Var(name)
        return node

    info.residual_value = rewrite_bottom_up(info.head_value, visit)  # type: ignore[assignment]
    info.slots = slots


def key_components(key: Optional[Expr]) -> list[Expr]:
    """The components of a head key (a tuple, or a single expression)."""
    if key is None:
        return []
    if isinstance(key, TupleExpr):
        return list(key.items)
    return [key]


def regrouped_head_key(info: CompInfo) -> Optional[Expr]:
    """A group-by's head key over the group-by variables — ``i+2`` in
    ``(i+2, +/b) … group by i`` — or ``None`` when it is the group key
    itself, which then keys the output."""
    if info.group_key_vars is None or info.head_key is None:
        return None
    head = info.comp.head
    assert isinstance(head, TupleExpr)
    key = head.items[0]
    group = [Var(name) for name in info.group_key_vars]
    if key_components(key) == group and isinstance(key, TupleExpr) == (len(group) > 1):
        return None
    return key
