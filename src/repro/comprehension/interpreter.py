"""Reference interpreter: the formal semantics of array comprehensions.

This module evaluates any desugared comprehension directly over
association lists, implementing the meaning given in Sections 2–3 of the
paper:

* a generator ``p <- e`` traverses the *abstract* form of ``e`` — concrete
  storages are up-coerced through their registered sparsifiers, engine
  RDDs are collected, ranges and lists iterate as themselves;
* ``group by p`` groups the bindings produced so far by the value of
  ``p``'s variables and **lifts** every other bound variable to the list
  of its values within the group (Rule 11);
* ``op/e`` folds a monoid; builders down-coerce the resulting association
  list into a concrete storage.

The interpreter is deliberately simple and obviously correct; the planner
and kernels are differential-tested against it.  Semantics choices shared
with the compiled path (and with the paper's Scala):

* ``/`` and ``%`` on two integers are integer division/modulo — the tile
  arithmetic ``i/N``, ``i%N`` depends on this;
* pattern-match failure in a generator is an error, not a filter.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from ..storage.registry import REGISTRY, BuildContext, StorageRegistry
from .ast import (
    BinOp, BuilderApp, Call, Comprehension, Expr, Field, Generator,
    GroupByQual, Guard, IfExpr, Index, LetQual, Lit, Pattern, Qualifier,
    RangeExpr, Reduce, TupleExpr, TuplePat, UnOp, Var, VarPat, WildPat,
    pattern_vars,
)
from .errors import SacNameError, SacPatternError, SacTypeError
from .monoids import monoid


def _int_div(a: Any, b: Any) -> Any:
    """Scala-style division: integer division on ints, true otherwise."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) // int(b)
    return a / b


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _int_div,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Pure functions available in every query.
BUILTINS: dict[str, Callable] = {
    "abs": abs,
    "min": min,
    "max": max,
    "count": len,
    "len": len,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "pow": pow,
    "floor": math.floor,
    "ceil": math.ceil,
}


class Interpreter:
    """Evaluates comprehension ASTs against an environment.

    Args:
        env: free-variable bindings (arrays, scalars, lists, functions).
        build_context: ambient parameters for builders (engine, tile size).
        registry: storage registry (defaults to the global one).
    """

    def __init__(
        self,
        env: Optional[Mapping[str, Any]] = None,
        build_context: Optional[BuildContext] = None,
        registry: StorageRegistry = REGISTRY,
    ):
        self._env = dict(env or {})
        self._build_context = build_context or BuildContext()
        self._registry = registry

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(self, expr: Expr, extra_env: Optional[Mapping[str, Any]] = None) -> Any:
        env = dict(self._env)
        if extra_env:
            env.update(extra_env)
        return self._eval(expr, env)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, env: dict[str, Any]) -> Any:
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise SacNameError(f"unbound variable {expr.name!r}") from None
        if isinstance(expr, TupleExpr):
            return tuple(self._eval(item, env) for item in expr.items)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, UnOp):
            operand = self._eval(expr.operand, env)
            return -operand if expr.op == "-" else not operand
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        if isinstance(expr, Field):
            return self._eval_field(expr, env)
        if isinstance(expr, Index):
            return self._eval_index(expr, env)
        if isinstance(expr, RangeExpr):
            lo = self._eval(expr.lo, env)
            hi = self._eval(expr.hi, env)
            return range(int(lo), int(hi) + (1 if expr.inclusive else 0))
        if isinstance(expr, IfExpr):
            if self._eval(expr.cond, env):
                return self._eval(expr.then, env)
            return self._eval(expr.orelse, env)
        if isinstance(expr, Reduce):
            return self._eval_reduce(expr, env)
        if isinstance(expr, Comprehension):
            return self._eval_comprehension(expr, env)
        if isinstance(expr, BuilderApp):
            return self._eval_builder(expr, env)
        raise SacTypeError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, expr: BinOp, env: dict[str, Any]) -> Any:
        if expr.op == "&&":
            return bool(self._eval(expr.left, env)) and bool(self._eval(expr.right, env))
        if expr.op == "||":
            return bool(self._eval(expr.left, env)) or bool(self._eval(expr.right, env))
        try:
            op = _BINOPS[expr.op]
        except KeyError:
            raise SacTypeError(f"unknown operator {expr.op!r}") from None
        return op(self._eval(expr.left, env), self._eval(expr.right, env))

    def _eval_call(self, expr: Call, env: dict[str, Any]) -> Any:
        args = [self._eval(arg, env) for arg in expr.args]
        func = env.get(expr.func)
        if callable(func):
            return func(*args)
        if expr.func in BUILTINS:
            return BUILTINS[expr.func](*args)
        raise SacNameError(f"unknown function {expr.func!r}")

    def _eval_field(self, expr: Field, env: dict[str, Any]) -> Any:
        base = self._eval(expr.base, env)
        if expr.name == "length":
            return len(base)
        if isinstance(base, Mapping):
            try:
                return base[expr.name]
            except KeyError:
                raise SacNameError(
                    f"record has no field {expr.name!r}; fields: {sorted(base)}"
                ) from None
        attr = getattr(base, expr.name, None)
        if attr is not None and not callable(attr):
            return attr
        raise SacTypeError(
            f"cannot access field {expr.name!r} on {type(base).__name__}"
        )

    def _eval_index(self, expr: Index, env: dict[str, Any]) -> Any:
        base = self._eval(expr.base, env)
        indices = [self._eval(i, env) for i in expr.indices]
        return index_value(base, indices)

    def _eval_reduce(self, expr: Reduce, env: dict[str, Any]) -> Any:
        values = self._eval(expr.expr, env)
        if not isinstance(values, (list, tuple, range, np.ndarray)):
            raise SacTypeError(
                f"reduction {expr.monoid}/ needs a collection, got "
                f"{type(values).__name__}"
            )
        if expr.monoid == "count":
            return len(values)
        return monoid(expr.monoid).fold(values)

    # ------------------------------------------------------------------
    # Comprehensions
    # ------------------------------------------------------------------

    def _eval_comprehension(self, comp: Comprehension, env: dict[str, Any]) -> list:
        rows = self._rows(comp.qualifiers, env)
        return [self._eval(comp.head, row) for row in rows]

    def _rows(
        self, qualifiers: tuple[Qualifier, ...], env: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """Process qualifiers left to right over a list of binding rows."""
        rows = [dict(env)]
        local_vars: set[str] = set()
        for qual in qualifiers:
            if isinstance(qual, Generator):
                new_rows = []
                for row in rows:
                    source = self._eval(qual.source, row)
                    for item in self._iterate(source):
                        extended = dict(row)
                        bind_pattern(qual.pattern, item, extended)
                        new_rows.append(extended)
                rows = new_rows
                local_vars |= set(pattern_vars(qual.pattern))
            elif isinstance(qual, LetQual):
                for row in rows:
                    bind_pattern(qual.pattern, self._eval(qual.expr, row), row)
                local_vars |= set(pattern_vars(qual.pattern))
            elif isinstance(qual, Guard):
                rows = [row for row in rows if self._eval(qual.expr, row)]
            elif isinstance(qual, GroupByQual):
                if qual.pattern is None or qual.key is not None:
                    raise SacTypeError(
                        "group-by must be desugared before interpretation"
                    )
                rows = self._group(rows, qual.pattern, local_vars)
                local_vars = set(pattern_vars(qual.pattern)) | {
                    v for v in local_vars
                }
            else:
                raise SacTypeError(f"unknown qualifier {type(qual).__name__}")
        return rows

    def _group(
        self,
        rows: list[dict[str, Any]],
        pattern: Pattern,
        local_vars: set[str],
    ) -> list[dict[str, Any]]:
        """Rule (11): group rows by the key pattern and lift other vars."""
        key_vars = pattern_vars(pattern)
        lifted_vars = sorted(local_vars - set(key_vars))
        groups: dict[Any, list[dict[str, Any]]] = {}
        for row in rows:
            try:
                key = tuple(_hashable(row[name]) for name in key_vars)
            except KeyError as missing:
                raise SacNameError(
                    f"group-by key variable {missing} is not bound"
                ) from None
            groups.setdefault(key, []).append(row)
        out = []
        for key, group_rows in groups.items():
            new_row = dict(group_rows[0])
            for name, value in zip(key_vars, key):
                new_row[name] = value
            for name in lifted_vars:
                new_row[name] = [row[name] for row in group_rows if name in row]
            out.append(new_row)
        return out

    def _iterate(self, value: Any) -> Iterator:
        """Traverse a generator source in its abstract (assoc-list) form."""
        sparsifier = self._registry.sparsifier_for(value)
        if sparsifier is not None:
            return iter(sparsifier(value))
        if isinstance(value, range):
            return iter(value)
        if isinstance(value, (list, tuple)):
            return iter(value)
        if isinstance(value, dict):
            return iter(value.items())
        if hasattr(value, "collect"):  # engine RDD
            return iter(value.collect())
        if isinstance(value, Iterable):
            return iter(value)
        raise SacTypeError(f"cannot traverse a {type(value).__name__}")

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    def _eval_builder(self, expr: BuilderApp, env: dict[str, Any]) -> Any:
        args = tuple(self._eval(arg, env) for arg in expr.args)
        items = self._eval(expr.source, env)
        if not isinstance(items, list):
            items = list(self._iterate(items))
        return self._registry.build(expr.name, args, items, self._build_context)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def bind_pattern(pattern: Pattern, value: Any, env: dict[str, Any]) -> None:
    """Destructure ``value`` against ``pattern`` into ``env``.

    Mismatched tuple arity raises :class:`SacPatternError` — generators in
    this language always traverse homogeneous association lists, so a
    mismatch is a bug, not a filter.
    """
    if isinstance(pattern, VarPat):
        env[pattern.name] = _scalar(value)
    elif isinstance(pattern, WildPat):
        pass
    elif isinstance(pattern, TuplePat):
        if not isinstance(value, (tuple, list)) or len(value) != len(pattern.items):
            raise SacPatternError(
                f"cannot match {value!r} against pattern {pattern}"
            )
        for sub, item in zip(pattern.items, value):
            bind_pattern(sub, item, env)
    else:
        raise SacTypeError(f"unknown pattern {type(pattern).__name__}")


def _scalar(value: Any) -> Any:
    """NumPy scalars become Python scalars so keys hash consistently."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _hashable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


def index_value(base: Any, indices: list) -> Any:
    """Shared indexing semantics for ``base[e1, ..., en]``."""
    if hasattr(base, "get") and not isinstance(base, dict):
        return base.get(*indices)
    if isinstance(base, np.ndarray):
        out = base[tuple(int(i) for i in indices)]
        return out.item() if isinstance(out, np.generic) else out
    if isinstance(base, dict):
        key = indices[0] if len(indices) == 1 else tuple(indices)
        return base[key]
    if isinstance(base, (list, tuple)) and len(indices) == 1:
        return base[int(indices[0])]
    raise SacTypeError(
        f"cannot index a {type(base).__name__} with {len(indices)} indices"
    )
