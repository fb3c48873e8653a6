"""Tile-level kernels: NumPy realizations of per-block computations.

The paper's generated Scala processes each tile with parallel loops
(Scala's ``.par``).  The Python equivalent of "fast dense loops inside a
block" is a vectorized NumPy expression, so this module provides:

* :func:`compile_vectorized` — compiles a scalar DSL expression into a
  function over NumPy arrays (index grids and tile values), preserving
  the DSL's integer-division semantics.  Raises
  :class:`KernelUnsupported` for constructs with no vectorized form, in
  which case the planner falls back to slower reference evaluation.

* :func:`contract` — the Section 5.3/5.4 per-tile-pair aggregation.  The
  multiply-add case dispatches to BLAS (``@``; this *is* the optimal
  tile kernel the paper gets from its generic rules); any other
  monoid/term pair uses a broadcast-and-reduce with the monoid's ufunc.

* :func:`band_gemm` — a whole SUMMA cell's multiply-add as one GEMM over
  the concatenated row and column bands.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import (
    BinOp, Call, Expr, IfExpr, Lit, TupleExpr, UnOp, Var, free_vars,
)
from ..comprehension.monoids import Monoid, monoid


class KernelUnsupported(Exception):
    """The expression has no vectorized NumPy form."""


Env = dict[str, Any]
Kernel = Callable[[Env], Any]


def _div(a: Any, b: Any) -> Any:
    """DSL division: floor division when both operands are integral."""
    a_int = isinstance(a, (int, np.integer)) or (
        isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.integer)
    )
    b_int = isinstance(b, (int, np.integer)) or (
        isinstance(b, np.ndarray) and np.issubdtype(b.dtype, np.integer)
    )
    if a_int and b_int:
        return a // b
    return a / b


def _any_zero(divisor: Any) -> bool:
    return bool(np.any(np.equal(divisor, 0)))


def _div_checked(a: Any, b: Any) -> Any:
    """:func:`_div` that fails the way the interpreter's ``/`` does."""
    if _any_zero(b):
        raise ZeroDivisionError("division by zero")
    return _div(a, b)


def _mod_checked(a: Any, b: Any) -> Any:
    if _any_zero(b):
        raise ZeroDivisionError("modulo by zero")
    return np.mod(a, b)


def _partial(fn: Callable) -> Callable:
    """``fn`` raising ``math``'s errors where NumPy would warn and return
    ``nan`` / ``inf``: a domain error is a ``ValueError``, a range error
    an ``OverflowError``."""

    def call(*args: Any) -> Any:
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return fn(*args)
        except FloatingPointError as exc:
            error = OverflowError if "overflow" in str(exc) else ValueError
            raise error(f"math domain or range error: {exc}") from None

    return call


#: Scope of a ``checked`` kernel: the operators a row can fail in raise
#: the interpreter's exception for that row instead of warning.
_CHECKED_SCOPE = {
    "np": np, "_div": _div_checked, "_mod": _mod_checked, "_partial": _partial,
}

#: Calls that are partial functions (``math`` raises outside their domain).
PARTIAL_CALLS = frozenset({"log", "sqrt", "exp", "pow"})


def compile_vectorized(expr: Expr, checked: bool = False) -> Kernel:
    """Compile ``expr`` into a function of an array environment.

    Every free variable must be present in the environment at call time,
    bound to a scalar or a broadcastable NumPy array.  The function is
    :func:`emit_vectorized_source`'s text over ``env['name']`` lookups,
    so the other rules' tile kernels and the fused kernels evaluate one
    rendering.  Rendering (and :class:`KernelUnsupported`) happens
    here; ``compile()`` waits for the first call — it costs more than
    planning a small expression, and a fused chain never calls it.

    ``checked`` kernels stand in for per-row interpretation (the
    coordinate rule's column batches), where a failing row is an error,
    never a warning: a zero divisor under ``/`` or ``%`` raises
    ``ZeroDivisionError``, ``log`` / ``sqrt`` / ``exp`` / ``pow`` raise
    ``math``'s errors, and everything Python floats do silently
    (overflow to ``inf``, ``inf - inf``) stays silent under ``-W error``.
    """
    names = {name: f"env[{name!r}]" for name in free_vars(expr)}
    source = "lambda env: " + emit_vectorized_source(expr, names, checked)
    scope = _CHECKED_SCOPE if checked else {"np": np, "_div": _div}
    compiled: list[Kernel] = []

    def kernel(env: Env) -> Any:
        if not compiled:
            compiled.append(eval(source, dict(scope)))
        if not checked:
            return compiled[0](env)
        with np.errstate(all="ignore"):
            return compiled[0](env)

    return kernel


_NP_BINOP_SOURCE: dict[str, str] = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "%": "np.mod",
    "==": "np.equal",
    "!=": "np.not_equal",
    "<": "np.less",
    "<=": "np.less_equal",
    ">": "np.greater",
    ">=": "np.greater_equal",
    "&&": "np.logical_and",
    "||": "np.logical_or",
}

_NP_CALL_SOURCE: dict[str, str] = {
    "abs": "np.abs",
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "floor": "np.floor",
    "ceil": "np.ceil",
    "pow": "np.power",
    "min": "np.minimum",
    "max": "np.maximum",
}


def literal_source(value: Any) -> str:
    """Source text of a scalar constant, valid in the kernel namespace.

    ``repr`` round-trips every finite scalar exactly but spells the
    non-finite floats as the bare names ``inf`` / ``nan``; those render
    through ``np.inf`` / ``np.nan``, sign and type kept, so each value
    keeps its own text (and kernel fingerprint).
    """
    if isinstance(value, float) and not math.isfinite(value):
        text = "np.nan" if value != value else "np.inf"
        if math.copysign(1.0, value) < 0:
            text = "-" + text
        return f"np.float64({text})" if isinstance(value, np.floating) else text
    return repr(value)


def emit_vectorized_source(
    expr: Expr, names: dict[str, str], checked: bool = False
) -> str:
    """Render ``expr`` as NumPy source text over pre-bound ``names``.

    ``names`` maps each DSL variable to the Python expression that holds
    its value in the generated scope (a local identifier, an ``env[...]``
    lookup, or :func:`literal_source` text for closed-over constants).
    Operators render as ufunc calls (``_div`` for the DSL's integral
    division).  Raises :class:`KernelUnsupported` for constructs with no
    vectorized form and for variables absent from ``names``.  ``checked``
    text (see :func:`compile_vectorized`) routes ``%`` and the partial
    calls through the raising helpers of its scope.
    """
    if isinstance(expr, Lit):
        return literal_source(expr.value)
    if isinstance(expr, Var):
        try:
            return names[expr.name]
        except KeyError:
            raise KernelUnsupported(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, TupleExpr):
        parts = [emit_vectorized_source(item, names, checked) for item in expr.items]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"
    if isinstance(expr, BinOp):
        left = emit_vectorized_source(expr.left, names, checked)
        right = emit_vectorized_source(expr.right, names, checked)
        if expr.op == "/":
            return f"_div({left}, {right})"
        if checked and expr.op == "%":
            return f"_mod({left}, {right})"
        try:
            op = _NP_BINOP_SOURCE[expr.op]
        except KeyError:
            raise KernelUnsupported(f"operator {expr.op!r}") from None
        return f"{op}({left}, {right})"
    if isinstance(expr, UnOp):
        operand = emit_vectorized_source(expr.operand, names, checked)
        if expr.op == "-":
            return f"np.negative({operand})"
        return f"np.logical_not({operand})"
    if isinstance(expr, IfExpr):
        cond = emit_vectorized_source(expr.cond, names, checked)
        then = emit_vectorized_source(expr.then, names, checked)
        orelse = emit_vectorized_source(expr.orelse, names, checked)
        return f"np.where({cond}, {then}, {orelse})"
    if isinstance(expr, Call):
        try:
            fn = _NP_CALL_SOURCE[expr.func]
        except KeyError:
            raise KernelUnsupported(f"function {expr.func!r}") from None
        args = ", ".join(
            emit_vectorized_source(arg, names, checked) for arg in expr.args
        )
        if checked and expr.func in PARTIAL_CALLS:
            fn = f"_partial({fn})"
        return f"{fn}({args})"
    raise KernelUnsupported(f"expression {type(expr).__name__}")


#: Attribute memoizing compiled kernels on the (frozen, immutable) AST
#: node: iterative workloads re-plan the same normalized tree every
#: step, and a kernel depends only on the expression.
_KERNEL_MEMO = "_sac_kernel_memo"


def compile_vectorized_cached(expr: Expr, checked: bool = False) -> Kernel:
    """:func:`compile_vectorized` memoized on the node (failures too)."""
    slot = _KERNEL_MEMO + "_checked" if checked else _KERNEL_MEMO
    memo = getattr(expr, slot, None)
    if memo is None:
        try:
            memo = compile_vectorized(expr, checked)
        except KernelUnsupported as exc:
            memo = exc
        object.__setattr__(expr, slot, memo)
    if isinstance(memo, KernelUnsupported):
        raise memo
    return memo


# ----------------------------------------------------------------------
# Contractions (Sections 5.3 / 5.4)
# ----------------------------------------------------------------------


def contract(
    left: np.ndarray,
    right: np.ndarray,
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
    term: Optional[Expr],
    mon: Monoid,
    value_vars: tuple[str, str],
) -> np.ndarray:
    """Aggregate ``⊕/h(a, b)`` over the shared (contracted) index classes.

    ``left_axes``/``right_axes``/``out_axes`` name each tensor dimension by
    its index *class*; classes present in the inputs but not the output
    are contracted.  ``term`` is ``h`` (``None`` means plain ``a*b``).

    The canonical multiply-add case lowers to ``einsum`` — for the matrix
    multiplication comprehension this is exactly the per-tile GEMM the
    paper's translation produces.  Other (monoid, term) pairs broadcast
    both tiles over the union of classes, evaluate ``h`` vectorized, and
    reduce the contracted axes with the monoid's ufunc.
    """
    if _is_multiply_add(term, mon, value_vars):
        fast = _blas_contract(left, right, left_axes, right_axes, out_axes)
        if fast is not None:
            return fast
        subscripts = _einsum_subscripts(left_axes, right_axes, out_axes)
        return np.einsum(subscripts, left, right)

    all_axes = list(out_axes) + [
        c for c in dict.fromkeys(list(left_axes) + list(right_axes))
        if c not in out_axes
    ]
    left_b = _broadcast_to_axes(left, left_axes, all_axes)
    right_b = _broadcast_to_axes(right, right_axes, all_axes)
    if term is None:
        values = left_b * right_b
    else:
        kernel = compile_vectorized_cached(term)
        values = kernel({value_vars[0]: left_b, value_vars[1]: right_b})
    if mon.np_combine is None:
        raise KernelUnsupported(f"monoid {mon.name!r} has no ufunc")
    reduce_axes = tuple(range(len(out_axes), len(all_axes)))
    if not reduce_axes:
        return np.asarray(values)
    result = values
    for axis in sorted(reduce_axes, reverse=True):
        result = mon.np_combine.reduce(result, axis=axis)
    return result


def _blas_contract(
    left: np.ndarray,
    right: np.ndarray,
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
) -> Optional[np.ndarray]:
    """Dispatch common multiply-add contractions straight to BLAS.

    ``einsum`` without a precomputed path runs a C loop an order of
    magnitude slower than ``dot`` at tile sizes, so the matrix-matrix and
    matrix-vector orientations go to ``@`` with transposes.  Returns
    ``None`` for shapes this does not cover.
    """
    # Matrix x matrix with one contracted axis.
    if len(left_axes) == 2 and len(right_axes) == 2 and len(out_axes) == 2:
        shared = set(left_axes) & set(right_axes)
        if len(shared) != 1:
            return None
        k = shared.pop()
        a = left if left_axes[1] == k else left.T
        a_out = left_axes[0] if left_axes[1] == k else left_axes[1]
        b = right if right_axes[0] == k else right.T
        b_out = right_axes[1] if right_axes[0] == k else right_axes[0]
        if (a_out, b_out) == tuple(out_axes):
            return a @ b
        if (b_out, a_out) == tuple(out_axes):
            return (a @ b).T
        return None
    # Matrix x vector.
    if len(left_axes) == 2 and len(right_axes) == 1 and len(out_axes) == 1:
        (k,) = right_axes
        if k not in left_axes:
            return None
        a = left if left_axes[1] == k else left.T
        a_out = left_axes[0] if left_axes[1] == k else left_axes[1]
        return a @ right if (a_out,) == tuple(out_axes) else None
    if len(left_axes) == 1 and len(right_axes) == 2 and len(out_axes) == 1:
        (k,) = left_axes
        if k not in right_axes:
            return None
        b = right if right_axes[0] == k else right.T
        b_out = right_axes[1] if right_axes[0] == k else right_axes[0]
        return left @ b if (b_out,) == tuple(out_axes) else None
    # Vector x vector inner product.
    if len(left_axes) == 1 and len(right_axes) == 1 and len(out_axes) == 0:
        if left_axes == right_axes:
            return np.asarray(left @ right)
    return None


def band_gemm(
    left: Sequence[tuple[int, int, np.ndarray]],
    right: Sequence[tuple[int, int, np.ndarray]],
) -> Optional[list[tuple[tuple[int, int], np.ndarray]]]:
    """Every ``(i, j)`` product tile of a block grid from ONE GEMM.

    ``left`` lists ``(i, k, tile)`` with ``rows_i × depth_k`` tiles,
    ``right`` ``(k, j, tile)`` with ``depth_k × cols_j`` tiles; ragged
    edge tiles keep their true size.  The tiles are copied into one row
    band and one column band, multiplied by a single ``a @ b`` (the sum
    over ``k`` happens inside BLAS, on the deep inner dimension), and the
    result is cut into destination tiles.  Returns ``None`` unless both
    sides are complete grids over the same ``k`` — an absent block would
    be multiplied as zeros, work no per-pair contraction does.
    """
    a_tiles = {(i, k): tile for i, k, tile in left}
    b_tiles = {(k, j): tile for k, j, tile in right}
    rows = sorted({i for i, _k in a_tiles})
    depth = sorted({k for _i, k in a_tiles})
    cols = sorted({j for _k, j in b_tiles})
    if (
        not len(left) == len(a_tiles) == len(rows) * len(depth)
        or not len(right) == len(b_tiles) == len(depth) * len(cols)
        or depth != sorted({k for k, _j in b_tiles})
    ):
        return None
    product = (
        np.block([[a_tiles[i, k] for k in depth] for i in rows])
        @ np.block([[b_tiles[k, j] for j in cols] for k in depth])
    )
    row_at = np.cumsum([0] + [a_tiles[i, depth[0]].shape[0] for i in rows])
    col_at = np.cumsum([0] + [b_tiles[depth[0], j].shape[1] for j in cols])
    # Copies, not views: each tile is a record of its own to the block
    # manager's byte accounting and to the spill tier.
    return [
        ((i, j), product[row_at[r]:row_at[r + 1], col_at[c]:col_at[c + 1]].copy())
        for r, i in enumerate(rows)
        for c, j in enumerate(cols)
    ]


def _is_multiply_add(
    term: Optional[Expr], mon: Monoid, value_vars: tuple[str, str]
) -> bool:
    if mon.name != "+":
        return False
    if term is None:
        return True
    return (
        isinstance(term, BinOp)
        and term.op == "*"
        and {_var_name(term.left), _var_name(term.right)} == set(value_vars)
    )


def _var_name(expr: Expr) -> Optional[str]:
    return expr.name if isinstance(expr, Var) else None


def _einsum_subscripts(
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
) -> str:
    letters: dict[str, str] = {}
    alphabet = iter("abcdefghijklmnopqrstuvwxyz")
    for cls in list(left_axes) + list(right_axes) + list(out_axes):
        if cls not in letters:
            letters[cls] = next(alphabet)
    lhs = "".join(letters[c] for c in left_axes)
    rhs = "".join(letters[c] for c in right_axes)
    out = "".join(letters[c] for c in out_axes)
    return f"{lhs},{rhs}->{out}"


def _broadcast_to_axes(
    tile: np.ndarray, axes: tuple[str, ...], all_axes: list[str]
) -> np.ndarray:
    """View ``tile`` with singleton dimensions inserted for absent classes."""
    shape = []
    src_order = []
    for cls in all_axes:
        if cls in axes:
            src_order.append(axes.index(cls))
    permuted = np.transpose(tile, src_order) if src_order != list(range(tile.ndim)) else tile
    position = 0
    for cls in all_axes:
        if cls in axes:
            shape.append(permuted.shape[position])
            position += 1
        else:
            shape.append(1)
    return permuted.reshape(shape)


def combine_tiles(mon: Monoid, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Pairwise tile combination — the ``⊗′`` monoid of Section 5.3."""
    if mon.np_combine is None:
        raise KernelUnsupported(f"monoid {mon.name!r} has no ufunc")
    return mon.np_combine(left, right)
