"""Linear-algebra operations as array comprehensions.

Every function here is a thin wrapper that feeds a DSL comprehension to
a :class:`~repro.core.session.SacSession` — nothing is hand-implemented
per operation.  This is the paper's point: the operations below are
*queries*, and the generic translation rules compile each to the
appropriate distributed plan (noted per function).

All functions take tiled storages and return tiled storages; use
``.to_numpy()`` to materialize results locally.

Matrix arguments may also be :class:`~repro.storage.SparseTiledMatrix`
instances: the planner accepts them wherever it accepts dense tiled
matrices (paper §8), running annihilating maps (``transpose``,
``scale``) and ``+``-aggregations (``multiply``, ``row_sums``) on the
tiled rules and everything else on the coordinate path.  Density
statistics recorded at construction propagate through these wrappers
onto their (dense tiled) results — exactly through ``transpose``/
``scale``, union-bounded through ``add``/``subtract``, product-bounded
through ``hadamard``, and contraction-estimated through the multiplies
(see :mod:`repro.storage.stats`) — so chained operations keep pricing
plans sparse-aware without ever running a count action.
"""

from __future__ import annotations

from typing import Optional, Union

from ..storage import SparseTiledMatrix, TiledMatrix, TiledVector
from .session import SacSession

Number = Union[int, float]
#: Any matrix the tiled planner accepts; sparse inputs yield dense tiled
#: results carrying propagated density statistics.
Matrix = Union[TiledMatrix, SparseTiledMatrix]


def add(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """Matrix addition — Query (8); compiles to preserve-tiling (5.1)."""
    _check_same_shape(a, b)
    return session.run(
        "tiled(n, m)[ ((i,j), x + y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j ]",
        A=a, B=b, n=a.rows, m=a.cols,
    )


def subtract(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """Cell-wise subtraction; compiles to preserve-tiling (5.1)."""
    _check_same_shape(a, b)
    return session.run(
        "tiled(n, m)[ ((i,j), x - y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j ]",
        A=a, B=b, n=a.rows, m=a.cols,
    )


def hadamard(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """Element-wise product; compiles to preserve-tiling (5.1)."""
    _check_same_shape(a, b)
    return session.run(
        "tiled(n, m)[ ((i,j), x * y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j ]",
        A=a, B=b, n=a.rows, m=a.cols,
    )


def scale(session: SacSession, a: Matrix, factor: Number) -> TiledMatrix:
    """Scalar multiple; compiles to preserve-tiling (5.1)."""
    return session.run(
        "tiled(n, m)[ ((i,j), c * x) | ((i,j),x) <- A ]",
        A=a, n=a.rows, m=a.cols, c=float(factor),
    )


def shift(session: SacSession, a: Matrix, offset: Number) -> TiledMatrix:
    """Add a constant to every cell; preserve-tiling (5.1)."""
    return session.run(
        "tiled(n, m)[ ((i,j), x + c) | ((i,j),x) <- A ]",
        A=a, n=a.rows, m=a.cols, c=float(offset),
    )


def transpose(session: SacSession, a: Matrix) -> TiledMatrix:
    """Matrix transpose; preserve-tiling (tile grid transposes too)."""
    return session.run(
        "tiled(m, n)[ ((j,i), v) | ((i,j),v) <- A ]",
        A=a, n=a.rows, m=a.cols,
    )


def multiply(
    session: SacSession,
    a: Matrix,
    b: Matrix,
) -> TiledMatrix:
    """Matrix multiplication — Query (9).

    Compiles to the cost model's choice among the group-by-join plans
    (5.4) and the tile join + reduceByKey plan (5.3).  A session with
    ``PlannerOptions(strategy="tiled-reduce")`` reproduces the paper's
    slower "SAC" variant from Figure 4.B.
    """
    if a.cols != b.rows:
        raise ValueError(
            f"inner dimensions disagree: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    return session.run(
        "tiled(n, m)[ ((i,j), +/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
        " kk == k, let v = x*y, group by (i,j) ]",
        A=a, B=b, n=a.rows, m=b.cols,
    )


def multiply_nt(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """``A @ B.T`` without materializing the transpose (both join on
    their column index); group-by-join (5.4)."""
    if a.cols != b.cols:
        raise ValueError(
            f"cannot multiply {a.rows}x{a.cols} by transpose of {b.rows}x{b.cols}"
        )
    return session.run(
        "tiled(n, m)[ ((i,j), +/v) | ((i,k),x) <- A, ((j,kk),y) <- B,"
        " kk == k, let v = x*y, group by (i,j) ]",
        A=a, B=b, n=a.rows, m=b.rows,
    )


def multiply_tn(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """``A.T @ B`` without materializing the transpose; group-by-join."""
    if a.rows != b.rows:
        raise ValueError(
            f"cannot multiply transpose of {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    return session.run(
        "tiled(n, m)[ ((j,k), +/v) | ((i,j),x) <- A, ((ii,k),y) <- B,"
        " ii == i, let v = x*y, group by (j,k) ]",
        A=a, B=b, n=a.cols, m=b.cols,
    )


def row_sums(session: SacSession, a: Matrix) -> TiledVector:
    """``V_i = Σ_j M_ij`` — Figure 1; tiled reduce (5.3)."""
    return session.run(
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        A=a, n=a.rows,
    )


def col_sums(session: SacSession, a: Matrix) -> TiledVector:
    """Column sums; tiled reduce (5.3)."""
    return session.run(
        "tiled_vector(m)[ (j, +/v) | ((i,j),v) <- A, group by j ]",
        A=a, m=a.cols,
    )


def row_max(session: SacSession, a: Matrix) -> TiledVector:
    """Row-wise maxima; tiled reduce with the ``max`` monoid."""
    return session.run(
        "tiled_vector(n)[ (i, max/m) | ((i,j),m) <- A, group by i ]",
        A=a, n=a.rows,
    )


def total_sum(session: SacSession, a: Matrix) -> float:
    """Sum of all cells; distributed total aggregation."""
    return session.run("+/[ v | ((i,j),v) <- A ]", A=a)


def frobenius_norm_sq(session: SacSession, a: Matrix) -> float:
    """Squared Frobenius norm ``Σ v²``; distributed total aggregation."""
    return session.run("+/[ v * v | ((i,j),v) <- A ]", A=a)


def diagonal(session: SacSession, a: Matrix) -> TiledVector:
    """Main diagonal — the paper's 5.1 example ``i == j``."""
    return session.run(
        "tiled_vector(n)[ (i, v) | ((i,j),v) <- A, i == j ]",
        A=a, n=min(a.rows, a.cols),
    )


def trace(session: SacSession, a: Matrix) -> float:
    """Sum of the diagonal; distributed total aggregation."""
    return session.run("+/[ v | ((i,j),v) <- A, i == j ]", A=a)


def rotate_rows(session: SacSession, a: Matrix) -> TiledMatrix:
    """Cyclic row rotation — the paper's 5.2 example; tiled shuffle."""
    return session.run(
        "tiled(n, m)[ (((i+1) % n, j), v) | ((i,j),v) <- A ]",
        A=a, n=a.rows, m=a.cols,
    )


def slice_rows(
    session: SacSession, a: Matrix, start: int, stop: int
) -> TiledMatrix:
    """Rows ``start <= i < stop`` re-indexed from zero; tiled shuffle."""
    if not 0 <= start < stop <= a.rows:
        raise ValueError(f"bad row slice [{start}, {stop}) for {a.rows} rows")
    return session.run(
        "tiled(n, m)[ ((i - lo, j), v) | ((i,j),v) <- A, i >= lo, i < hi ]",
        A=a, n=stop - start, m=a.cols, lo=start, hi=stop,
    )


def _retile_offset(
    session: SacSession,
    matrix: Matrix,
    rows: int,
    cols: int,
    row_offset: int,
    col_offset: int,
) -> TiledMatrix:
    """Re-tile ``matrix`` into the geometry of a ``rows × cols`` result,
    shifted by an offset.  Always uses the tiled-shuffle plan (the offset
    keeps the key a computed expression), so tiles at the seams are
    zero-padded to the *result's* tile shapes."""
    return session.run(
        "tiled(n, m)[ ((i + ro, j + co), v) | ((i,j),v) <- X ]",
        X=matrix, n=rows, m=cols, ro=row_offset, co=col_offset,
    )


def _merge_tiles(a: Matrix, b: Matrix) -> TiledMatrix:
    """Union two same-geometry tilings, adding tiles that share a seam."""
    merged = a.tiles.union(b.tiles).reduce_by_key(lambda x, y: x + y)
    return TiledMatrix(a.rows, a.cols, a.tile_size, merged)


def vstack(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """Vertical concatenation ``[A; B]`` (the paper's array concatenation).

    A comprehension is a join, not a union, so concatenation runs as two
    compiled re-tiling queries into the result geometry whose tile RDDs
    are merged (tiles straddling the seam add element-wise, each side
    zero-filled outside its region).
    """
    if a.cols != b.cols:
        raise ValueError(f"column mismatch: {a.cols} vs {b.cols}")
    total = a.rows + b.rows
    top = _retile_offset(session, a, total, a.cols, 0, 0)
    bottom = _retile_offset(session, b, total, a.cols, a.rows, 0)
    return _merge_tiles(top, bottom)


def hstack(session: SacSession, a: Matrix, b: Matrix) -> TiledMatrix:
    """Horizontal concatenation ``[A, B]``."""
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    total = a.cols + b.cols
    left = _retile_offset(session, a, a.rows, total, 0, 0)
    right = _retile_offset(session, b, a.rows, total, 0, a.cols)
    return _merge_tiles(left, right)


def outer(session: SacSession, u: TiledVector, v: TiledVector) -> TiledMatrix:
    """Outer product of two vectors; preserve-tiling with replication."""
    return session.run(
        "tiled(n, m)[ ((i,j), x * y) | (i,x) <- U, (j,y) <- V ]",
        U=u, V=v, n=u.length, m=v.length,
    )


def inner(session: SacSession, u: TiledVector, v: TiledVector) -> float:
    """Inner product of two vectors; distributed total aggregation."""
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} vs {v.length}")
    return session.run(
        "+/[ x * y | (i,x) <- U, (j,y) <- V, j == i ]", U=u, V=v
    )


def matvec(session: SacSession, a: Matrix, x: TiledVector) -> TiledVector:
    """Matrix-vector product; tiled reduce (5.3)."""
    if a.cols != x.length:
        raise ValueError(f"dimension mismatch: {a.cols} vs {x.length}")
    return session.run(
        "tiled_vector(n)[ (i, +/p) | ((i,j),m) <- A, (jj,v) <- X, jj == j,"
        " let p = m*v, group by i ]",
        A=a, X=x, n=a.rows,
    )


def smooth(session: SacSession, a: Matrix) -> TiledMatrix:
    """3×3 neighbourhood average — the paper's Section 3 example.

    The stencil's group key is range-generated, so this runs on the
    fallback paths (correct, not block-optimized), exactly the kind of
    ad-hoc query the library approach cannot express at all.
    """
    return session.run(
        "tiled(n, m)[ ((ii,jj), (+/v) / count/v) | ((i,j),v) <- A,"
        " ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),"
        " ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
        A=a, n=a.rows, m=a.cols,
    )


def _check_same_shape(a: Matrix, b: Matrix) -> None:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(
            f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
