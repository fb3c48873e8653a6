"""A tour of the translation rules: what each query compiles to.

Prints the full compilation report — normalized comprehension, selected
rule, and the generated program, one line per physical operator as it
runs — for one query per rule in the paper's Section 5, plus the
coordinate rule and a local (in-process) plan.

Run with::

    python examples/compilation_tour.py
"""

import numpy as np

from repro import PlannerOptions, SacSession
from repro.storage import DenseMatrix
from repro.workloads import dense_uniform

N, M, TILE = 240, 200, 60


def show(title: str, session: SacSession, query: str, **env) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(session.explain(query, **env))
    print()


def main() -> None:
    session = SacSession(tile_size=TILE)
    A = session.tiled(dense_uniform(N, M, seed=1))
    B = session.tiled(dense_uniform(N, M, seed=2))
    C = session.tiled(dense_uniform(M, N, seed=3))

    show(
        "Matrix addition  →  preserve-tiling (Section 5.1)",
        session,
        "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
        " ii == i, jj == j ]",
        A=A, B=B, n=N, m=M,
    )

    show(
        "Row rotation  →  tiled shuffle with I_f replication (Section 5.2)",
        session,
        "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
        A=A, n=N, m=M,
    )

    show(
        "Row sums  →  tiled reduce / reduceByKey(⊗′) (Section 5.3)",
        session,
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        A=A, n=N,
    )

    show(
        "Matrix multiplication  →  group-by-join / SUMMA (Section 5.4)",
        session,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        A=A, C=C, n=N, m=N,
    )

    no_gbj = SacSession(
        tile_size=TILE, options=PlannerOptions(strategy="tiled-reduce")
    )
    A2 = no_gbj.tiled(dense_uniform(N, M, seed=1))
    C2 = no_gbj.tiled(dense_uniform(M, N, seed=3))
    show(
        "Same multiplication with GBJ disabled  →  join + reduceByKey (5.3)",
        no_gbj,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        A=A2, C=C2, n=N, m=N,
    )

    coo = SacSession(
        tile_size=TILE, options=PlannerOptions(strategy="coordinate")
    )
    A3 = coo.tiled(dense_uniform(24, 20, seed=1))
    show(
        "Coordinate-format execution (Section 4, Rules 13/14) — the "
        "DIABLO-style ablation",
        coo,
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        A=A3, n=24,
    )

    show(
        "Driver-side operands  →  local-batch, column batches in process "
        "(Sections 2-3)",
        session,
        "matrix(n,m)[ ((i,j),+/v) | ((i,k),a) <- X, ((kk,j),b) <- Y,"
        " kk == k, let v = a*b, group by (i,j) ]",
        X=DenseMatrix.from_numpy(dense_uniform(6, 5, seed=1)),
        Y=DenseMatrix.from_numpy(dense_uniform(5, 4, seed=2)), n=6, m=4,
    )


if __name__ == "__main__":
    main()
