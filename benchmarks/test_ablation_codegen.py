"""Ablation E8 — local plans vs interpretation vs hand-written NumPy (§§2–3).

The paper's first translation target is local: comprehensions become
programs "as efficient as a program hand-coded in an imperative
language".  This ablation runs the matrix-multiplication comprehension
on in-memory dense matrices through (a) the local plan — the coordinate
rule's column-batch program in process, which joins on ``kk == k`` with
one ``searchsorted`` and folds each ``(i, j)`` group over sorted rows —
(b) the reference interpreter, which scans the cross product, and (c)
the hand-written NumPy ``a @ b``, at a few sizes.
"""

import numpy as np
import pytest

from repro import SacSession
from repro.engine import TINY_CLUSTER
from repro.planner import RULE_LOCAL_BATCH
from repro.storage import DenseMatrix
from repro.workloads import dense_uniform

SIZES = [10, 16, 22]
ROUNDS = 2

MULTIPLY = (
    "matrix(n,m)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
    " kk == k, let v = x*y, group by (i,j) ]"
)


def _inputs(n):
    return (
        DenseMatrix.from_numpy(dense_uniform(n, n, seed=n)),
        DenseMatrix.from_numpy(dense_uniform(n, n, seed=n + 1)),
    )


@pytest.mark.parametrize("n", SIZES)
def test_local_batch_plan(benchmark, measure, n):
    record, run_measured = measure
    a, b = _inputs(n)
    session = SacSession(cluster=TINY_CLUSTER)
    compiled = session.compile(MULTIPLY, A=a, B=b, n=n, m=n)
    assert compiled.plan.rule == RULE_LOCAL_BATCH

    def run():
        compiled.execute()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-codegen", "local batch plan", n, wall, wall, shuffled, counters)


@pytest.mark.parametrize("n", SIZES)
def test_local_interpreter(benchmark, measure, n):
    record, run_measured = measure
    a, b = _inputs(n)
    session = SacSession(cluster=TINY_CLUSTER)

    def run():
        session.interpret(MULTIPLY, A=a, B=b, n=n, m=n)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-codegen", "reference interpreter", n, wall, wall, shuffled, counters)


@pytest.mark.parametrize("n", SIZES)
def test_numpy_matmul(benchmark, measure, n):
    record, run_measured = measure
    a, b = _inputs(n)
    session = SacSession(cluster=TINY_CLUSTER)

    def run():
        DenseMatrix.from_numpy(a.data @ b.data)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-codegen", "numpy a @ b", n, wall, wall, shuffled, counters)


def test_batch_plan_interpreter_and_numpy_agree():
    n = SIZES[0]
    a, b = _inputs(n)
    session = SacSession(cluster=TINY_CLUSTER)
    local = session.run(MULTIPLY, A=a, B=b, n=n, m=n)
    interpreted = session.interpret(MULTIPLY, A=a, B=b, n=n, m=n)
    # Each (i, j) folds its products in the interpreter's k order.
    np.testing.assert_array_equal(local.data, interpreted.data)
    np.testing.assert_allclose(local.data, a.data @ b.data, rtol=1e-12)
