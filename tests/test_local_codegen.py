"""Local plans (paper Sections 2-3): the coordinate rule's column-batch
program run in process, differential-tested against the interpreter."""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SacSession
from repro.comprehension import Interpreter, desugar, normalize, parse
from repro.engine import TINY_CLUSTER
from repro.planner import RULE_LOCAL, RULE_LOCAL_BATCH, KernelUnsupported
from repro.planner.lower import _local_plan, lower_local
from repro.storage import (
    CooMatrix, CooVector, CscMatrix, CsrMatrix, DenseMatrix, DenseVector,
)
from repro.storage.registry import BuildContext

RNG = np.random.default_rng(321)

MATMUL = (
    "matrix(n,m)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
    " kk == k, let v = x*y, group by (i,j) ]"
)


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=8)


def prepared(source, env):
    return normalize(
        desugar(parse(source), is_array=lambda n: n in env)
    )


def run_both(source, env):
    """The local plan, its result, and the interpreter's result."""
    expr = prepared(source, env)
    plan = lower_local(expr, env, BuildContext())
    return plan, plan.execute(), Interpreter(env).evaluate(expr)


# ----------------------------------------------------------------------
# Rule selection and the printed program
# ----------------------------------------------------------------------


def test_codegen_selected_for_dense_query(session):
    compiled = session.compile(
        "vector(n)[ (i, +/v) | ((i,j),v) <- A, group by i ]",
        A=DenseMatrix.from_numpy(np.ones((3, 4))), n=3,
    )
    assert compiled.plan.rule == RULE_LOCAL_BATCH
    assert "group_reduce + by [i] → reduce" in compiled.plan.program()
    assert "generated program (Sections 2-3):" in compiled.explain()


def test_matmul_prints_coordinate_program(session):
    a = DenseMatrix.from_numpy(RNG.uniform(0, 9, size=(5, 6)))
    b = DenseMatrix.from_numpy(RNG.uniform(0, 9, size=(6, 4)))
    compiled = session.compile(MATMUL, A=a, B=b, n=5, m=4)
    assert compiled.plan.rule == RULE_LOCAL_BATCH
    assert compiled.plan.program() == [
        "column batches of A",
        "join B: merge_join on [k] = [kk]",
        "group_reduce + by [i, j] → reduce",
    ]
    np.testing.assert_allclose(
        compiled.execute().data, a.data @ b.data, rtol=1e-12
    )


def test_sortedness_joins_on_successor(session):
    v = DenseVector(np.array([1.0, 2.0, 3.0]))
    compiled = session.compile(
        "&&/[ x <= y | (i,x) <- V, (j,y) <- V, j == i + 1 ]", V=v
    )
    assert compiled.plan.rule == RULE_LOCAL_BATCH
    # The successor is a join key, not a scan of every pair.
    assert "join V: merge_join on [i + 1] = [j]" in compiled.plan.program()
    assert compiled.execute() is True


def test_pattern_shadows_env_binding(session):
    # `v` is both an env binding and a pattern variable; inside the
    # comprehension the pattern wins (same scoping as the interpreter).
    compiled = session.compile(
        "[ v + w | (i,v) <- V ]", V=np.array([1.0]), w=2.0, v=100.0,
    )
    assert compiled.plan.rule == RULE_LOCAL_BATCH
    assert compiled.execute() == [3.0]


def test_interpreter_fallback_on_use_before_shadow(session):
    # `t` is read from the environment by a guard and rebound by a later
    # pattern: one flat scope of columns cannot express that, so the
    # planner must fall back to the interpreter.
    compiled = session.compile(
        "[ x + t | (i,x) <- W, t > 0.0, (j,t) <- V, j == i ]",
        W=np.array([10.0]), V=np.array([1.0]), t=5.0,
    )
    assert compiled.plan.rule == RULE_LOCAL
    assert "bound" in compiled.plan.details["fallback"]
    assert compiled.execute() == [11.0]


def test_fallback_reason_recorded(session):
    compiled = session.compile(
        "[ (i, v) | (i,v) <- L, group by i ]",  # collect-the-group
        L=np.array([1, 2]),
    )
    assert compiled.plan.rule == RULE_LOCAL
    assert "aggregation" in compiled.plan.details["fallback"]
    assert compiled.execute() == session.interpret(
        "[ (i, v) | (i,v) <- L, group by i ]", L=np.array([1, 2])
    )


def test_unsupported_raises_for_weird_sources():
    env = {"G": {"a": 1}}
    with pytest.raises(KernelUnsupported, match="dict source"):
        _local_plan(prepared("[ x | (i,x) <- G ]", env), env, BuildContext())


def test_join_out_of_qualifier_order_uses_interpreter():
    # C joins A, B joins C: folding C before B would list rows in
    # another order than the interpreter's nested loops.
    env = {
        "A": np.array([1, 2]), "B": np.array([3, 4, 5]),
        "C": np.array([6, 7, 8]),
    }
    plan, result, reference = run_both(
        "[ x + y + z | (i,x) <- A, (j,y) <- B, (k,z) <- C, k == i, j == k ]",
        env,
    )
    assert plan.rule == RULE_LOCAL
    assert "order" in plan.details["fallback"]
    assert result == reference


# ----------------------------------------------------------------------
# Differential: local plan == interpreter
# ----------------------------------------------------------------------


def test_dense_matmul_differential():
    a = DenseMatrix.from_numpy(RNG.uniform(-5, 5, size=(4, 6)))
    b = DenseMatrix.from_numpy(RNG.uniform(-5, 5, size=(6, 3)))
    plan, result, reference = run_both(
        MATMUL, {"A": a, "B": b, "n": 4, "m": 3}
    )
    assert plan.rule == RULE_LOCAL_BATCH
    # Every (i, j) sums its products in the interpreter's k order.
    np.testing.assert_array_equal(result.data, reference.data)


def test_sparse_sources_loop_only_stored_entries():
    coo = CooMatrix.from_items(50, 50, [((0, 0), 2.0), ((49, 49), 3.0)])
    plan, result, reference = run_both("+/[ v | ((i,j),v) <- S ]", {"S": coo})
    assert plan.rule == RULE_LOCAL_BATCH
    assert result == reference == 5.0


def test_csr_source():
    a = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0]])
    plan, result, reference = run_both(
        "vector(n)[ (i, +/v) | ((i,j),v) <- S, group by i ]",
        {"S": CsrMatrix.from_numpy(a), "n": 2},
    )
    assert plan.rule == RULE_LOCAL_BATCH
    np.testing.assert_array_equal(result.data, reference.data)
    np.testing.assert_allclose(result.data, a.sum(axis=1))


def test_csc_source():
    a = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 4.0]])
    plan, result, reference = run_both(
        "vector(m)[ (j, +/v) | ((i,j),v) <- S, group by j ]",
        {"S": CscMatrix.from_numpy(a), "m": 2},
    )
    assert plan.rule == RULE_LOCAL
    np.testing.assert_allclose(result.data, reference.data)
    np.testing.assert_allclose(result.data, a.sum(axis=0))


def test_coo_vector_source():
    v = CooVector.from_items(10, [(2, 5.0), (7, 1.0)])
    plan, result, reference = run_both("[ (i, x * 2.0) | (i,x) <- V ]", {"V": v})
    assert plan.rule == RULE_LOCAL_BATCH
    assert result == reference == [(2, 10.0), (7, 2.0)]


def test_list_source_and_records():
    env = {"L": [((0, 1), 5.0), ((1, 0), 7.0)]}
    plan, result, reference = run_both("[ v | ((i,j),v) <- L, i < j ]", env)
    assert plan.rule == RULE_LOCAL
    assert result == reference == [5.0]


def test_min_max_group_by():
    a = DenseMatrix.from_numpy(RNG.uniform(-5, 5, size=(4, 5)))
    plan, result, reference = run_both(
        "vector(n)[ (i, max/v) | ((i,j),v) <- A, group by i ]",
        {"A": a, "n": 4},
    )
    assert plan.rule == RULE_LOCAL_BATCH
    np.testing.assert_array_equal(result.data, reference.data)
    np.testing.assert_array_equal(result.data, a.data.max(axis=1))


def test_count_and_avg():
    a = DenseMatrix.from_numpy(RNG.uniform(1, 5, size=(3, 4)))
    plan, result, reference = run_both(
        "[ (i, avg/v) | ((i,j),v) <- A, group by i ]", {"A": a, "n": 3}
    )
    assert plan.rule == RULE_LOCAL_BATCH
    assert result == reference  # each group folded left to right
    for (_i, value), target in zip(result, a.data.mean(axis=1)):
        assert np.isclose(value, target)


def test_groups_listed_in_first_row_order():
    env = {"X": np.array([5, 1, 7, 2, 9, 4, 3])}
    plan, result, reference = run_both(
        "[ (k, count/v) | (i,v) <- X, let k = v % 3, group by k ]", env
    )
    assert plan.rule == RULE_LOCAL_BATCH
    assert result == reference == [(2, 2), (1, 3), (0, 2)]


def test_cartesian_step_runs_in_process():
    env = {"X": np.array([5, 1, 7])}
    plan, result, reference = run_both(
        "[ x * y | (i,x) <- X, (j,y) <- X, i < j ]", env
    )
    assert plan.rule == RULE_LOCAL_BATCH
    assert "join X: merge_join (cartesian)" in plan.program()
    assert result == reference == [5, 35, 7]


def test_guards_and_if_expressions():
    a = DenseMatrix.from_numpy(RNG.uniform(-5, 5, size=(6, 6)))
    plan, result, reference = run_both(
        "matrix(n,m)[ ((i,j), if (v > 0.0) v else 0.0 - v) | ((i,j),v) <- A,"
        " i != j ]",
        {"A": a, "n": 6, "m": 6},
    )
    assert plan.rule == RULE_LOCAL_BATCH
    np.testing.assert_array_equal(result.data, reference.data)


SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    n=st.integers(1, 7), m=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_codegen_matches_interpreter(n, m, seed):
    rng = np.random.default_rng(seed)
    a = DenseMatrix.from_numpy(rng.uniform(-9, 9, size=(n, m)))
    queries = [
        ("vector(n)[ (i, +/v) | ((i,j),v) <- A, group by i ]",
         {"A": a, "n": n}),
        ("matrix(m,n)[ ((j,i), v) | ((i,j),v) <- A ]",
         {"A": a, "n": n, "m": m}),
        ("+/[ v * v | ((i,j),v) <- A ]", {"A": a}),
        ("matrix(n,m)[ ((i,j), 2.0*v) | ((i,j),v) <- A, v > 0.0 ]",
         {"A": a, "n": n, "m": m}),
    ]
    for source, env in queries:
        plan, result, reference = run_both(source, env)
        assert plan.rule == RULE_LOCAL_BATCH
        if isinstance(result, (DenseMatrix, DenseVector)):
            np.testing.assert_array_equal(result.data, reference.data)
        else:
            assert result == reference


# ----------------------------------------------------------------------
# Performance: the local plan beats the interpreter
# ----------------------------------------------------------------------


def test_codegen_outperforms_interpreter():
    n = 26
    a = DenseMatrix.from_numpy(RNG.uniform(0, 9, size=(n, n)))
    b = DenseMatrix.from_numpy(RNG.uniform(0, 9, size=(n, n)))
    env = {"A": a, "B": b, "n": n, "m": n}
    expr = prepared(MATMUL, env)

    start = time.perf_counter()
    result = lower_local(expr, env, BuildContext()).execute()
    local_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reference = Interpreter(env).evaluate(expr)
    interpreter_seconds = time.perf_counter() - start

    np.testing.assert_allclose(result.data, reference.data, rtol=1e-12)
    # The interpreter scans the full cross product (n^2 x n^2 rows); the
    # local plan joins on k with one searchsorted.  The margin is
    # enormous, so this is safe to assert even on noisy machines.
    assert local_seconds < interpreter_seconds
