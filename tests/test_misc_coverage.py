"""Coverage for assorted corners: context, explain output, cost model."""

import re

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.comprehension import Interpreter, parse
from repro.comprehension.interpreter import index_value
from repro.engine import (
    BENCH_CLUSTER, ClusterSpec, EngineContext, PAPER_CLUSTER, TINY_CLUSTER,
)
from repro.storage import CooMatrix, DenseMatrix, DenseVector

RNG = np.random.default_rng(9)


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=10)


# ----------------------------------------------------------------------
# Engine context conveniences
# ----------------------------------------------------------------------


def test_context_range():
    ctx = EngineContext(cluster=TINY_CLUSTER)
    assert ctx.range(2, 7, 2).collect() == [2, 3, 4, 5, 6]


def test_empty_rdd():
    ctx = EngineContext(cluster=TINY_CLUSTER)
    empty = ctx.empty_rdd()
    assert empty.collect() == []
    assert empty.count() == 0


def test_broadcast_used_inside_shuffled_stage():
    ctx = EngineContext(cluster=TINY_CLUSTER)
    lookup = ctx.broadcast({0: "even", 1: "odd"})
    result = dict(
        ctx.parallelize(range(10), 4)
        .map(lambda x: (lookup.value[x % 2], 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )
    assert result == {"even": 5, "odd": 5}


# ----------------------------------------------------------------------
# Cost model properties
# ----------------------------------------------------------------------


def test_simulated_time_scales_with_compute_scale():
    ctx = EngineContext(cluster=TINY_CLUSTER)
    rdd = ctx.parallelize(range(20000), 4)
    rdd.map(lambda x: x * x).reduce(lambda a, b: a + b)
    base = ctx.metrics.total.simulated_time(ClusterSpec(compute_scale=1.0))
    scaled = ctx.metrics.total.simulated_time(ClusterSpec(compute_scale=10.0))
    assert scaled > base


def test_skewed_stage_dominated_by_longest_task():
    """The makespan term: one giant task bounds the stage regardless of
    how many cores the simulated cluster has."""
    ctx = EngineContext(cluster=PAPER_CLUSTER)
    # All the work lands in one partition.
    data = [(0, i) for i in range(20000)]
    ctx.parallelize(data, 8).group_by_key().map_values(
        lambda vs: sum(v * v for v in vs)
    ).collect()
    total = ctx.metrics.total
    longest = max(s.longest_task_seconds for s in total.stage_costs)
    assert total.simulated_time(PAPER_CLUSTER) >= longest


def test_bench_cluster_documented_constants():
    assert BENCH_CLUSTER.compute_scale > 1.0
    assert BENCH_CLUSTER.network_bandwidth > PAPER_CLUSTER.network_bandwidth


# ----------------------------------------------------------------------
# Interpreter corners
# ----------------------------------------------------------------------


def test_interpreter_if_branches_lazily():
    def boom():
        raise RuntimeError("must not evaluate")

    interp = Interpreter({"x": 1, "boom": boom})
    assert interp.evaluate(parse("if (x > 0) x else boom()")) == 1


def test_interpreter_string_literals():
    assert Interpreter({}).evaluate(parse('"hello"')) == "hello"


def test_interpreter_reduce_over_ndarray():
    interp = Interpreter({"V": [1.0, 2.0, 3.0]})
    assert interp.evaluate(parse("+/V")) == 6.0


def test_index_value_paths():
    assert index_value([10, 20, 30], [1]) == 20
    assert index_value({"a": 1}, ["a"]) == 1
    assert index_value({(0, 1): 5}, [0, 1]) == 5
    assert index_value(np.arange(6).reshape(2, 3), [1, 2]) == 5
    matrix = DenseMatrix.from_numpy(np.eye(2))
    assert index_value(matrix, [0, 0]) == 1.0


def test_direct_indexing_query(session):
    m = DenseMatrix.from_numpy(np.arange(6.0).reshape(2, 3))
    assert session.run("M[1, 2]", M=m) == 5.0


def test_inclusive_vs_exclusive_ranges(session):
    assert session.run("[ i | i <- 0 until 3 ]") == [0, 1, 2]
    assert session.run("[ i | i <- 0 to 3 ]") == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Explain output per rule
# ----------------------------------------------------------------------


def test_explain_contains_program_per_rule(session):
    a = RNG.uniform(0, 9, size=(30, 30))
    A = session.tiled(a)
    B = session.tiled(a)
    coo = CooMatrix.from_numpy(np.where(a > 7, a, 0.0))
    cases = {
        "preserve-tiling": (
            "tiled(n,n)[ ((i,j), x+y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
            " ii == i, jj == j ]",
            dict(A=A, B=B, n=30),
        ),
        "tiled-shuffle": (
            "tiled(n,n)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]", dict(A=A, n=30),
        ),
        "tiled-reduce": (
            "tiled_vector(n)[ (i, +/v) | ((i,j),v) <- A, group by i ]",
            dict(A=A, n=30),
        ),
        "group-by-join": (
            "tiled(n,n)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
            " kk == k, let v = x*y, group by (i,j) ]",
            dict(A=A, B=B, n=30),
        ),
        "coordinate": (
            "tiled_vector(n)[ (i,+/v) | ((i,j),x) <- C, (jj,y) <- X, jj == j,"
            " let v = x*y, group by i ]",
            dict(C=coo, X=session.tiled_vector(a[0]), n=30),
        ),
    }
    for rule, (query, env) in cases.items():
        compiled = session.compile(query, **env)
        report = compiled.explain()
        assert f"rule: {rule}" in report
        program = report.split("\ngenerated program (", 1)[1].splitlines()[1:]
        assert program == ["  " + line for line in compiled.plan.program()]
        # Every physical operator has its line.
        for node in compiled.plan.physical.walk():
            head = f"{node.op}[{node.label}]" if node.label else node.op
            assert any(line.startswith(f"  {head}: ") for line in program), (
                rule, head,
            )

    # The coordinate program shuffles at the width its records line names.
    width = re.fullmatch(
        r"column batches \(shuffle width (\d+)\)", compiled.plan.details["records"]
    ).group(1)
    assert report.endswith(
        "generated program (Section 4, Rules (13)/(14)):\n"
        "  Scan[C]: CooMatrix\n"
        "  Scan[X]: TiledVector\n"
        "  Coordinate: column batches of C\n"
        f"    join X: scatter on [j] = [jj] → cogroup (width {width}) → merge_join\n"
        f"    group_reduce + by [i] → scatter → group_by_key (width {width}) → reduce\n"
        f"    scatter by tile → group_by_key (width {width}) → tiled_vector(30)"
    )


def test_gbj_shuffles_no_partial_products(session):
    """Mechanism check: GBJ ships only replicated inputs; the 5.3 plan
    also ships one partial product tile per joined pair."""
    a = RNG.uniform(0, 9, size=(40, 40))
    query = (
        "tiled(n,n)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
        " kk == k, let v = x*y, group by (i,j) ]"
    )

    gbj = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    gbj.run(query, A=gbj.tiled(a), B=gbj.tiled(a), n=40).tiles.count()
    gbj_shuffles = gbj.engine.metrics.total.shuffles

    j53 = SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(strategy="tiled-reduce"),
    )
    j53.run(query, A=j53.tiled(a), B=j53.tiled(a), n=40).tiles.count()
    j53_shuffles = j53.engine.metrics.total.shuffles

    # 5.3 runs the extra reduceByKey shuffle over partial products.
    assert j53_shuffles > gbj_shuffles


# ----------------------------------------------------------------------
# Dense storage dtype handling
# ----------------------------------------------------------------------


def test_dense_vector_integer_items():
    v = DenseVector.from_items(3, [(0, 1), (2, 5)])
    assert v.data.dtype == np.float64
    np.testing.assert_allclose(v.data, [1.0, 0.0, 5.0])
