"""Experiment E2 — Figure 4.B: matrix multiplication, three ways.

The paper's headline result.  Square random matrices are multiplied by:

* **MLlib BlockMatrix** — ``simulateMultiply`` replication + cogroup +
  per-pair products + reduceByKey (pure-JVM Breeze kernels);
* **SAC (join + group-by)** — the Section 5.3 translation: tile join on
  the shared index, one partial product tile per (i, k, j) triple pushed
  through ``reduceByKey(⊗′)``;
* **SAC GBJ** — the Section 5.4 group-by-join: SUMMA-style row/column
  band replication, contraction accumulated reducer-side.

Paper shape: SAC join+group-by up to ~3× slower than MLlib; SAC GBJ up
to ~6× faster than MLlib.
"""

import dataclasses
import math

import pytest

from conftest import plan_report
from repro import PlannerOptions, SacSession
from repro.core import ops
from repro.engine import BENCH_CLUSTER, PAPER_CLUSTER, EngineContext
from repro.mllib import BlockMatrix
from repro.planner import RULE_GROUP_BY_JOIN
from repro.workloads import dense_uniform, zipf_block_rows

TILE = 90
SIZES = [180, 360, 540, 720]
ROUNDS = 2
#: Best-of count for the ordering assertion: a burst of host noise can
#: outlast five runs of one arm.
ORDERING_REPEATS = 9
SKEW_N = 1080
SKEW_ALPHA = 2.5

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


def _arrays(n):
    return dense_uniform(n, n, seed=n), dense_uniform(n, n, seed=n + 1)


def _sac_setup(n, strategy, runner=None):
    a, b = _arrays(n)
    # Every arm plans against the cluster spec the harness simulates, so
    # the model's choices — the strategy of the cost-based arm, the SUMMA
    # grid of the GBJ arms — can be validated by measurement.
    session = SacSession(
        cluster=BENCH_CLUSTER, tile_size=TILE,
        options=PlannerOptions(strategy=strategy), runner=runner,
    )
    A = session.tiled(a).materialize()
    B = session.tiled(b).materialize()
    compiled = session.compile(MULTIPLY, A=A, B=B, n=n, m=n)
    if strategy is not None:
        assert compiled.plan.details["strategy"] == strategy
    return session, A, B, compiled


@pytest.mark.parametrize("n", SIZES)
def test_multiplication_sac_gbj(benchmark, measure, n):
    record, run_measured = measure
    session, A, B, compiled = _sac_setup(n, "gbj-replicate")

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    counters.update(plan_report(compiled, session))
    record("fig4b-multiplication", "SAC GBJ (5.4)", n, wall, sim, shuffled, counters)


@pytest.mark.parametrize("n", SIZES)
def test_multiplication_sac_join_groupby(benchmark, measure, n):
    record, run_measured = measure
    session, A, B, compiled = _sac_setup(n, "tiled-reduce")

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    counters.update(plan_report(compiled, session))
    record("fig4b-multiplication", "SAC join+group-by (5.3)", n, wall, sim, shuffled, counters)


@pytest.mark.parametrize("n", SIZES)
def test_multiplication_sac_costbased(benchmark, measure, n):
    """The cost-based default: the planner picks the strategy itself."""
    record, run_measured = measure
    session, A, B, compiled = _sac_setup(n, None)

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    counters.update(plan_report(compiled, session))
    record("fig4b-multiplication", "SAC cost-based", n, wall, sim, shuffled, counters)


def _mllib_setup(n, runner=None):
    a, b = _arrays(n)
    engine = EngineContext(runner=runner)
    A = BlockMatrix.from_numpy(engine, a, TILE).cache()
    B = BlockMatrix.from_numpy(engine, b, TILE).cache()
    A.blocks.count()
    B.blocks.count()
    return engine, lambda: A.multiply(B).blocks.count()


@pytest.mark.parametrize("n", SIZES)
def test_multiplication_mllib(benchmark, measure, n):
    record, run_measured = measure
    engine, run = _mllib_setup(n)
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(engine, run)
    record("fig4b-multiplication", "MLlib BlockMatrix", n, wall, sim, shuffled, counters)


def test_fig4b_ordering_holds(measure):
    """The figure itself, at its largest size in simulated seconds: SAC
    GBJ < MLlib < SAC join+group-by, and the planner left to itself
    lands in the GBJ family.  One task at a time: simulated seconds are
    built from per-task clocks, which threads sharing the GIL stretch."""
    _, run_measured = measure
    n = SIZES[-1]
    simulated = {}
    arms = [("gbj", "gbj-replicate"), ("join+group-by", "tiled-reduce")]
    for arm, strategy in arms:
        session, A, B, _ = _sac_setup(n, strategy, runner="serial")
        simulated[arm] = run_measured(
            session.engine,
            lambda: session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count(),
            repeats=ORDERING_REPEATS,
        )[1]
    engine, run = _mllib_setup(n, runner="serial")
    simulated["mllib"] = run_measured(engine, run, repeats=ORDERING_REPEATS)[1]
    assert simulated["gbj"] < simulated["mllib"] < simulated["join+group-by"], (
        simulated
    )
    _, _, _, chosen = _sac_setup(n, None)
    assert chosen.plan.rule == RULE_GROUP_BY_JOIN
    assert chosen.plan.details["strategy"].startswith("gbj-")


def _skewed_setup(adaptive):
    """Zipfian tile skew: block row 0 of B (and block column 0 of A) is
    fully dense, so join key k=0 carries most of the work — the Section
    5.3 hot-key pathology the adaptive skew splitter attacks.  The
    static arm is the same engine with a skew factor that never fires."""
    skewed = zipf_block_rows(SKEW_N, SKEW_N, TILE, alpha=SKEW_ALPHA, seed=7)
    a, b = skewed.T.copy(), skewed
    cluster = PAPER_CLUSTER
    if not adaptive:
        cluster = dataclasses.replace(cluster, adaptive_skew_factor=math.inf)
    session = SacSession(
        cluster=cluster, tile_size=TILE,
        options=PlannerOptions(strategy="tiled-reduce"), runner="serial",
    )
    # One partition per simulated core, as on the paper's cluster: the
    # operands' stored bytes alone would make a few partitions, whose map
    # tasks neither arm can split, and the skew under study is the join's.
    parts = session.engine.cluster.total_cores
    A = session.sparse_tiled(a, num_partitions=parts)
    B = session.sparse_tiled(b, num_partitions=parts)
    assert A.tiles.num_partitions > 1 and B.tiles.num_partitions > 1
    compiled = session.compile(MULTIPLY, A=A, B=B, n=SKEW_N, m=SKEW_N)
    return session, A, B, compiled


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
def test_multiplication_skewed(benchmark, measure, adaptive):
    """E10: skewed multiply with and without adaptive skew splitting."""
    record, run_measured = measure
    session, A, B, compiled = _skewed_setup(adaptive)

    def run():
        session.run(MULTIPLY, A=A, B=B, n=SKEW_N, m=SKEW_N).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    counters.update(plan_report(compiled, session))
    label = "SAC 5.3 adaptive" if adaptive else "SAC 5.3 static"
    record("fig4b-multiplication-skewed", label, SKEW_N, wall, sim, shuffled, counters)
    if adaptive:
        assert counters["adaptive_decisions"] > 0
        assert "skew-split" in counters["adaptive_kinds"]
    else:
        assert counters["adaptive_decisions"] == 0


def test_skewed_adaptive_improves_makespan(measure):
    """The acceptance bar: splitting the hot partition cuts the simulated
    critical path >=2x while moving exactly the same shuffle bytes."""
    _, run_measured = measure
    makespans, volumes, outputs = {}, {}, {}
    for adaptive in (False, True):
        session, A, B, _ = _skewed_setup(adaptive)
        with session:
            out = {}

            def run():
                out["array"] = session.run(
                    MULTIPLY, A=A, B=B, n=SKEW_N, m=SKEW_N
                ).to_numpy()

            _, _, _, counters = run_measured(session.engine, run, repeats=1)
            makespans[adaptive] = counters["makespan_seconds"]
            volumes[adaptive] = counters["shuffle_bytes"]
            outputs[adaptive] = out["array"]
    import numpy as np

    np.testing.assert_allclose(outputs[True], outputs[False], rtol=1e-12)
    assert volumes[True] == volumes[False]
    assert makespans[False] / makespans[True] >= 2.0, (
        f"adaptive makespan {makespans[True]:.3f}s vs "
        f"static {makespans[False]:.3f}s: improvement under 2x"
    )


def test_multiplication_results_agree():
    """Sanity: the three plans compute the same product (not timed)."""
    import numpy as np

    n = SIZES[0]
    a, b = _arrays(n)
    gbj_session, A1, B1, _ = _sac_setup(n, "gbj-replicate")
    jg_session, A2, B2, _ = _sac_setup(n, "tiled-reduce")
    engine = EngineContext()
    expected = a @ b
    np.testing.assert_allclose(
        gbj_session.run(MULTIPLY, A=A1, B=B1, n=n, m=n).to_numpy(), expected
    )
    np.testing.assert_allclose(
        jg_session.run(MULTIPLY, A=A2, B=B2, n=n, m=n).to_numpy(), expected
    )
    np.testing.assert_allclose(
        BlockMatrix.from_numpy(engine, a, TILE)
        .multiply(BlockMatrix.from_numpy(engine, b, TILE))
        .to_numpy(),
        expected,
    )
