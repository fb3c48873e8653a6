"""Parallel stage execution: runner resolution, metric parity, safety.

The engine's headline invariant for the threaded runner is that it is a
pure wall-clock optimization: every measured counter — stages, tasks,
shuffles, shuffle records, shuffle bytes — and every computed result is
identical to the serial runner's.  These tests pin that down on the
paper's two benchmark shapes (tile addition and both multiplication
plans) plus the MLlib workalike, and cover the execution machinery
itself: the persistent pool, nested-graph inlining, accumulator
atomicity, and context shutdown.
"""

import os
import threading
from unittest import mock

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.engine import (
    EngineContext,
    SerialTaskRunner,
    TINY_CLUSTER,
    ThreadedTaskRunner,
    resolve_runner,
)
from repro.mllib import BlockMatrix
from repro.workloads import dense_uniform

from .test_pipelined_scheduler import ADD, MULTIPLY, _counters, _run_flat


# ----------------------------------------------------------------------
# Runner resolution
# ----------------------------------------------------------------------


def test_resolve_runner_strings():
    assert isinstance(resolve_runner("serial", TINY_CLUSTER), SerialTaskRunner)
    threaded = resolve_runner("threads", TINY_CLUSTER)
    assert isinstance(threaded, ThreadedTaskRunner)
    assert threaded.max_workers == TINY_CLUSTER.local_parallelism()
    assert isinstance(resolve_runner("threaded", TINY_CLUSTER), ThreadedTaskRunner)
    threaded.close()


def test_resolve_runner_passthrough_instance():
    runner = ThreadedTaskRunner(max_workers=2)
    assert resolve_runner(runner, TINY_CLUSTER) is runner
    runner.close()


def test_resolve_runner_env_default():
    with mock.patch.dict(os.environ, {"REPRO_RUNNER": "threads"}):
        runner = resolve_runner(None, TINY_CLUSTER)
    assert isinstance(runner, ThreadedTaskRunner)
    runner.close()
    with mock.patch.dict(os.environ, {}, clear=True):
        assert isinstance(resolve_runner(None, TINY_CLUSTER), SerialTaskRunner)


def test_resolve_runner_rejects_unknown():
    with pytest.raises(ValueError, match="unknown runner"):
        resolve_runner("fibers", TINY_CLUSTER)


def test_threaded_runner_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        ThreadedTaskRunner(max_workers=0)


# ----------------------------------------------------------------------
# Runner machinery
# ----------------------------------------------------------------------


def test_threaded_pool_is_persistent_across_stages():
    runner = ThreadedTaskRunner(max_workers=2)
    try:
        _run_flat(runner, [lambda: 1, lambda: 2])
        first_pool = runner._pool
        assert first_pool is not None
        _run_flat(runner, [lambda: 3, lambda: 4])
        assert runner._pool is first_pool
    finally:
        runner.close()
    assert runner._pool is None


def test_threaded_runner_close_is_idempotent():
    runner = ThreadedTaskRunner(max_workers=2)
    _run_flat(runner, [lambda: 1, lambda: 2])
    runner.close()
    runner.close()
    # The runner stays usable: a new pool is spawned lazily.
    assert _run_flat(runner, [lambda: 5, lambda: 6]) == [5, 6]
    runner.close()


def test_threaded_runner_preserves_task_order():
    runner = ThreadedTaskRunner(max_workers=4)
    try:
        tasks = [lambda i=i: i * i for i in range(50)]
        assert _run_flat(runner, tasks) == [i * i for i in range(50)]
    finally:
        runner.close()


def test_nested_stage_from_worker_runs_inline_without_deadlock():
    """A graph handed over from inside a pool worker must not re-enter
    the pool: with more nested graphs than workers that would deadlock."""
    runner = ThreadedTaskRunner(max_workers=2)

    def outer(i):
        inner = _run_flat(runner, [lambda j=j: (i, j) for j in range(3)])
        assert threading.current_thread().name.startswith("repro-executor")
        return inner

    try:
        results = _run_flat(runner, [lambda i=i: outer(i) for i in range(8)])
        assert results == [[(i, j) for j in range(3)] for i in range(8)]
    finally:
        runner.close()


def test_single_task_stage_runs_on_calling_thread():
    """One worker means no pool: the graph is walked by the caller."""
    runner = ThreadedTaskRunner(max_workers=1)
    try:
        names = _run_flat(runner, [lambda: threading.current_thread().name] * 3)
        assert names == [threading.current_thread().name] * 3
        assert runner._pool is None
    finally:
        runner.close()


def test_engine_context_manager_closes_runner():
    runner = ThreadedTaskRunner(max_workers=2)
    with EngineContext(cluster=TINY_CLUSTER, runner=runner) as ctx:
        assert ctx.runner is runner
        assert ctx.parallelize(range(100), 8).sum() == sum(range(100))
        assert runner._pool is not None
    assert runner._pool is None


def test_session_context_manager_closes_runner():
    with SacSession(tile_size=4, runner=ThreadedTaskRunner(max_workers=2)) as session:
        runner = session.engine.runner
        a = session.tiled(np.arange(64.0).reshape(8, 8))
        assert a.materialize().tiles.count() == 4
    assert runner._pool is None


def test_accumulator_add_is_atomic_under_threaded_runner():
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=ThreadedTaskRunner(max_workers=4))
    acc = ctx.accumulator(0)
    rdd = ctx.parallelize(range(20_000), 16)
    rdd.foreach(lambda _x: acc.add(1))
    assert acc.value == 20_000
    ctx.close()


# ----------------------------------------------------------------------
# Metric and result parity: serial vs threaded
# ----------------------------------------------------------------------


def _compare_arms(query, a, b, arms):
    """``query`` over tiled ``a``/``b``, one session per arm (``SacSession``
    keyword arguments): the outputs must be bitwise equal and the query's
    counters identical.  Returns them."""
    n = a.shape[0]
    outputs, counters = [], []
    for kwargs in arms:
        with SacSession(tile_size=25, **kwargs) as session:
            A = session.tiled(a).materialize()
            B = session.tiled(b).materialize()
            snapshot = session.metrics_snapshot()
            result = session.run(query, A=A, B=B, n=n, m=n).to_numpy()
            delta = session.metrics_delta(snapshot)
        outputs.append(result)
        counters.append(
            (delta.stages, delta.tasks, delta.shuffles,
             delta.shuffle_records, delta.shuffle_bytes)
        )
    np.testing.assert_array_equal(outputs[0], outputs[1])
    assert counters[0] == counters[1]
    return outputs[0], counters[0]


def _both_runners(strategy):
    options = PlannerOptions(strategy=strategy)
    return [
        dict(runner=SerialTaskRunner(), options=options),
        dict(runner=ThreadedTaskRunner(max_workers=4), options=options),
    ]


@pytest.mark.parametrize("replicate", [False, True])
def test_multiplication_parity_serial_vs_threaded(replicate):
    """fig4b shape: both SAC plans give identical bytes and results."""
    a = dense_uniform(75, 75, seed=1)
    b = dense_uniform(75, 75, seed=2)
    output, counters = _compare_arms(
        MULTIPLY, a, b,
        _both_runners("gbj-replicate" if replicate else "tiled-reduce"),
    )
    np.testing.assert_allclose(output, a @ b)
    assert counters[4] > 0  # the plans really shuffled


def test_addition_parity_serial_vs_threaded():
    """fig4a shape: element-wise addition of co-tiled matrices."""
    a = dense_uniform(60, 60, seed=3)
    b = dense_uniform(60, 60, seed=4)
    output, _ = _compare_arms(ADD, a, b, _both_runners("gbj-replicate"))
    np.testing.assert_allclose(output, a + b)


def test_mllib_multiply_parity_serial_vs_threaded():
    n = 75
    a = dense_uniform(n, n, seed=5)
    b = dense_uniform(n, n, seed=6)
    outputs, counters = [], []
    for runner in [SerialTaskRunner(), ThreadedTaskRunner(max_workers=4)]:
        with EngineContext(runner=runner) as engine:
            A = BlockMatrix.from_numpy(engine, a, 25)
            B = BlockMatrix.from_numpy(engine, b, 25)
            result = A.multiply(B).to_numpy()
            outputs.append(result)
            counters.append(_counters(engine.metrics))
    np.testing.assert_array_equal(outputs[0], outputs[1])
    np.testing.assert_allclose(outputs[0], a @ b)
    assert counters[0] == counters[1]
    assert counters[0]["shuffle_bytes"] > 0


def test_rdd_pipeline_parity_serial_vs_threaded():
    """Raw engine pipeline (reduce_by_key + join + cache) parity."""
    results, counters = [], []
    for runner in [SerialTaskRunner(), ThreadedTaskRunner(max_workers=4)]:
        with EngineContext(cluster=TINY_CLUSTER, runner=runner) as ctx:
            left = ctx.parallelize([(i % 7, i) for i in range(500)], 8)
            right = ctx.parallelize([(i % 7, i * i) for i in range(100)], 4)
            summed = left.reduce_by_key(lambda x, y: x + y).cache()
            joined = summed.join(right)
            results.append(sorted(joined.collect()))
            counters.append(_counters(ctx.metrics))
    assert results[0] == results[1]
    assert counters[0] == counters[1]


def test_serial_runner_is_default_and_not_parallel():
    with mock.patch.dict(os.environ, {}, clear=True):
        ctx = EngineContext()
    assert isinstance(ctx.runner, SerialTaskRunner)
    assert ctx.runner.parallel is False
    assert ThreadedTaskRunner.parallel is True


# ----------------------------------------------------------------------
# Map-output statistics (the adaptive layer's measurement substrate)
# ----------------------------------------------------------------------


def _histogram_run(runner):
    """One partition_by shuffle with known keys; returns the pieces the
    histogram assertions need."""
    from repro.engine import HashPartitioner

    with EngineContext(cluster=TINY_CLUSTER, runner=runner) as ctx:
        data = [(i % 5, "x" * (8 * (i % 5 + 1))) for i in range(200)]
        rdd = ctx.parallelize(data, 8)
        snapshot = ctx.metrics.snapshot()
        shuffled = rdd.partition_by(HashPartitioner(6))
        output = [shuffled.iterator(p) for p in range(6)]
        buckets = [list(part) for part in output]
        delta = ctx.metrics.delta_since(snapshot)
        stats = shuffled.output_statistics()
    return buckets, delta, stats


@pytest.mark.parametrize(
    "runner_factory",
    [SerialTaskRunner, lambda: ThreadedTaskRunner(max_workers=4)],
    ids=["serial", "threads"],
)
def test_map_output_statistics_histogram(runner_factory):
    """The per-partition histogram is exact: records per bucket match the
    actual reduce output, and the byte/record totals match the engine's
    (fast-path) shuffle counters — the histogram costs nothing extra."""
    buckets, delta, stats = _histogram_run(runner_factory())
    assert stats is not None
    assert stats.num_partitions == 6
    assert list(stats.records_per_partition) == [len(b) for b in buckets]
    assert stats.total_records == delta.shuffle_records == 200
    assert stats.total_bytes == delta.shuffle_bytes > 0
    # Each key's 40 records share one bucket; larger-valued keys weigh more.
    nonzero = [b for b in stats.bytes_per_partition if b]
    assert len(nonzero) == 5  # 5 distinct keys over 6 buckets
    assert len(set(nonzero)) == 5  # distinct value sizes -> distinct weights


def test_map_output_statistics_identical_serial_vs_threaded():
    results = [
        _histogram_run(factory())
        for factory in (SerialTaskRunner, lambda: ThreadedTaskRunner(max_workers=4))
    ]
    (_, _, serial_stats), (_, _, threaded_stats) = results
    assert serial_stats == threaded_stats


