"""Task-level pipelined scheduling: graph mechanics, parity, faults.

Three layers of coverage:

* :class:`~repro.engine.taskgraph.TaskGraph` mechanics — edges,
  starters/terminators, dynamic extension from completion hooks,
  virtual dependencies, deadlock detection.
* Parity — pipelined execution must return the same results *and*
  identical stage/task/shuffle counters as the staged scheduler across
  the paper's query shapes, under both serial and threaded runners; and
  ``pipeline=False`` must keep the staged path byte-identical whatever
  runner is installed.
* Fault injection and retries — deterministic delays/failures via
  :meth:`TaskRunner.inject_delay` / :meth:`inject_failure`, bounded
  retry accounting, and the threaded runner's cancel-on-failure
  behavior.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

import repro.engine.shuffle as shuffle_module
import repro.engine.taskgraph as taskgraph_module
from repro import SacSession
from repro.engine import (
    TINY_CLUSTER,
    EngineContext,
    InjectedFatalTaskError,
    InjectedTaskFailure,
    PipelinedTaskRunner,
    SerialTaskRunner,
    TaskGraph,
    ThreadedTaskRunner,
)
from repro.linalg.factorization import sac_factorization_step
from repro.planner.planner import PlannerOptions

RNG = np.random.default_rng(20210831)

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
ADD = (
    "tiled(n,m)[ ((i,j), a + b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j ]"
)
TRANSPOSE = "tiled(m,n)[ ((j,i), a) | ((i,j),a) <- A ]"
SMOOTH = (
    "tiled(n,m)[ ((i,j), (a + b + c) / 3.0) | ((i,j),a) <- A,"
    " ((ii,jj),b) <- A, ((iii,jjj),c) <- A, ii == i-1, jj == j,"
    " iii == i+1, jjj == j ]"
)
ROW_SUMS = "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]"

A_30x20 = RNG.uniform(size=(30, 20))
B_20x30 = RNG.uniform(size=(20, 30))
R_30x30 = RNG.uniform(size=(30, 30))
P_30x10 = np.full((30, 10), 0.1)


def _counters(metrics):
    total = metrics.total
    return {
        "stages": total.stages,
        "tasks": total.tasks,
        "shuffles": total.shuffles,
        "shuffle_records": total.shuffle_records,
        "shuffle_bytes": total.shuffle_bytes,
    }


# ----------------------------------------------------------------------
# TaskGraph mechanics
# ----------------------------------------------------------------------


def test_task_graph_edges_and_execution_order():
    graph = TaskGraph()
    order = []
    a = graph.add_task(("a",), fn=lambda: order.append("a"))
    b = graph.add_task(("b",), fn=lambda: order.append("b"), deps=[a])
    c = graph.add_task(("c",), fn=lambda: order.append("c"), deps=[a])
    d = graph.add_task(("d",), fn=lambda: order.append("d"), deps=[b, c])
    assert graph.starters() == [("a",)]
    assert graph.terminators() == [("d",)]
    assert graph.find_children(("a",)) == [("b",), ("c",)]
    assert graph.find_parents(("d",)) == [("b",), ("c",)]
    SerialTaskRunner().run_graph(graph)
    assert order == ["a", "b", "c", "d"]
    assert all(task.done for task in (a, b, c, d))


def test_task_graph_on_complete_hook_extends_graph():
    graph = TaskGraph()
    ran = []

    def plan():
        # Dynamically add work behind the still-pending barrier.  The
        # hook runs while the barrier still holds its edge to the plan
        # task, so the new dependency is legal.
        t = graph.add_task(("late",), fn=lambda: ran.append("late"))
        graph.add_dependency(barrier, t)

    plan_task = graph.add_task(("plan",), on_complete=plan)
    barrier = graph.add_task(("barrier",), deps=[plan_task])
    SerialTaskRunner().run_graph(graph)
    assert ran == ["late"]
    assert graph.tasks[("barrier",)].done


def test_task_graph_virtual_dependency_release():
    graph = TaskGraph()
    ran = []
    out = graph.add_task(("out",), virtual_deps=1)
    graph.add_task(("reader",), fn=lambda: ran.append("reader"), deps=[out])
    producer = graph.add_task(
        ("producer",),
        fn=lambda: ran.append("producer"),
        on_complete=lambda: graph.release(out),
    )
    # ``out`` has no structural parents (its dependency is virtual) but
    # it is not runnable until released.
    assert ("out",) in graph.starters()
    assert [t.key for t in graph.drain_ready()] == [("producer",)]
    producer.fn()
    newly = graph.complete(producer)  # hook releases ``out``
    assert [t.key for t in newly] == [("out",)]
    newly = graph.complete(newly[0])  # synthetic: no fn to run
    assert [t.key for t in newly] == [("reader",)]
    newly[0].fn()
    graph.complete(newly[0])
    graph.check_done()
    assert ran == ["producer", "reader"]


def test_task_graph_detects_stuck_tasks():
    graph = TaskGraph()
    graph.add_task(("never",), virtual_deps=1)  # nobody releases it
    with pytest.raises(RuntimeError, match="unexecuted tasks"):
        SerialTaskRunner().run_graph(graph)


def test_pipelined_runner_rejects_bad_inflight():
    with pytest.raises(ValueError, match="max_inflight"):
        PipelinedTaskRunner(max_workers=2, max_inflight=0)


# ----------------------------------------------------------------------
# Parity: pipelined == staged, results and counters
# ----------------------------------------------------------------------


def _golden_shapes():
    def multiply(gbj):
        def run(session):
            return session.run(
                MULTIPLY, A=session.tiled(A_30x20), B=session.tiled(B_20x30),
                n=30, m=30,
            ).to_numpy()

        return run

    def simple(query, **dims):
        def run(session):
            return session.run(
                query, A=session.tiled(A_30x20), B=session.tiled(A_30x20),
                **dims,
            ).to_numpy()

        return run

    def factorization(session):
        state = sac_factorization_step(
            session, session.tiled(R_30x30), session.tiled(P_30x10),
            session.tiled(P_30x10),
        )
        return np.concatenate(
            [state.p.to_numpy().ravel(), state.q.to_numpy().ravel()]
        )

    return [
        ("multiply-gbj-on", multiply(True), {"group_by_join": True}),
        ("multiply-gbj-off", multiply(False), {"group_by_join": False}),
        ("add", simple(ADD, n=30, m=20), {}),
        ("transpose", simple(TRANSPOSE, n=30, m=20), {}),
        ("smoothing", simple(SMOOTH, n=30, m=20), {}),
        ("row-sums", simple(ROW_SUMS, n=30), {}),
        ("factorization", factorization, {}),
    ]


def _run_arm(run, options, adaptive, runner, pipeline):
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=10, options=options,
        adaptive=adaptive, runner=runner, pipeline=pipeline,
    )
    try:
        result = np.asarray(run(session))
        return result, _counters(session.engine.metrics)
    finally:
        session.engine.close()


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
@pytest.mark.parametrize(
    "name,run,opts",
    [(name, run, opts) for name, run, opts in _golden_shapes()],
    ids=[name for name, _run, _opts in _golden_shapes()],
)
def test_pipelined_parity_golden_shapes(name, run, opts, adaptive):
    """Pipelined results and counters match staged, serial and threaded."""
    options = PlannerOptions(**opts) if opts else None
    base_result, base_counters = _run_arm(
        run, options, adaptive, SerialTaskRunner(), pipeline=False
    )
    arms = [
        ("pipelined-serial", SerialTaskRunner(), True),
        ("staged-threaded", ThreadedTaskRunner(max_workers=4), False),
        ("pipelined-threaded", PipelinedTaskRunner(max_workers=4), True),
    ]
    for arm, runner, pipeline in arms:
        result, counters = _run_arm(run, options, adaptive, runner, pipeline)
        np.testing.assert_array_equal(result, base_result, err_msg=arm)
        assert counters == base_counters, f"{name}/{arm}"


def test_pipeline_off_counters_identical_with_pipelined_runner():
    """pipeline=False keeps the staged path whatever runner is installed."""

    def run(session):
        return session.run(
            MULTIPLY, A=session.tiled(A_30x20), B=session.tiled(B_20x30),
            n=30, m=30,
        ).to_numpy()

    base_result, base_counters = _run_arm(
        run, None, False, SerialTaskRunner(), pipeline=False
    )
    result, counters = _run_arm(
        run, None, False, PipelinedTaskRunner(max_workers=4), pipeline=False
    )
    np.testing.assert_array_equal(result, base_result)
    assert counters == base_counters


def _skewed_pipeline(ctx):
    """Two chained shuffles whose second sees the first's skewed histogram."""
    # 2000 distinct keys that all hash to reduce partition 0, carrying
    # ~350 KiB of values — past ``adaptive_skew_min_bytes``, so the
    # second shuffle's map over that partition is re-planned (split into
    # chunks) from the first shuffle's measured output histogram.
    pairs = [(8 * k, "v" * 120) for k in range(2000)]
    pairs += [(k, "w") for k in range(1, 8)]
    grouped = (
        ctx.parallelize(pairs, 8)
        .group_by_key()
        .flat_map(lambda kv: [(kv[0], len(v)) for v in kv[1]])
        .reduce_by_key(lambda a, b: a + b)
    )
    return sorted(grouped.collect())


@pytest.mark.parametrize(
    "runner_factory,pipeline",
    [
        (SerialTaskRunner, True),
        (lambda: PipelinedTaskRunner(max_workers=4), True),
    ],
    ids=["serial", "threaded"],
)
def test_pipelined_skew_split_parity(runner_factory, pipeline):
    """Deferred in-graph skew planning takes the same decisions as staged."""

    def run(pipeline, runner):
        ctx = EngineContext(
            cluster=TINY_CLUSTER, runner=runner, adaptive=True,
            pipeline=pipeline,
        )
        try:
            result = _skewed_pipeline(ctx)
            decisions = [d.kind for d in ctx.adaptive.decisions]
            return result, _counters(ctx.metrics), decisions
        finally:
            ctx.close()

    base = run(False, SerialTaskRunner())
    got = run(pipeline, runner_factory())
    assert got[0] == base[0]
    assert got[1] == base[1]
    assert got[2] == base[2]
    assert "skew-split" in base[2]


# ----------------------------------------------------------------------
# Fault injection and bounded retries
# ----------------------------------------------------------------------


def _count_job(ctx):
    return (
        ctx.parallelize(range(64), 4)
        .map(lambda x: (x % 4, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


@pytest.mark.parametrize("pipeline", [False, True], ids=["staged", "pipelined"])
def test_injected_delay_inflates_task_time(pipeline):
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=pipeline
    )
    ctx.runner.inject_delay("map", 0, 0.05)
    _count_job(ctx)
    snapshot = ctx.metrics.snapshot()
    histograms = snapshot.stage_histograms()
    assert max(h["max_seconds"] for h in histograms) >= 0.05
    assert snapshot.task_retries == 0


@pytest.mark.parametrize("pipeline", [False, True], ids=["staged", "pipelined"])
def test_transient_failure_is_retried_and_counted(pipeline):
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=pipeline
    )
    ctx.runner.inject_failure("map", 1, times=1)
    result = sorted(_count_job(ctx))
    assert result == [(0, 16), (1, 16), (2, 16), (3, 16)]
    assert ctx.metrics.snapshot().task_retries == 1


def test_retries_exhausted_raises(monkeypatch):
    monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=True
    )
    ctx.runner.inject_failure("map", 1, times=3)
    with pytest.raises(InjectedTaskFailure):
        _count_job(ctx)


def test_fatal_injected_failure_is_not_retried():
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=True
    )
    ctx.runner.inject_failure("reduce", None, times=1, transient=False)
    with pytest.raises(InjectedFatalTaskError):
        _count_job(ctx)
    assert ctx.metrics.snapshot().task_retries == 0


def test_stage_scoped_injection_matches_full_label():
    """An injection keyed ``map:<rdd id>`` hits only that shuffle's maps."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=True
    )
    rdd = ctx.parallelize(range(16), 4).map(lambda x: (x % 2, 1))
    shuffled = rdd.reduce_by_key(lambda a, b: a + b)
    ctx.runner.inject_failure(f"map:{shuffled.id}", None, times=1)
    assert sorted(shuffled.collect()) == [(0, 8), (1, 8)]
    assert ctx.metrics.snapshot().task_retries == 1  # injection fired
    ctx.runner.clear_injections()
    ctx.runner.inject_failure("map:99999", None, times=1)
    fresh = (
        ctx.parallelize(range(16), 4)
        .map(lambda x: (x % 2, 1))
        .reduce_by_key(lambda a, b: a + b)
    )
    assert sorted(fresh.collect()) == [(0, 8), (1, 8)]
    assert ctx.metrics.snapshot().task_retries == 1  # no new retries


def test_pipelined_task_failure_propagates_deterministically():
    """The lowest-index failing task's error surfaces from run_graph."""
    runner = PipelinedTaskRunner(max_workers=4)
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=runner, pipeline=True)
    ctx.runner.inject_failure(
        "result", None, times=None, transient=False,
        message="boom",
    )
    with pytest.raises(InjectedFatalTaskError, match=r"partition 0"):
        ctx.parallelize(range(64), 8).map(lambda x: x).collect()
    ctx.close()


def test_staged_run_after_failed_pipelined_job_recovers():
    """A failed graph drops partial slots; a staged re-run succeeds."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=True
    )
    rdd = (
        ctx.parallelize(range(64), 4)
        .map(lambda x: (x % 4, 1))
        .reduce_by_key(lambda a, b: a + b)
    )
    ctx.runner.inject_failure("reduce", None, times=1, transient=False)
    with pytest.raises(InjectedFatalTaskError):
        rdd.collect()
    ctx.runner.clear_injections()
    ctx.scheduler.pipeline = False
    assert sorted(rdd.collect()) == [(0, 16), (1, 16), (2, 16), (3, 16)]


class _WeakList(list):
    """Plain lists cannot be weakly referenced; this one can."""


@pytest.mark.parametrize("fail", [False, True], ids=["success", "fatal-failure"])
def test_task_graph_and_map_buckets_die_with_the_job(monkeypatch, fail):
    """Task closures capture the graph and the shuffles' buckets, and the
    graph holds the tasks; the scheduler breaks that cycle when the job
    ends, so nothing waits for the cyclic collector."""
    refs = []
    scatter = shuffle_module._scatter_records
    compile_graph = taskgraph_module.compile_job_graph

    def tracked_scatter(records, partitioner, num_reducers):
        buckets = [
            _WeakList(bucket)
            for bucket in scatter(records, partitioner, num_reducers)
        ]
        refs.extend(weakref.ref(bucket) for bucket in buckets)
        return buckets

    def tracked_compile(*args):
        compiled = compile_graph(*args)
        refs.append(weakref.ref(compiled[0]))
        return compiled

    monkeypatch.setattr(shuffle_module, "_scatter_records", tracked_scatter)
    monkeypatch.setattr(taskgraph_module, "compile_job_graph", tracked_compile)
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=True
    )
    left = ctx.parallelize([(k % 8, k) for k in range(64)], 4)
    right = ctx.parallelize([(k % 8, -k) for k in range(32)], 4)
    job = (
        left.join(right)
        .map(lambda kv: (kv[0] % 3, sum(kv[1])))
        .reduce_by_key(lambda a, b: a + b)
    )
    if fail:
        ctx.runner.inject_failure("reduce", None, times=1, transient=False)
    gc.collect()
    gc.disable()
    try:
        if fail:
            with pytest.raises(InjectedFatalTaskError):
                job.collect()
        else:
            assert len(job.collect()) == 3
        assert len(refs) > 1
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Threaded runner error propagation (regression)
# ----------------------------------------------------------------------


def test_threaded_stage_failure_cancels_pending_and_is_deterministic():
    """A failing task cancels not-yet-started ones; first error wins."""
    runner = ThreadedTaskRunner(max_workers=2)
    started = []
    lock = threading.Lock()

    def make_task(index):
        def task():
            with lock:
                started.append(index)
            if index == 0:
                time.sleep(0.05)
                raise ValueError(f"task {index} failed")
            time.sleep(0.2)
            return index

        return task

    with pytest.raises(ValueError, match="task 0 failed"):
        runner.run_stage([make_task(i) for i in range(6)])
    # Two workers: tasks 0 and 1 start; once 0 fails, 2..5 are cancelled
    # (at most one more may have slipped in while the failure surfaced).
    assert 0 in started
    assert len(started) <= 3
    runner.close()


def test_threaded_stage_failure_reraises_lowest_index_error():
    runner = ThreadedTaskRunner(max_workers=4)

    def make_task(index):
        def task():
            time.sleep((4 - index) * 0.02)
            raise ValueError(f"task {index} failed")

        return task

    with pytest.raises(ValueError, match="task 0 failed"):
        runner.run_stage([make_task(i) for i in range(4)])
    runner.close()


# ----------------------------------------------------------------------
# Metrics: histograms, straggler ratio, critical path
# ----------------------------------------------------------------------


def test_stage_histograms_and_straggler_ratio():
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), pipeline=True
    )
    ctx.runner.inject_delay("result", 0, 0.06)
    ctx.runner.inject_delay("result", None, 0.01)
    ctx.parallelize(range(32), 8).map(lambda x: x).collect()
    snapshot = ctx.metrics.snapshot()
    histograms = snapshot.stage_histograms()
    assert len(histograms) == 1
    hist = histograms[0]
    assert hist["num_tasks"] == 8
    assert hist["max_seconds"] >= 0.07
    assert hist["p50_seconds"] >= 0.01
    assert hist["p50_seconds"] < 0.05
    assert snapshot.straggler_ratio() > 2.0
    assert snapshot.critical_path_seconds() >= hist["max_seconds"]
