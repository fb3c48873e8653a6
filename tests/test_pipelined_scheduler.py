"""Task-graph scheduling: graph mechanics, frozen counters, faults.

Four layers of coverage:

* :class:`~repro.engine.taskgraph.TaskGraph` mechanics — edges,
  starters/terminators, dynamic extension from completion hooks,
  virtual dependencies, deadlock detection — and the job compiler's
  cost (one leaf decision per lineage node, no edges without a wide
  node in flight).
* Frozen behaviour — the engine used to have a second, staged job
  driver, and these shapes pinned the two equal.  The staged driver's
  counters (and the skewed job's result and adaptive decisions) were
  recorded before it was deleted; the serial walk and the threaded
  runner must both reproduce them, and each other's results byte for
  byte.
* Fault injection and retries — deterministic delays/failures via
  :meth:`TaskRunner.inject_delay` / :meth:`inject_failure`, bounded
  retry accounting, a transient failure at every stage kind and a fatal
  one at the map stage of every golden shape, and the threaded runner's
  stop-on-failure behavior.
* Metrics — histograms, straggler ratio, critical path.
"""

import gc
import sys
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
    HashPartitioner,
    InjectedFatalTaskError,
    InjectedTaskFailure,
    SerialTaskRunner,
    TaskGraph,
    ThreadedTaskRunner,
)
from repro.engine.block_manager import BlockManager
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


COUNTER_NAMES = (
    "stages", "tasks", "shuffles", "shuffle_records", "shuffle_bytes",
    "task_retries",
)


def _counters(metrics):
    return {name: getattr(metrics.total, name) for name in COUNTER_NAMES}


def _threaded():
    return ThreadedTaskRunner(max_workers=4)


def _held(blocks):
    """Everything the block manager and its spill store hold for wide
    nodes and shuffles (cached RDD partitions aside)."""
    store = blocks.spill_store
    return (
        sorted(
            key for key in set(blocks._blocks) | set(blocks._spilled)
            if not key[0].startswith("rdd/")
        ),
        sorted(store.list("shufmap/")) if store is not None else [],
    )


#: ``staged`` is the serial walk of a job's task graph, ``pipelined`` the
#: threaded runner (what ``engine.pipeline`` and ``--pipeline`` mean).
RUNNERS = pytest.mark.parametrize(
    "runner_factory", [SerialTaskRunner, _threaded], ids=["staged", "pipelined"]
)


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


def test_graph_compile_decides_leaves_once_and_adds_no_edges(monkeypatch):
    """Compiling a job is O(lineage + tasks): whether a node is a leaf is
    asked of the block manager once per node, not once per partition per
    chain step, and with nothing in flight the graph is a flat list."""
    leaf_checks = []
    compiles = []
    contains_all = BlockManager.contains_all
    compile_graph = taskgraph_module.compile_job_graph

    def counted_contains_all(self, rdd_id, num_splits):
        leaf_checks.append(rdd_id)
        return contains_all(self, rdd_id, num_splits)

    def tracked_compile(*args):
        first = len(leaf_checks)
        job = compile_graph(*args)
        edges = sum(len(t.parent_keys) for t in job.graph.tasks.values())
        compiles.append((leaf_checks[first:], len(job.result_tasks), edges))
        return job

    monkeypatch.setattr(BlockManager, "contains_all", counted_contains_all)
    monkeypatch.setattr(taskgraph_module, "compile_job_graph", tracked_compile)
    smooth = "tiled(n,m)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- X ]"
    with SacSession(tile_size=4, runner=SerialTaskRunner()) as session:
        # One partition per core, so a per-partition leaf check would show.
        x = session.tiled(
            RNG.uniform(size=(48, 48)),
            num_partitions=session.engine.cluster.total_cores,
        ).materialize()
        assert x.tiles.num_partitions == 88
        for _step in range(3):
            x = session.run(smooth, X=x, n=48, m=48).materialize()
        x.to_numpy()
    assert max(tasks for _checks, tasks, _edges in compiles) == 88
    for checks, _tasks, edges in compiles:
        assert len(checks) == len(set(checks))
        assert edges == 0


# ----------------------------------------------------------------------
# Frozen behaviour: what the staged driver recorded, both runners
# ----------------------------------------------------------------------

#: ``COUNTER_NAMES`` of each golden shape, recorded on commit 325e019
#: from the staged scheduler under the serial runner — ``task_retries``,
#: 0 in every run, left off.  The static and the adaptive arm recorded
#: the same numbers for every shape; only the adaptive engine is left.
#: ``smoothing`` — a coordinate plan — was re-recorded when its records became column batches (it shuffled
#: 2404 per-element records / 226136 bytes in 36 tasks).  All were
#: re-recorded when storages began sizing their partitions by bytes: the
#: operands, a few KB each, are one partition instead of the cluster's
#: four.  Before that they were (stages, tasks, shuffles, records, bytes)
#: multiply-gbj-on (4, 16, 2, 36, 30744), multiply-gbj-off (6, 24, 3, 30,
#: 25788), add (4, 16, 2, 12, 10140), transpose (1, 4, 0, 0, 0),
#: smoothing (9, 18, 5, 14, 85564), row-sums (3, 12, 1, 5, 590) and
#: factorization (22, 72, 9, 57, 48138); the factorization's P×Qᵀ moved
#: from a broadcast of P to SUMMA replication, one shuffle more.
#: Re-recorded when the simulated cores stopped sizing reduce sides: a
#: SUMMA cell is its own partition, so on this cluster's four cores the
#: model prices a 3×3 grid at three launch waves and picks 2×2, and the
#: broadcast join reduces into the one partition its result's bytes ask
#: for, not three.  Before: multiply-gbj-on (4, 10, 2, 36, 30744),
#: factorization (22, 59, 10, 66, 55914).
GOLDEN_COUNTERS = {
    "multiply-gbj-on": (4, 10, 2, 24, 20496),
    "multiply-gbj-off": (6, 6, 3, 21, 18174),
    "add": (4, 4, 2, 12, 10140),
    "transpose": (1, 1, 0, 0, 0),
    "smoothing": (9, 9, 5, 5, 84898),
    "row-sums": (3, 3, 1, 3, 354),
    "factorization": (22, 37, 10, 60, 50790),
}

#: ``_skewed_pipeline`` on the same commit and arm (adaptive on).
SKEW_RESULT = sorted(
    [(8 * k, 120) for k in range(2000)] + [(k, 1) for k in range(1, 8)]
)
#: Re-recorded when reduce-partition coalescing was deleted: both
#: shuffles' 8 reduce buckets, twice ``total_cores``, had been coalesced
#: into 2 tasks each (43 tasks, decisions coalesce / skew-split /
#: coalesce); every bucket is its own task now.
SKEW_COUNTERS = (5, 55, 2, 4014, 336343, 0)
SKEW_DECISIONS = ["skew-split"]


def _golden(name, task_retries=0):
    return dict(zip(COUNTER_NAMES, GOLDEN_COUNTERS[name] + (task_retries,)))


def _run_multiply(session):
    return session.run(
        MULTIPLY, A=session.tiled(A_30x20), B=session.tiled(B_20x30),
        n=30, m=30,
    ).to_numpy()


def _golden_shapes():
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
        ("multiply-gbj-on", _run_multiply, {"strategy": "gbj-replicate"}),
        ("multiply-gbj-off", _run_multiply, {"strategy": "tiled-reduce"}),
        ("add", simple(ADD, n=30, m=20), {}),
        ("transpose", simple(TRANSPOSE, n=30, m=20), {}),
        ("smoothing", simple(SMOOTH, n=30, m=20), {}),
        ("row-sums", simple(ROW_SUMS, n=30), {}),
        ("factorization", factorization, {}),
    ]


def _session(options, runner, memory_limit=None):
    return SacSession(
        cluster=TINY_CLUSTER, tile_size=10, options=options,
        runner=runner, memory_limit=memory_limit,
    )


def _run_arm(run, options, runner, memory_limit=None):
    """One golden shape in a fresh session: (result, counters, metrics)."""
    with _session(options, runner, memory_limit) as session:
        result = np.asarray(run(session))
        metrics = session.engine.metrics
        return result, _counters(metrics), metrics.total


GOLDEN_SHAPES = pytest.mark.parametrize(
    "name,run,opts",
    _golden_shapes(),
    ids=[name for name, _run, _opts in _golden_shapes()],
)


@pytest.mark.parametrize(
    "name,run,opts",
    _golden_shapes(),
    # Ids keep the ``-adaptive`` suffix of the arm the goldens pin.
    ids=[f"{name}-adaptive" for name, _run, _opts in _golden_shapes()],
)
def test_pipelined_parity_golden_shapes(name, run, opts):
    """Serial walk and threaded runner both record the frozen counters
    and return the same bytes."""
    options = PlannerOptions(**opts) if opts else None
    serial, serial_counters, _ = _run_arm(run, options, SerialTaskRunner())
    threaded, threaded_counters, _ = _run_arm(run, options, _threaded())
    assert serial_counters == _golden(name)
    assert threaded_counters == _golden(name)
    assert serial.dtype == threaded.dtype
    assert serial.tobytes() == threaded.tobytes()


def _skewed_pipeline(ctx, materialize_source=False):
    """Two chained shuffles whose second sees the first's skewed histogram.

    With ``materialize_source`` a first action builds the first shuffle,
    so the second's skew split is planned when its job compiles instead
    of inside its task graph."""
    # 2000 distinct keys that all hash to reduce partition 0, carrying
    # ~350 KiB of values — past ``adaptive_skew_min_bytes``, so the
    # second shuffle's map over that partition is re-planned (split into
    # chunks) from the first shuffle's measured output histogram.
    pairs = [(8 * k, "v" * 120) for k in range(2000)]
    pairs += [(k, "w") for k in range(1, 8)]
    grouped = ctx.parallelize(pairs, 8).group_by_key()
    if materialize_source:
        grouped.count()
    summed = grouped.flat_map(lambda kv: [(kv[0], len(v)) for v in kv[1]])
    return sorted(summed.reduce_by_key(lambda a, b: a + b).collect())


@pytest.mark.parametrize(
    "runner_factory", [SerialTaskRunner, _threaded], ids=["serial", "threaded"]
)
def test_pipelined_skew_split_parity(runner_factory):
    """Skew planning deferred into the graph takes the decisions the
    staged driver took behind its barriers."""
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=runner_factory())
    try:
        assert _skewed_pipeline(ctx) == SKEW_RESULT
        assert _counters(ctx.metrics) == dict(zip(COUNTER_NAMES, SKEW_COUNTERS))
        assert [d.kind for d in ctx.adaptive.decisions] == SKEW_DECISIONS
    finally:
        ctx.close()


@pytest.mark.parametrize(
    "runner_factory", [SerialTaskRunner, _threaded], ids=["serial", "threaded"]
)
def test_skew_split_of_a_materialized_source(runner_factory, monkeypatch):
    """A skew source an earlier job built is split by the same rule when
    the next job compiles: no planning task enters its graph."""
    keys = []
    add_task = taskgraph_module.TaskGraph.add_task

    def spy(graph, key, *args, **kwargs):
        keys.append(key)
        return add_task(graph, key, *args, **kwargs)

    monkeypatch.setattr(taskgraph_module.TaskGraph, "add_task", spy)
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=runner_factory())
    try:
        assert _skewed_pipeline(ctx, materialize_source=True) == SKEW_RESULT
        assert [d.kind for d in ctx.adaptive.decisions] == SKEW_DECISIONS
    finally:
        ctx.close()
    assert not [key for key in keys if key[0] in ("plan", "chunk-plan")]


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


@RUNNERS
def test_injected_delay_inflates_task_time(runner_factory):
    with EngineContext(cluster=TINY_CLUSTER, runner=runner_factory()) as ctx:
        ctx.runner.inject_delay("map", 0, 0.05)
        _count_job(ctx)
        snapshot = ctx.metrics.snapshot()
    histograms = snapshot.stage_histograms()
    assert max(h["max_seconds"] for h in histograms) >= 0.05
    assert snapshot.task_retries == 0


@RUNNERS
def test_transient_failure_is_retried_and_counted(runner_factory):
    with EngineContext(cluster=TINY_CLUSTER, runner=runner_factory()) as ctx:
        ctx.runner.inject_failure("map", 1, times=1)
        result = sorted(_count_job(ctx))
    assert result == [(0, 16), (1, 16), (2, 16), (3, 16)]
    assert ctx.metrics.snapshot().task_retries == 1


def test_retries_exhausted_raises():
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=SerialTaskRunner())
    assert ctx.runner.max_task_retries == 1
    ctx.runner.inject_failure("map", 1, times=3)
    with pytest.raises(InjectedTaskFailure):
        _count_job(ctx)


def test_fatal_injected_failure_is_not_retried():
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=SerialTaskRunner())
    ctx.runner.inject_failure("reduce", None, times=1, transient=False)
    with pytest.raises(InjectedFatalTaskError):
        _count_job(ctx)
    assert ctx.metrics.snapshot().task_retries == 0


def test_stage_scoped_injection_matches_full_label():
    """An injection keyed ``map:<rdd id>`` hits only that shuffle's maps."""
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=SerialTaskRunner())
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
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=_threaded())
    ctx.runner.inject_failure(
        "result", None, times=None, transient=False,
        message="boom",
    )
    with pytest.raises(InjectedFatalTaskError, match=r"partition 0"):
        ctx.parallelize(range(64), 8).map(lambda x: x).collect()
    ctx.close()


@pytest.mark.parametrize("memory_limit", [None, 1024], ids=["uncapped", "capped"])
def test_rerun_after_failed_job_recovers(memory_limit):
    """A job that fails with some partitions already landed drops them
    and leaves the node unmaterialized; a re-run succeeds."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(),
        memory_limit=memory_limit,
    )
    rdd = (
        ctx.parallelize(range(64), 4)
        .map(lambda x: (x % 4, 1))
        .reduce_by_key(lambda a, b: a + b)
    )
    ctx.runner.inject_failure("reduce", 1, times=1, transient=False)
    with pytest.raises(InjectedFatalTaskError):
        rdd.collect()
    assert rdd._output is None and rdd._inflight is None
    assert _held(ctx.block_manager) == ([], [])
    ctx.runner.clear_injections()
    assert sorted(rdd.collect()) == [(0, 16), (1, 16), (2, 16), (3, 16)]
    ctx.close()


def test_concurrent_jobs_over_one_lineage_build_each_wide_node_once():
    """Jobs racing over the same unmaterialized lineage (tenants sharing
    a CSE plan): one job builds each wide node while the others wait at
    its lock, so every shuffle runs — and is counted — exactly once."""
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=_threaded())
    left = ctx.parallelize([(k % 8, k) for k in range(256)], 4)
    right = ctx.parallelize([(k % 8, -k) for k in range(64)], 4)
    shared = (
        left.join(right)
        .map(lambda kv: (kv[0] % 3, sum(kv[1])))
        .reduce_by_key(lambda a, b: a + b)
    )
    outcomes = []

    def client():
        try:
            outcomes.append(sorted(shared.collect()))
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcomes.append(exc)

    threads = [threading.Thread(target=client) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [[(0, 73728), (1, 73728), (2, 49152)]] * 8
    assert ctx.metrics.total.shuffles == 3  # the join's two sides + the reduce
    ctx.close()


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
        refs.append(weakref.ref(compiled.graph))
        return compiled

    monkeypatch.setattr(shuffle_module, "_scatter_records", tracked_scatter)
    monkeypatch.setattr(taskgraph_module, "compile_job_graph", tracked_compile)
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=SerialTaskRunner())
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
# One fault sweep over the golden shapes and a co-partitioned cogroup
# ----------------------------------------------------------------------

STAGE_KINDS = ("map", "reduce", "combine", "merge", "result")


def _run_cogroup(session):
    """A cogroup of a co-partitioned parent and a hashed one: the first
    reaches the cogroup through a local combine, the second through a
    shuffle's map stage."""
    engine = session.engine
    partitioner = HashPartitioner(2)
    left = engine.parallelize(
        [(k % 6, float(k)) for k in range(24)], 2
    ).partition_by(partitioner)
    right = engine.parallelize([(k % 6, -float(k)) for k in range(12)], 2)
    grouped = left.cogroup(right, partitioner=partitioner).collect()
    return np.array(sorted(
        (key, sum(mine), sum(theirs)) for key, (mine, theirs) in grouped
    ))


#: The golden shapes plus the one shape that fires ``combine``.
SWEEP_SHAPES = _golden_shapes() + [("cogroup-copartitioned", _run_cogroup, {})]


@RUNNERS
@pytest.mark.parametrize(
    "name,run,opts", SWEEP_SHAPES,
    ids=[name for name, _run, _opts in SWEEP_SHAPES],
)
def test_transient_failure_at_every_stage_kind(name, run, opts, runner_factory):
    """One retried task of any kind changes nothing but ``task_retries``."""
    options = PlannerOptions(**opts) if opts else None
    clean, clean_counters, _ = _run_arm(run, options, SerialTaskRunner())
    if name in GOLDEN_COUNTERS:
        assert clean_counters == _golden(name)
    fired_kinds = set()
    for kind in STAGE_KINDS:
        with _session(options, runner_factory()) as session:
            runner = session.engine.runner
            runner.inject_failure(kind, 0, times=1)
            result = np.asarray(run(session))
            fired = 1 - runner._injections[0].remaining
            assert result.tobytes() == clean.tobytes(), kind
            assert _counters(session.engine.metrics) == dict(
                clean_counters, task_retries=fired
            ), kind
        if fired:
            fired_kinds.add(kind)
    assert "result" in fired_kinds
    assert ("map" in fired_kinds) == (clean_counters["shuffles"] > 0)


def test_every_stage_kind_fires_on_some_sweep_shape():
    """The sweep's kinds are not dead names: each one fails a task of at
    least one shape."""
    fired_kinds = set()
    for _name, run, opts in SWEEP_SHAPES:
        options = PlannerOptions(**opts) if opts else None
        with _session(options, SerialTaskRunner()) as session:
            runner = session.engine.runner
            for kind in STAGE_KINDS:
                runner.inject_failure(kind, 0, times=1)
            run(session)
            fired_kinds.update(
                kind for kind, injection in zip(STAGE_KINDS, runner._injections)
                if injection.remaining == 0
            )
    assert fired_kinds == set(STAGE_KINDS)


@pytest.mark.parametrize("memory_limit", [None, 4096], ids=["uncapped", "capped"])
@RUNNERS
@pytest.mark.parametrize(
    "name,run,opts",
    [shape for shape in _golden_shapes() if GOLDEN_COUNTERS[shape[0]][2]],
    ids=[name for name, counters in GOLDEN_COUNTERS.items() if counters[2]],
)
def test_fatal_map_failure_leaves_nothing_behind(
    name, run, opts, runner_factory, memory_limit
):
    """A job that dies in a map stage drops every partial output, scratch
    handle and unread map bucket, and the same session then re-runs the
    shape to the clean result."""
    options = PlannerOptions(**opts) if opts else None
    clean = _run_arm(run, options, SerialTaskRunner())[0]
    with _session(options, runner_factory(), memory_limit) as session:
        engine = session.engine
        blocks = engine.block_manager
        before_job = []
        run_job = engine.scheduler.run_job

        def state():
            # Under a cap cached partitions legitimately change tiers.
            if memory_limit:
                return _held(blocks)
            return _held(blocks), blocks.num_blocks, blocks.cached_bytes

        def recording_run_job(*args, **kwargs):
            before_job.append(state())
            return run_job(*args, **kwargs)

        engine.scheduler.run_job = recording_run_job
        engine.runner.inject_failure("map", 0, times=1, transient=False)
        with pytest.raises(InjectedFatalTaskError):
            run(session)
        assert state() == before_job[-1]
        engine.runner.clear_injections()
        assert np.asarray(run(session)).tobytes() == clean.tobytes()


# ----------------------------------------------------------------------
# Threaded runner error propagation (regression)
# ----------------------------------------------------------------------


def _run_flat(runner, bodies):
    """Run independent task bodies as one graph; results in task order."""
    graph = TaskGraph()
    tasks = [graph.add_task((i,), fn=body) for i, body in enumerate(bodies)]
    runner.run_graph(graph)
    return [task.result for task in tasks]


def test_threaded_stage_failure_cancels_pending_and_is_deterministic():
    """A failing task stops further submissions; first error wins."""
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
        _run_flat(runner, [make_task(i) for i in range(12)])
    # Two workers, four tasks in flight: once 0 fails nothing further is
    # submitted, so the other eight never start.
    assert 0 in started
    assert len(started) <= 4
    runner.close()


def test_threaded_stage_failure_reraises_lowest_index_error():
    runner = ThreadedTaskRunner(max_workers=4)

    def make_task(index):
        def task():
            time.sleep((4 - index) * 0.02)
            raise ValueError(f"task {index} failed")

        return task

    with pytest.raises(ValueError, match="task 0 failed"):
        _run_flat(runner, [make_task(i) for i in range(4)])
    runner.close()


# ----------------------------------------------------------------------
# Metrics: histograms, straggler ratio, critical path
# ----------------------------------------------------------------------


def test_stage_histograms_and_straggler_ratio():
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=SerialTaskRunner())
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
