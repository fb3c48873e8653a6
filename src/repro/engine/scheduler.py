"""Job execution: task runners and the DAG scheduler.

Wide dependencies materialize themselves (see ``ShuffledRDD`` /
``CoGroupedRDD``); what remains for the scheduler is the result stage:
evaluate ``func`` over every partition of the target RDD, recording task
count and compute time.

Three runners execute the engine's tasks:

* :class:`SerialTaskRunner` (default) runs them one after another —
  deterministic, and on a single-core machine also the fastest.
* :class:`ThreadedTaskRunner` fans them out on one persistent thread
  pool, sized from the :class:`~repro.engine.cluster.ClusterSpec` and
  shared by every stage of the context — result stages, shuffle
  map/reduce tasks, and cogroup merges all submit to it.  Task bodies
  that release the GIL (NumPy/BLAS tile kernels, injected sleeps)
  genuinely overlap.
* :class:`PipelinedTaskRunner` additionally executes whole *task
  graphs* (see :mod:`repro.engine.taskgraph`): per-task dependency
  counters replace the stage barrier, so a downstream task fires as
  soon as the specific partitions it reads have landed, even while a
  straggler from an earlier stage is still running.

With a parallel runner the staged scheduler *prepares* a job before
fanning out: wide dependencies in the target RDD's lineage are
materialized bottom-up from the driver thread, exactly like Spark
running shuffle map stages before the result stage.  Work that still
reaches the pool from inside a worker (nested materialization through a
cache miss, say) runs inline on that worker, so the pool can never
deadlock on itself.

No runner changes any measured metric: stage/task/shuffle counters are
identical across all of them (pipelined execution records the same
stages, just not in barrier order), and simulated parallelism is applied
by the cost model in :mod:`repro.engine.metrics`, not by real threads.

Every runner also carries the engine's **fault-injection** surface:
:meth:`TaskRunner.inject_delay` and :meth:`TaskRunner.inject_failure`
register deterministic delays/failures keyed by stage label and
partition, consulted by each task body via :meth:`TaskRunner.fault_point`.
Failures raised as :class:`TransientTaskError` are retried up to
``max_task_retries`` times, counted in ``JobMetrics.task_retries``.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ClusterSpec
    from .rdd import RDD
    from .taskgraph import TaskGraph


class TransientTaskError(RuntimeError):
    """A task failure that is safe to retry.

    Raised by fault points (before the task has consumed any shared
    input) and available to user task bodies that know their work is
    idempotent.  The runner re-executes the task up to
    ``max_task_retries`` times before giving up; every retry is counted
    in ``JobMetrics.task_retries``.
    """


class InjectedTaskFailure(TransientTaskError):
    """A deterministic failure registered via :meth:`TaskRunner.inject_failure`."""


class InjectedFatalTaskError(RuntimeError):
    """An injected failure that must *not* be retried (``transient=False``)."""


@dataclass
class FaultInjection:
    """One registered delay or failure, matched by stage label + partition.

    ``stage`` is either a full label (``"map:17"``) or a bare kind
    (``"map"``, ``"reduce"``, ``"combine"``, ``"merge"``, ``"drain"``,
    ``"result"``) matching every stage of that kind.  ``partition`` of
    ``None`` matches every partition.  ``remaining`` of ``None`` fires
    on every match; an integer decrements per firing and stops at zero.
    """

    stage: str
    partition: Optional[int]
    delay_seconds: float = 0.0
    error_message: Optional[str] = None
    transient: bool = True
    remaining: Optional[int] = None

    def matches(self, stage: str, partition: int) -> bool:
        if self.partition is not None and self.partition != partition:
            return False
        return self.stage == stage or self.stage == stage.split(":", 1)[0]


class TaskRunner:
    """Strategy for executing the engine's tasks."""

    #: Whether the runner may execute tasks concurrently; the scheduler
    #: pre-materializes wide dependencies only for parallel runners so
    #: the serial path stays byte-identical to the historical engine.
    parallel = False

    #: Maximum re-executions of a task after a :class:`TransientTaskError`
    #: (``REPRO_TASK_RETRIES`` overrides the default of 1).
    max_task_retries: int

    def __init__(self) -> None:
        self.max_task_retries = int(os.environ.get("REPRO_TASK_RETRIES", "1"))
        #: Metrics registry retries are counted against (bound by the
        #: owning ``EngineContext``; ``None`` leaves retries uncounted).
        self.metrics = None
        self._injections: list[FaultInjection] = []
        self._injection_lock = threading.Lock()

    # -- fault injection ------------------------------------------------

    def inject_delay(
        self,
        stage: str,
        partition: Optional[int],
        seconds: float,
        times: Optional[int] = None,
    ) -> None:
        """Delay matching tasks by ``seconds`` (a deterministic straggler)."""
        with self._injection_lock:
            self._injections.append(
                FaultInjection(stage, partition, delay_seconds=seconds,
                               remaining=times)
            )

    def inject_failure(
        self,
        stage: str,
        partition: Optional[int],
        message: str = "injected task failure",
        times: Optional[int] = 1,
        transient: bool = True,
    ) -> None:
        """Fail matching tasks deterministically.

        ``transient=True`` (default) raises :class:`InjectedTaskFailure`,
        which the retry path may recover from; ``transient=False`` raises
        :class:`InjectedFatalTaskError`, which always propagates.
        """
        with self._injection_lock:
            self._injections.append(
                FaultInjection(stage, partition, error_message=message,
                               transient=transient, remaining=times)
            )

    def clear_injections(self) -> None:
        with self._injection_lock:
            self._injections.clear()

    def fault_point(self, stage: str, partition: int) -> None:
        """Apply registered injections matching ``(stage, partition)``.

        Called at the *head* of every task body, inside its timer but
        before any shared input is consumed — so injected delays inflate
        the task's measured time and injected failures leave the task
        idempotent for the retry path.  All matching delays accumulate;
        the first matching failure fires after the sleep.
        """
        if not self._injections:
            return
        delay = 0.0
        failure: Optional[FaultInjection] = None
        with self._injection_lock:
            for injection in self._injections:
                if not injection.matches(stage, partition):
                    continue
                if injection.remaining is not None:
                    if injection.remaining <= 0:
                        continue
                    injection.remaining -= 1
                if injection.error_message is not None:
                    if failure is None:
                        failure = injection
                else:
                    delay += injection.delay_seconds
        if delay > 0.0:
            time.sleep(delay)
        if failure is not None:
            message = f"{failure.error_message} [{stage} partition {partition}]"
            if failure.transient:
                raise InjectedTaskFailure(message)
            raise InjectedFatalTaskError(message)

    # -- execution ------------------------------------------------------

    def _in_worker(self) -> bool:
        """Whether the calling thread is one of this runner's workers."""
        return False

    def _execute_task(self, task: Callable[[], Any]) -> Any:
        """Run one task body, retrying bounded transient failures."""
        attempts = 0
        while True:
            try:
                return task()
            except TransientTaskError:
                if attempts >= self.max_task_retries:
                    raise
                attempts += 1
                if self.metrics is not None:
                    self.metrics.record_task_retry()

    def run_stage(self, tasks: list[Callable[[], Any]]) -> list[Any]:
        raise NotImplementedError  # pragma: no cover - interface

    def run_graph(self, graph: "TaskGraph") -> None:
        """Execute a task graph serially, in dependency (then index) order.

        The base implementation is deterministic: among ready tasks the
        one created first runs first.  Parallel runners override this
        with an eager, bounded-in-flight executor.
        """
        ready: list = [(task.index, task) for task in graph.drain_ready()]
        heapq.heapify(ready)
        while ready:
            _index, task = heapq.heappop(ready)
            if task.fn is not None:
                task.result = self._execute_task(task.fn)
            for successor in graph.complete(task):
                heapq.heappush(ready, (successor.index, successor))
        graph.check_done()

    def close(self) -> None:
        """Release any execution resources (idempotent)."""


class SerialTaskRunner(TaskRunner):
    """Runs tasks one after another (deterministic, default)."""

    def run_stage(self, tasks: list[Callable[[], Any]]) -> list[Any]:
        return [self._execute_task(task) for task in tasks]


class ThreadedTaskRunner(TaskRunner):
    """Runs stages on one persistent thread pool.

    The pool is created lazily on the first multi-task stage and reused
    for every stage afterwards (creating a ``ThreadPoolExecutor`` per
    stage costs more than many of the engine's stages).  Stages
    submitted from inside a pool worker — nested materialization — run
    inline on that worker, which keeps results correct and makes
    pool-exhaustion deadlocks impossible.  Shut the pool down with
    :meth:`close` (``EngineContext.close()`` does this).

    A failing task cancels every not-yet-started task of the same stage
    and the *first* error by submission order is re-raised — not
    whichever future the pool happens to surface first.
    """

    parallel = True

    def __init__(self, max_workers: Optional[int] = None):
        super().__init__()
        if max_workers is None:
            max_workers = max(1, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._worker_state = threading.local()

    @classmethod
    def for_cluster(cls, cluster: "ClusterSpec") -> "ThreadedTaskRunner":
        """A runner sized for ``cluster`` on this machine."""
        return cls(max_workers=cluster.local_parallelism())

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _mark_worker(self) -> None:
        self._worker_state.in_worker = True

    def _in_worker(self) -> bool:
        return getattr(self._worker_state, "in_worker", False)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-executor",
                    initializer=self._mark_worker,
                )
            return self._pool

    def run_stage(self, tasks: list[Callable[[], Any]]) -> list[Any]:
        if len(tasks) <= 1 or self._max_workers == 1 or self._in_worker():
            return [self._execute_task(task) for task in tasks]
        pool = self._ensure_pool()
        futures = [pool.submit(self._execute_task, task) for task in tasks]
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        if any(future.exception() is not None for future in done):
            # Cancel everything not yet started, let running tasks
            # drain, then raise the error of the lowest-index failure —
            # deterministic no matter which future surfaced first.
            for future in not_done:
                future.cancel()
            wait(futures)
            for future in futures:
                if not future.cancelled() and future.exception() is not None:
                    raise future.exception()
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class PipelinedTaskRunner(ThreadedTaskRunner):
    """Threaded runner that also executes task graphs eagerly.

    :meth:`run_graph` keeps a bounded ready-queue: tasks whose
    dependency counters reach zero are submitted to the shared pool as
    soon as a slot frees up (at most ``max_inflight`` concurrently), in
    creation order among simultaneously-ready tasks.  Synthetic tasks
    (``fn is None`` — phase barriers, planning hooks, virtual output
    slots) complete inline under the graph lock and never occupy a pool
    slot.

    On a task failure no further tasks are submitted; in-flight tasks
    drain and the lowest-index error is raised, mirroring
    :meth:`ThreadedTaskRunner.run_stage`.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
    ):
        super().__init__(max_workers)
        if max_inflight is None:
            max_inflight = 2 * self._max_workers
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self._max_inflight = max_inflight

    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    def run_graph(self, graph: "TaskGraph") -> None:
        if self._max_workers == 1 or self._in_worker():
            # Single slot (or nested inside a pool worker): the serial
            # dependency-order executor is equivalent and cannot deadlock.
            return TaskRunner.run_graph(self, graph)
        pool = self._ensure_pool()
        # Reentrant: a future finished before add_done_callback runs its
        # callback synchronously on the submitting thread, which already
        # holds the lock.
        lock = threading.RLock()
        done_cv = threading.Condition(lock)
        ready: list = []
        state = {"inflight": 0, "error": None}

        def push_ready(tasks) -> None:
            for task in tasks:
                heapq.heappush(ready, (task.index, task))

        def pump_locked() -> None:
            while ready and state["error"] is None:
                if ready[0][1].fn is None:
                    _index, task = heapq.heappop(ready)
                    push_ready(graph.complete(task))
                    continue
                if state["inflight"] >= self._max_inflight:
                    return
                _index, task = heapq.heappop(ready)
                state["inflight"] += 1
                future = pool.submit(self._execute_task, task.fn)
                future.add_done_callback(make_callback(task))

        def make_callback(task):
            def callback(future) -> None:
                with lock:
                    state["inflight"] -= 1
                    try:
                        exc = future.exception()
                        if exc is not None:
                            raise exc
                        task.result = future.result()
                        push_ready(graph.complete(task))
                        pump_locked()
                    except BaseException as exc:  # noqa: BLE001
                        error = state["error"]
                        if error is None or task.index < error[0]:
                            state["error"] = (task.index, exc)
                    done_cv.notify_all()

            return callback

        with lock:
            push_ready(graph.drain_ready())
            pump_locked()
            while state["inflight"] > 0 or (ready and state["error"] is None):
                done_cv.wait()
            if state["error"] is not None:
                raise state["error"][1]
        graph.check_done()


def resolve_runner(
    runner: Union[TaskRunner, str, None], cluster: "ClusterSpec"
) -> TaskRunner:
    """Resolve a runner argument to a :class:`TaskRunner` instance.

    ``None`` consults the ``REPRO_RUNNER`` environment variable
    (``serial`` when unset); the strings ``"serial"``, ``"threads"``,
    and ``"pipelined"`` name the built-in runners, the parallel ones
    sized from ``cluster``.
    """
    if runner is None:
        runner = os.environ.get("REPRO_RUNNER", "serial")
    if isinstance(runner, TaskRunner):
        return runner
    if runner == "serial":
        return SerialTaskRunner()
    if runner in ("threads", "threaded"):
        return ThreadedTaskRunner.for_cluster(cluster)
    if runner in ("pipelined", "pipeline"):
        return PipelinedTaskRunner.for_cluster(cluster)
    raise ValueError(
        f"unknown runner {runner!r}: expected a TaskRunner, 'serial', "
        f"'threads', or 'pipelined'"
    )


class FairJobScheduler:
    """Admission control for jobs on a shared substrate.

    Bounds the number of concurrently *running* jobs and grants freed
    slots round-robin across tenants, each tenant's own waiters FIFO —
    so one tenant replaying a heavy workload cannot starve the pool: a
    light tenant's next query waits behind at most one queued job per
    other tenant, not behind the heavy tenant's whole backlog.

    With ``max_concurrent=None`` (the single-session default and the
    classic-engine path) :meth:`admit` is a no-op passthrough.  Nested
    admissions from an already-admitted thread (a session action that
    triggers another action) reenter without taking a second slot,
    which also makes the gate deadlock-free under recursion.
    """

    def __init__(self, max_concurrent: Optional[int] = None, metrics=None):
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 (or None)")
        self.max_concurrent = max_concurrent
        self._metrics = metrics
        self._cond = threading.Condition()
        self._running = 0
        #: High-water mark of concurrently admitted jobs (tests assert
        #: the bound held under concurrent load).
        self.peak_running = 0
        self._queues: dict[str, deque] = {}
        #: Tenants with waiters, in grant order; invariant: a tenant is
        #: in the rotation iff its queue is non-empty.
        self._rotation: deque = deque()
        self._granted: set = set()
        self._local = threading.local()

    def _dispatch_locked(self) -> None:
        while self._running < self.max_concurrent and self._rotation:
            tenant = self._rotation.popleft()
            queue = self._queues[tenant]
            ticket = queue.popleft()
            if queue:
                self._rotation.append(tenant)
            self._granted.add(ticket)
            self._running += 1
            self.peak_running = max(self.peak_running, self._running)
        self._cond.notify_all()

    @contextmanager
    def admit(self, tenant: str = "") -> Iterator[None]:
        """Hold a job slot for the duration of the ``with`` body."""
        if self.max_concurrent is None:
            yield
            return
        depth = getattr(self._local, "depth", 0)
        if depth:
            # Nested action inside an admitted job: reenter freely.
            self._local.depth = depth + 1
            try:
                yield
            finally:
                self._local.depth = depth
            return
        ticket = object()
        start = time.perf_counter()
        queued = False
        with self._cond:
            queue = self._queues.setdefault(tenant, deque())
            queue.append(ticket)
            if len(queue) == 1:
                self._rotation.append(tenant)
            self._dispatch_locked()
            while ticket not in self._granted:
                queued = True
                self._cond.wait()
            self._granted.discard(ticket)
        if queued and self._metrics is not None:
            self._metrics.record_tenant_admission_wait(
                tenant, time.perf_counter() - start
            )
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            with self._cond:
                self._running -= 1
                self._dispatch_locked()

    def stats(self) -> dict:
        with self._cond:
            return {
                "max_concurrent": self.max_concurrent,
                "running": self._running,
                "peak_running": self.peak_running,
                "waiting": sum(len(q) for q in self._queues.values()),
            }


class DAGScheduler:
    """Executes actions as jobs of timed per-partition tasks.

    With ``pipeline=True`` a job is compiled into a task graph of
    (stage, partition) nodes (see :mod:`repro.engine.taskgraph`) and
    handed to the runner's :meth:`TaskRunner.run_graph`; otherwise the
    staged path runs — wide stages materialize bottom-up behind
    barriers, byte-identical to the historical engine.
    """

    def __init__(
        self,
        metrics,
        block_manager,
        runner: TaskRunner | None = None,
        adaptive=None,
        pipeline: bool = False,
    ):
        self._metrics = metrics
        self._runner = runner or SerialTaskRunner()
        #: The context's :class:`~repro.engine.block_manager.BlockManager`;
        #: job dispatch asks it to prefetch the spilled inputs of the
        #: about-to-run stages back into budget headroom.
        self._block_manager = block_manager
        #: Optional :class:`~repro.engine.adaptive.AdaptiveManager`; when
        #: enabled, jobs are prepared (wide stages materialized one at a
        #: time, bottom-up) even under the serial runner, so each stage's
        #: measured statistics exist before the next stage launches.
        self._adaptive = adaptive
        #: Task-graph execution toggle (``pipeline=``).
        self.pipeline = pipeline

    @property
    def runner(self) -> TaskRunner:
        return self._runner

    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[Iterator], Any],
        description: str = "",
    ) -> list[Any]:
        """Evaluate ``func`` over each partition of ``rdd``.

        Returns one result per partition, in partition order.
        """
        with self._metrics.job(description):
            # Nested actions issued from inside a pool worker (lazy
            # materialization through a cache miss) run staged inline:
            # the surrounding graph already owns the pool.
            if self.pipeline and not self._runner._in_worker():
                return self._run_pipelined(rdd, func)
            return self._run_staged(rdd, func)

    def _prefetch_spilled_inputs(self, rdd: "RDD") -> None:
        """Warm the spill tier's async prefetch for a job's inputs.

        Asks the block manager to restore, in the background, spilled
        partitions of the materialized wide outputs and cached RDDs the
        job is about to read.  Restoration is bounded by the memory
        budget (prefetch only fills free headroom) and is purely a
        latency optimization: a partition that is not prefetched in time
        is restored synchronously on first read.  Without a spill tier
        the block manager never starts the lineage walk.
        """
        blocks = self._block_manager

        def input_namespaces() -> Iterator[str]:
            seen: set[int] = set()
            stack = [rdd]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                owner = getattr(getattr(node, "_output", None), "owner", None)
                if owner is not None:
                    # A materialized wide output: its partitions feed the
                    # next stage directly, so its lineage will not re-run.
                    yield owner
                    continue
                if node._cached:
                    yield blocks.cache_namespace(node.id)
                stack.extend(node.dependencies)

        blocks.prefetch_namespaces(input_namespaces())

    def _run_staged(
        self, rdd: "RDD", func: Callable[[Iterator], Any]
    ) -> list[Any]:
        task_seconds: list[float] = [0.0] * rdd.num_partitions

        def make_task(split: int) -> Callable[[], Any]:
            def task() -> Any:
                with self._metrics.task_timer() as timer:
                    self._runner.fault_point("result", split)
                    result = func(rdd.iterator(split))
                task_seconds[split] = timer.own_seconds
                return result

            return task

        adaptive_on = self._adaptive is not None and self._adaptive.enabled
        self._prefetch_spilled_inputs(rdd)
        if self._runner.parallel or adaptive_on:
            rdd.prepare_execution(set())
        # Wide deps materialized during preparation may themselves have
        # spilled their outputs under the budget; warm them for the
        # result tasks about to fan out.
        self._prefetch_spilled_inputs(rdd)
        tasks = [make_task(split) for split in range(rdd.num_partitions)]
        results = self._runner.run_stage(tasks)
        self._metrics.record_stage(len(tasks), task_seconds)
        return results

    def _run_pipelined(
        self, rdd: "RDD", func: Callable[[Iterator], Any]
    ) -> list[Any]:
        from .taskgraph import compile_job_graph

        self._prefetch_spilled_inputs(rdd)
        task_seconds: list[float] = [0.0] * rdd.num_partitions
        graph, result_tasks, wide_nodes = compile_job_graph(
            rdd, func, task_seconds, self._metrics, self._runner, self._adaptive
        )
        try:
            self._runner.run_graph(graph)
        finally:
            # Promoted nodes already cleared their slots; on failure this
            # drops partial per-partition state so a later (staged) run
            # re-materializes from scratch.
            for node in wide_nodes:
                node._pipeline_cleanup()
            graph.discard()
        self._metrics.record_stage(len(result_tasks), task_seconds)
        return [task.result for task in result_tasks]
