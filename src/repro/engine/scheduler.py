"""Job execution: task runners and the DAG scheduler.

Every job runs the same way: :class:`DAGScheduler` compiles the target
RDD's lineage into a :class:`~repro.engine.taskgraph.TaskGraph` of
``(stage, partition)`` tasks and hands it to the context's
:class:`TaskRunner`.  The runners differ only in how many tasks are in
flight:

* :class:`SerialTaskRunner` (default) walks the graph one task at a
  time, lowest creation index first — a barrier schedule, deterministic,
  and on a single-core machine also the fastest.
* :class:`ThreadedTaskRunner` keeps up to ``2 * max_workers`` ready
  tasks on one persistent thread pool, sized from the
  :class:`~repro.engine.cluster.ClusterSpec`: a task fires as soon as
  the specific partitions it reads have landed, even while a straggler
  of an earlier stage is still running.  Task bodies that release the
  GIL (NumPy/BLAS tile kernels, injected sleeps) genuinely overlap.

A graph handed over from inside a pool worker (a nested action, or a
wide node materializing itself lazily through a cache miss) is walked
serially on that worker, so the pool can never deadlock on itself.

No runner changes any measured metric: stage/task/shuffle counters are
identical across them (only the order stages are recorded in may
differ), and simulated parallelism is applied by the cost model in
:mod:`repro.engine.metrics`, not by real threads.

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
from concurrent.futures import ThreadPoolExecutor
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

    #: Whether tasks of different stages may overlap (reported as
    #: ``EngineContext.pipeline``).
    parallel = False

    def __init__(self) -> None:
        #: Maximum re-executions of a task after a
        #: :class:`TransientTaskError`.
        self.max_task_retries = 1
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

    def run_graph(self, graph: "TaskGraph") -> None:
        """Walk a task graph serially, in dependency (then index) order.

        Deterministic: among ready tasks the one created first runs
        first, which makes the walk a barrier schedule of the job's
        stages.  :class:`ThreadedTaskRunner` overrides this with an
        eager, bounded-in-flight executor.
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


class ThreadedTaskRunner(TaskRunner):
    """Runs task graphs eagerly on one persistent thread pool.

    The pool is created lazily on the first graph and reused afterwards
    (creating a ``ThreadPoolExecutor`` per job costs more than many of
    the engine's jobs).  Shut it down with :meth:`close`
    (``EngineContext.close()`` does this).

    :meth:`run_graph` keeps a bounded ready-queue: tasks whose
    dependency counters reach zero are submitted to the pool as soon as
    a slot frees up (at most ``2 * max_workers`` in flight), in creation
    order among simultaneously-ready tasks.  Synthetic tasks (``fn is
    None`` — phase barriers, planning hooks, virtual output slots)
    complete inline under the graph lock and never occupy a pool slot.

    On a task failure no further tasks are submitted; in-flight tasks
    drain and the error of the lowest-index failed task is raised — not
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

    def run_graph(self, graph: "TaskGraph") -> None:
        if self._max_workers == 1 or self._in_worker():
            # Single slot (or nested inside a pool worker): the serial
            # dependency-order walk is equivalent and cannot deadlock.
            return TaskRunner.run_graph(self, graph)
        pool = self._ensure_pool()
        window = 2 * self._max_workers
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
                if state["inflight"] >= window:
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

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def resolve_runner(
    runner: Union[TaskRunner, str, None], cluster: "ClusterSpec"
) -> TaskRunner:
    """Resolve a runner argument to a :class:`TaskRunner` instance.

    ``None`` consults the ``REPRO_RUNNER`` environment variable
    (``serial`` when unset); the strings ``"serial"`` and ``"threads"``
    name the built-in runners, the threaded one sized from ``cluster``.
    """
    if runner is None:
        runner = os.environ.get("REPRO_RUNNER", "serial")
    if isinstance(runner, TaskRunner):
        return runner
    if runner == "serial":
        return SerialTaskRunner()
    if runner in ("threads", "threaded"):
        return ThreadedTaskRunner.for_cluster(cluster)
    raise ValueError(
        f"unknown runner {runner!r}: expected a TaskRunner, 'serial' "
        f"or 'threads'"
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

    A job is the target RDD's lineage compiled into a task graph of
    (stage, partition) nodes (see :mod:`repro.engine.taskgraph`) and
    handed to the runner's :meth:`TaskRunner.run_graph`.  A wide node
    read outside any job materializes through the same compiler
    (:meth:`materialize`).
    """

    def __init__(
        self,
        metrics,
        block_manager,
        runner: TaskRunner,
        adaptive,
    ):
        self._metrics = metrics
        self._runner = runner
        #: The context's :class:`~repro.engine.block_manager.BlockManager`;
        #: job dispatch asks it to prefetch the spilled inputs of the
        #: about-to-run job back into budget headroom.
        self._block_manager = block_manager
        #: The context's :class:`~repro.engine.adaptive.AdaptiveManager`;
        #: the compiler consults it for skew splits.
        self._adaptive = adaptive

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
        from .taskgraph import compile_job_graph

        with self._metrics.job(description):
            self._prefetch_spilled_inputs(rdd)
            task_seconds: list[float] = [0.0] * rdd.num_partitions
            job = compile_job_graph(
                rdd, func, task_seconds, self._metrics, self._runner,
                self._adaptive,
            )
            try:
                self._runner.run_graph(job.graph)
            finally:
                job.close()
            self._metrics.record_stage(len(job.result_tasks), task_seconds)
            return [task.result for task in job.result_tasks]

    def materialize(self, node: "RDD") -> None:
        """Build wide node ``node`` now, on the calling thread.

        The lazy path — a first ``compute`` outside any job,
        ``output_statistics()``, the lineage fallback after a lost spill:
        the graph of that one node, no result tasks, walked serially.
        The caller holds the node's materialize lock.
        """
        from .taskgraph import compile_job_graph

        job = compile_job_graph(
            node, None, None, self._metrics, self._runner, self._adaptive
        )
        try:
            TaskRunner.run_graph(self._runner, job.graph)
        finally:
            job.close()

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
