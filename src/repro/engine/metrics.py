"""Job metrics and the simulated-time cost model.

Every action (collect, count, ...) runs as a *job*.  The engine records,
per job and cumulatively:

* tasks launched and stages executed,
* records and measured bytes pushed through each shuffle,
* wall-clock compute time actually spent in user functions.

From those measurements :meth:`MetricsRegistry.simulated_time` derives the
time the same job would take on a :class:`~repro.engine.cluster.ClusterSpec`:
compute parallelizes over the cluster's cores, every task pays a launch
overhead (amortized over the available slots), and every shuffled byte
crosses the network at the spec's bandwidth.  The benchmark harness reports
both wall-clock and simulated time; the paper-shape comparisons use the
simulated time because that is where data-shuffling costs, the paper's
dominant factor, live.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .cluster import ClusterSpec


@dataclass
class StageCost:
    """Per-stage task timing, for makespan-aware simulation.

    Besides the makespan inputs (total and longest task), the stage keeps
    a small per-task wall-time histogram (p50/p95/max) so stragglers are
    visible per stage: a healthy stage has ``longest ≈ p50``, a skewed or
    delayed one has ``longest >> p50``.
    """

    num_tasks: int
    total_seconds: float
    longest_task_seconds: float
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0

    def histogram(self) -> dict:
        """The stage's task-time histogram as a plain dict (for reports)."""
        return {
            "num_tasks": self.num_tasks,
            "total_seconds": self.total_seconds,
            "p50_seconds": self.p50_seconds,
            "p95_seconds": self.p95_seconds,
            "max_seconds": self.longest_task_seconds,
        }


def _percentile(ordered: list, fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class JobMetrics:
    """Counters for one job (one action call)."""

    job_id: int
    description: str = ""
    stages: int = 0
    tasks: int = 0
    shuffles: int = 0
    shuffle_records: int = 0
    shuffle_bytes: int = 0
    #: Cost-model prediction recorded when a plan with an estimate runs;
    #: compared against the measured ``shuffle_bytes`` to validate the
    #: planner's model (estimated-vs-actual).
    estimated_shuffle_bytes: int = 0
    compute_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: BlockManager counters: cached-partition reads served from memory,
    #: reads that had to recompute, bytes dropped by LRU eviction, and
    #: shuffles answered from a retained equal shuffle's map outputs.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evicted_bytes: int = 0
    shuffle_reuses: int = 0
    #: Out-of-core tier counters (all zero unless a ``memory_limit`` is
    #: configured): bytes serialized to the spill store, bytes restored
    #: from it (each restore consumes its spill object, so ``restored
    #: <= spilled`` always), restore events, reads served from a block
    #: the prefetcher brought back ahead of time, and wall time consumers
    #: spent blocked on synchronous restores (the stall prefetch hides).
    spilled_bytes: int = 0
    restored_bytes: int = 0
    spill_restores: int = 0
    prefetch_hits: int = 0
    restore_stall_seconds: float = 0.0
    #: Fused-kernel cache lookups (:class:`repro.planner.codegen.KernelCache`):
    #: a hit reuses a previously compiled per-partition kernel, a miss
    #: compiles the generated source.  Both zero when no chain fused.
    kernel_cache_hits: int = 0
    kernel_cache_misses: int = 0
    #: Partitions a fused kernel ran over, by entry: a
    #: :class:`~repro.engine.batch.TileBatch` read whole, or a record
    #: list grouped into batches first.
    kernel_batch_inputs: int = 0
    kernel_record_inputs: int = 0
    #: Tasks re-executed after a :class:`~repro.engine.scheduler.TransientTaskError`
    #: (bounded by the runner's ``max_task_retries``).
    task_retries: int = 0
    stage_costs: list = field(default_factory=list)
    #: Runtime re-optimizations (:class:`~repro.engine.adaptive.AdaptiveDecision`)
    #: taken while this job ran: skew splits, join-strategy downgrades.
    #: Empty whenever adaptive execution is off.
    adaptive_decisions: list = field(default_factory=list)

    def merge(self, other: "JobMetrics") -> None:
        """Accumulate ``other``'s counters into this one."""
        self.stages += other.stages
        self.tasks += other.tasks
        self.shuffles += other.shuffles
        self.shuffle_records += other.shuffle_records
        self.shuffle_bytes += other.shuffle_bytes
        self.estimated_shuffle_bytes += other.estimated_shuffle_bytes
        self.compute_seconds += other.compute_seconds
        self.wall_seconds += other.wall_seconds
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evicted_bytes += other.cache_evicted_bytes
        self.shuffle_reuses += other.shuffle_reuses
        self.spilled_bytes += other.spilled_bytes
        self.restored_bytes += other.restored_bytes
        self.spill_restores += other.spill_restores
        self.prefetch_hits += other.prefetch_hits
        self.restore_stall_seconds += other.restore_stall_seconds
        self.kernel_cache_hits += other.kernel_cache_hits
        self.kernel_cache_misses += other.kernel_cache_misses
        self.kernel_batch_inputs += other.kernel_batch_inputs
        self.kernel_record_inputs += other.kernel_record_inputs
        self.task_retries += other.task_retries
        self.stage_costs.extend(other.stage_costs)
        self.adaptive_decisions.extend(other.adaptive_decisions)

    def simulated_time(self, cluster: ClusterSpec) -> float:
        """Time this job would take on ``cluster`` (seconds).

        Stages serialize at shuffle boundaries, so each stage contributes
        its *makespan lower bound*::

            stage  = max(total_compute / total_cores, longest_task)
            launch = overhead * ceil(tasks / total_cores)   per stage
            network = shuffle_bytes / network_bandwidth     per job

        The ``longest_task`` term is what exposes key skew: a join whose
        key has only G distinct values runs on at most G cores no matter
        how large the cluster is (this is the dominant cost of the
        paper's join+group-by matrix multiplication, whose join key is
        the shared dimension).  Measured compute is multiplied by the
        cluster's ``compute_scale`` before conversion.
        """
        cores = max(1, cluster.total_cores)
        scale = cluster.compute_scale
        launch = 0.0
        compute = 0.0
        attributed = 0.0
        for stage in self.stage_costs:
            launch += cluster.task_launch_overhead * math.ceil(
                stage.num_tasks / cores
            )
            compute += max(
                stage.total_seconds * scale / cores,
                stage.longest_task_seconds * scale,
            )
            attributed += stage.total_seconds
        # Compute recorded outside any stage (e.g. baseline kernel-profile
        # adjustments) parallelizes ideally.
        extra = max(0.0, self.compute_seconds - attributed)
        compute += extra * scale / cores
        network = self.shuffle_bytes / cluster.network_bandwidth
        return launch + compute + network

    def stage_histograms(self) -> list[dict]:
        """Per-stage task-time histograms (p50/p95/max), in stage order."""
        return [stage.histogram() for stage in self.stage_costs]

    def critical_path_seconds(self) -> float:
        """The barrier-model bound: the longest task of every stage.

        Under a barrier schedule stages serialize at shuffle barriers,
        so the sum of per-stage longest tasks bounds its makespan from
        below.  The threaded runner can beat it by overlapping one
        stage's straggler with another stage's work — comparing this
        number against measured wall time is how the harness (E12)
        attributes that win.
        """
        return sum(stage.longest_task_seconds for stage in self.stage_costs)

    def straggler_ratio(self) -> float:
        """Worst per-stage ``longest_task / p50`` over the job's stages.

        1.0 means perfectly balanced stages; a stage with one task
        delayed to 5x the median reports ~5.
        """
        ratios = [
            stage.longest_task_seconds / stage.p50_seconds
            for stage in self.stage_costs
            if stage.p50_seconds > 1e-12
        ]
        return max(ratios) if ratios else 1.0

    def spill_hit_rate(self) -> float:
        """Fraction of off-memory reads answered by the spill tier.

        A read that misses memory either restores from the spill store
        (a spill hit) or falls back to lineage recomputation (a cache
        miss).  1.0 means every evicted block came back from disk; 0.0
        with spills recorded means everything had to be recomputed.
        """
        lookups = self.spill_restores + self.cache_misses
        return self.spill_restores / lookups if lookups else 0.0

    def summary(self) -> str:
        """One-line human-readable counter summary."""
        return (
            f"job {self.job_id} [{self.description}]: "
            f"{self.stages} stages, {self.tasks} tasks, "
            f"{self.shuffles} shuffles "
            f"({self.shuffle_records} records / {self.shuffle_bytes} bytes), "
            f"compute {self.compute_seconds:.4f}s, wall {self.wall_seconds:.4f}s"
        )


class TaskTimer:
    """Times one task, excluding nested timed work.

    Lazy evaluation means a consumer task can trigger an entire upstream
    shuffle inside its own timer; the shuffle's map tasks are timed (and
    recorded as their own stage) by their own timers, so this timer's
    ``own_seconds`` subtracts all nested timed intervals to avoid double
    counting.
    """

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._start = 0.0
        self.nested_seconds = 0.0
        self.own_seconds = 0.0

    def __enter__(self) -> "TaskTimer":
        self._registry._timer_stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self.own_seconds = max(0.0, elapsed - self.nested_seconds)
        stack = self._registry._timer_stack
        stack.pop()
        if stack:
            stack[-1].nested_seconds += elapsed


@dataclass
class TenantCounters:
    """Per-tenant counters on a shared substrate's registry.

    Engine-level counters (stages, shuffles, cache traffic) stay in the
    shared :class:`JobMetrics` stream — RDD lineages execute against the
    view that *built* the data, so attributing them per querying tenant
    would lie whenever tenants share a hosted dataset.  These counters
    are instead recorded at the query/front-door level, where the tenant
    is unambiguous.
    """

    tenant: str
    queries: int = 0
    errors: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    shuffle_reuses: int = 0
    admission_waits: int = 0
    admission_wait_seconds: float = 0.0
    quota_evictions: int = 0
    quota_evicted_bytes: int = 0
    #: Rolling per-query wall latencies (seconds); bounded so a
    #: long-lived serve substrate cannot grow without limit.
    latencies: deque = field(default_factory=lambda: deque(maxlen=4096))

    def latency_percentile(self, fraction: float) -> float:
        return _percentile(sorted(self.latencies), fraction)

    def report(self) -> dict:
        hits, misses = self.plan_cache_hits, self.plan_cache_misses
        lookups = hits + misses
        return {
            "tenant": self.tenant,
            "queries": self.queries,
            "errors": self.errors,
            "plan_cache_hits": hits,
            "plan_cache_misses": misses,
            "plan_cache_hit_rate": hits / lookups if lookups else 0.0,
            "shuffle_reuses": self.shuffle_reuses,
            "admission_waits": self.admission_waits,
            "admission_wait_seconds": self.admission_wait_seconds,
            "quota_evictions": self.quota_evictions,
            "quota_evicted_bytes": self.quota_evicted_bytes,
            "latency_p50_seconds": self.latency_percentile(0.50),
            "latency_p95_seconds": self.latency_percentile(0.95),
        }


@dataclass
class MetricsRegistry:
    """Cumulative metrics for one :class:`~repro.engine.context.EngineContext`.

    The registry keeps the full per-job history plus a running total.  A
    job is opened by the scheduler around each action; nested actions
    (e.g. a ``count`` issued while building a broadcast inside another
    job) merge into the enclosing job.
    """

    total: JobMetrics = field(default_factory=lambda: JobMetrics(job_id=-1, description="total"))
    jobs: list[JobMetrics] = field(default_factory=list)
    #: Per-tenant front-door counters (multi-tenant substrates only;
    #: empty for a classic single-session engine).
    tenants: dict = field(default_factory=dict)
    _active: Optional[JobMetrics] = None
    _next_job_id: int = 0
    _timers: threading.local = field(default_factory=threading.local)
    #: Per-thread "which tenant's query is this thread running" marker
    #: (set by :meth:`tenant_scope`); lets engine-level events recorded
    #: on the driver thread — shuffle reuses, chiefly — attribute to the
    #: tenant even when the reused lineage is owned by another view.
    _tenant_scope: threading.local = field(default_factory=threading.local)
    #: Serializes counter mutation: with a parallel runner, nested
    #: materialization can record stages/shuffles from worker threads
    #: while the driver holds the job open.  Timer stacks stay
    #: per-thread and unlocked.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def _timer_stack(self) -> list:
        """Per-thread timer stack (threaded runners time independently)."""
        stack = getattr(self._timers, "stack", None)
        if stack is None:
            stack = []
            self._timers.stack = stack
        return stack

    def task_timer(self) -> TaskTimer:
        """A context manager timing one task (nested work excluded)."""
        return TaskTimer(self)

    def inflate_task(self, seconds: float) -> None:
        """Add simulated-only compute to the innermost running task.

        Used by baselines whose local kernels would be slower on the
        simulated substrate than the NumPy that executed here (e.g. the
        MLlib workalike's pure-JVM Breeze gemm): the extra time joins the
        task's own time, so stage makespans and skew see it.  Outside any
        task it degrades to plain :meth:`record_compute`.
        """
        stack = self._timer_stack
        if stack:
            stack[-1].nested_seconds -= seconds
        else:
            self.record_compute(seconds)

    @contextmanager
    def job(self, description: str = "") -> Iterator[JobMetrics]:
        """Open a job scope; counters recorded inside attribute to it."""
        if self._active is not None:
            # Nested action: account into the already-active job.
            yield self._active
            return
        metrics = JobMetrics(job_id=self._next_job_id, description=description)
        self._next_job_id += 1
        self._active = metrics
        start = time.perf_counter()
        try:
            yield metrics
        finally:
            with self._lock:
                metrics.wall_seconds = time.perf_counter() - start
                self._active = None
                self.jobs.append(metrics)
                self.total.merge(metrics)

    @property
    def current(self) -> JobMetrics:
        """The active job, or the cumulative total outside any job."""
        return self._active if self._active is not None else self.total

    def record_stage(
        self, num_tasks: int, task_seconds: Optional[list[float]] = None
    ) -> None:
        """Record a stage of ``num_tasks`` tasks.

        ``task_seconds`` carries the per-task compute times; when given,
        the times are also accumulated into ``compute_seconds`` and the
        stage's makespan data is kept for the cost model.
        """
        with self._lock:
            job = self.current
            job.stages += 1
            job.tasks += num_tasks
            if task_seconds:
                total = sum(task_seconds)
                job.compute_seconds += total
                ordered = sorted(task_seconds)
                job.stage_costs.append(
                    StageCost(
                        num_tasks,
                        total,
                        ordered[-1],
                        p50_seconds=_percentile(ordered, 0.50),
                        p95_seconds=_percentile(ordered, 0.95),
                    )
                )
            else:
                job.stage_costs.append(StageCost(num_tasks, 0.0, 0.0))

    def record_shuffle(self, records: int, nbytes: int) -> None:
        """Record one shuffle's measured volume."""
        with self._lock:
            job = self.current
            job.shuffles += 1
            job.shuffle_records += records
            job.shuffle_bytes += nbytes

    def record_compute(self, seconds: float) -> None:
        """Record wall time spent inside user functions."""
        with self._lock:
            self.current.compute_seconds += seconds

    def record_estimated_shuffle(self, nbytes: int) -> None:
        """Record a plan's predicted shuffle volume (at execution time)."""
        with self._lock:
            self.current.estimated_shuffle_bytes += nbytes

    def record_adaptive_decision(self, decision) -> None:
        """Record one runtime re-optimization taken by the adaptive layer."""
        with self._lock:
            self.current.adaptive_decisions.append(decision)

    # -- BlockManager counters ------------------------------------------

    def record_cache_hit(self) -> None:
        """A cached partition read was served from memory."""
        with self._lock:
            self.current.cache_hits += 1

    def record_cache_miss(self) -> None:
        """A cached partition read had to (re)compute its partition."""
        with self._lock:
            self.current.cache_misses += 1

    def record_cache_eviction(self, nbytes: int) -> None:
        """The block manager dropped ``nbytes`` of cached data under pressure."""
        with self._lock:
            self.current.cache_evicted_bytes += nbytes

    def record_shuffle_reuse(self) -> None:
        """An equal shuffle's retained map outputs answered a new shuffle."""
        with self._lock:
            self.current.shuffle_reuses += 1
        tenant = getattr(self._tenant_scope, "name", "")
        if tenant:
            self.record_tenant_shuffle_reuse(tenant)

    # -- Spill-tier counters --------------------------------------------

    def record_spill(self, nbytes: int) -> None:
        """A block left memory for the spill store (``nbytes`` written)."""
        with self._lock:
            self.current.spilled_bytes += nbytes

    def record_spill_restore(
        self, nbytes: int, stall_seconds: float = 0.0
    ) -> None:
        """A spilled block came back into memory.

        ``stall_seconds`` is the time the consumer spent blocked waiting
        for the restore (zero when the prefetcher did the work ahead of
        demand).
        """
        with self._lock:
            job = self.current
            job.restored_bytes += nbytes
            job.spill_restores += 1
            job.restore_stall_seconds += stall_seconds

    def record_restore_stall(self, seconds: float) -> None:
        """A consumer blocked ``seconds`` waiting on an in-flight restore."""
        with self._lock:
            self.current.restore_stall_seconds += seconds

    def record_prefetch_hit(self) -> None:
        """A read was served from a block the prefetcher restored."""
        with self._lock:
            self.current.prefetch_hits += 1

    def record_task_retry(self) -> None:
        """A task was re-executed after a transient failure."""
        with self._lock:
            self.current.task_retries += 1

    # -- Fused-kernel cache counters ------------------------------------

    def record_kernel_cache_hit(self) -> None:
        """A fused chain reused an already-compiled kernel."""
        with self._lock:
            self.current.kernel_cache_hits += 1

    def record_kernel_cache_miss(self) -> None:
        """A fused chain's generated source was compiled fresh."""
        with self._lock:
            self.current.kernel_cache_misses += 1

    def record_kernel_input(self, batched: bool) -> None:
        """A fused kernel ran over one partition: a tile batch or records."""
        with self._lock:
            if batched:
                self.current.kernel_batch_inputs += 1
            else:
                self.current.kernel_record_inputs += 1

    # -- Per-tenant counters --------------------------------------------

    @contextmanager
    def tenant_scope(self, tenant: str) -> Iterator[None]:
        """Mark this thread as running ``tenant``'s query.

        Engine events that cannot see the tenant through their lineage
        (a reused shuffle whose data another view owns, typically the
        shared-dataset loader) attribute to the scoped tenant instead.
        Thread-local, so concurrent tenants on other threads are
        unaffected; work handed to pool threads inside the scope stays
        unattributed (the global counters still see it).
        """
        previous = getattr(self._tenant_scope, "name", "")
        self._tenant_scope.name = tenant
        try:
            yield
        finally:
            self._tenant_scope.name = previous

    def tenant(self, name: str) -> TenantCounters:
        """The (lazily created) counter block for one tenant."""
        with self._lock:
            counters = self.tenants.get(name)
            if counters is None:
                counters = TenantCounters(tenant=name)
                self.tenants[name] = counters
            return counters

    def record_tenant_query(
        self, tenant: str, wall_seconds: float, error: bool = False
    ) -> None:
        """One front-door query finished for ``tenant``."""
        counters = self.tenant(tenant)
        with self._lock:
            counters.queries += 1
            if error:
                counters.errors += 1
            else:
                counters.latencies.append(wall_seconds)

    def record_tenant_plan_cache(self, tenant: str, hit: bool) -> None:
        """A compile for ``tenant`` hit (or missed) the shared plan cache."""
        counters = self.tenant(tenant)
        with self._lock:
            if hit:
                counters.plan_cache_hits += 1
            else:
                counters.plan_cache_misses += 1

    def record_tenant_shuffle_reuse(self, tenant: str, count: int = 1) -> None:
        """``tenant``'s query was answered partly by retained shuffle outputs."""
        counters = self.tenant(tenant)
        with self._lock:
            counters.shuffle_reuses += count

    def record_tenant_admission_wait(self, tenant: str, seconds: float) -> None:
        """``tenant`` queued ``seconds`` at the admission gate."""
        counters = self.tenant(tenant)
        with self._lock:
            counters.admission_waits += 1
            counters.admission_wait_seconds += seconds

    def record_tenant_quota_eviction(self, tenant: str, nbytes: int) -> None:
        """``tenant`` evicted ``nbytes`` of its own blocks to stay in quota."""
        counters = self.tenant(tenant)
        with self._lock:
            counters.quota_evictions += 1
            counters.quota_evicted_bytes += nbytes

    def tenant_report(self) -> dict:
        """Per-tenant counter reports, keyed by tenant name."""
        with self._lock:
            return {name: c.report() for name, c in self.tenants.items()}

    def simulated_time(self, cluster: ClusterSpec) -> float:
        """Simulated time of everything recorded so far on ``cluster``."""
        return self.total.simulated_time(cluster)

    def reset(self) -> None:
        """Forget all history (used between benchmark repetitions)."""
        self.total = JobMetrics(job_id=-1, description="total")
        self.jobs.clear()
        self.tenants.clear()
        self._active = None
        self._next_job_id = 0

    def snapshot(self) -> JobMetrics:
        """Copy of the cumulative totals, for before/after deltas."""
        copy = JobMetrics(job_id=self.total.job_id, description=self.total.description)
        copy.merge(self.total)
        return copy

    def delta_since(self, snapshot: JobMetrics) -> JobMetrics:
        """Counters accumulated since ``snapshot`` was taken."""
        delta = JobMetrics(job_id=-1, description="delta")
        delta.merge(self.total)
        delta.stages -= snapshot.stages
        delta.tasks -= snapshot.tasks
        delta.shuffles -= snapshot.shuffles
        delta.shuffle_records -= snapshot.shuffle_records
        delta.shuffle_bytes -= snapshot.shuffle_bytes
        delta.estimated_shuffle_bytes -= snapshot.estimated_shuffle_bytes
        delta.compute_seconds -= snapshot.compute_seconds
        delta.wall_seconds -= snapshot.wall_seconds
        delta.cache_hits -= snapshot.cache_hits
        delta.cache_misses -= snapshot.cache_misses
        delta.cache_evicted_bytes -= snapshot.cache_evicted_bytes
        delta.shuffle_reuses -= snapshot.shuffle_reuses
        delta.spilled_bytes -= snapshot.spilled_bytes
        delta.restored_bytes -= snapshot.restored_bytes
        delta.spill_restores -= snapshot.spill_restores
        delta.prefetch_hits -= snapshot.prefetch_hits
        delta.restore_stall_seconds -= snapshot.restore_stall_seconds
        delta.kernel_cache_hits -= snapshot.kernel_cache_hits
        delta.kernel_cache_misses -= snapshot.kernel_cache_misses
        delta.kernel_batch_inputs -= snapshot.kernel_batch_inputs
        delta.kernel_record_inputs -= snapshot.kernel_record_inputs
        delta.task_retries -= snapshot.task_retries
        delta.stage_costs = delta.stage_costs[len(snapshot.stage_costs):]
        delta.adaptive_decisions = delta.adaptive_decisions[
            len(snapshot.adaptive_decisions):
        ]
        return delta
