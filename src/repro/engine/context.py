"""The driver-side entry point to the engine (Spark's ``SparkContext``).

Since the substrate split (:mod:`repro.engine.substrate`), a context is
a cheap per-tenant *view*: the expensive shared machinery — runner pool,
block manager, metrics, plan caches, admission gate — lives on an
:class:`~repro.engine.substrate.EngineSubstrate`, and the context
carries only the per-session wrappers built over it (scheduler,
adaptive manager, tenant-scoped block view).  Constructing a context
the historical way builds a private substrate and behaves
byte-identically to the pre-split engine.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Generic, Iterable, Iterator, Optional, TypeVar

from .adaptive import AdaptiveManager
from .cluster import PAPER_CLUSTER, ClusterSpec
from .rdd import RDD, ParallelCollectionRDD, _slice
from .scheduler import DAGScheduler, TaskRunner
from .substrate import EngineSubstrate, parse_memory_limit

__all__ = ["Accumulator", "Broadcast", "EngineContext", "parse_memory_limit"]

T = TypeVar("T")


class Broadcast(Generic[T]):
    """A read-only value shared with every task.

    In-process this is just a reference; it exists so generated plans read
    like their Spark counterparts and so broadcast sizes can be accounted
    if a cost model for driver→executor traffic is ever needed.
    """

    def __init__(self, value: T):
        self._value = value

    @property
    def value(self) -> T:
        return self._value


class Accumulator:
    """A write-only counter tasks add to and the driver reads.

    ``add`` is atomic: with a parallel task runner, tasks on different
    worker threads add concurrently, and an unlocked read-modify-write
    would lose updates.
    """

    def __init__(self, initial: Any, add: Callable[[Any, Any], Any] = lambda a, b: a + b):
        self._value = initial
        self._add = add
        self._lock = threading.Lock()

    def add(self, amount: Any) -> None:
        with self._lock:
            self._value = self._add(self._value, amount)

    @property
    def value(self) -> Any:
        return self._value


class EngineContext:
    """Creates RDDs and runs jobs against a simulated cluster.

    Example::

        ctx = EngineContext()
        rdd = ctx.parallelize(range(100), num_partitions=8)
        total = rdd.map(lambda x: x * x).sum()

    One :class:`~repro.engine.scheduler.TaskRunner` — resolved from the
    ``runner`` argument or the ``REPRO_RUNNER`` environment variable and
    sized from the cluster spec — executes every task of every job
    (shuffle map/reduce tasks, cogroup merges, result tasks), so a
    threaded context keeps one persistent executor pool for its
    lifetime (``close()`` or a ``with`` block shuts it down).

    Pass ``substrate=`` (or call :meth:`view` /
    :meth:`~repro.engine.substrate.EngineSubstrate.view`) to attach this
    context as a tenant view on an existing substrate instead of
    building a private one: the view shares the substrate's pool, block
    store, metrics, and plan caches, but carries its *own* adaptive
    manager and scheduler, so per-session state never leaks across
    sessions.  Adaptive execution is always armed; the cluster's
    ``adaptive_*`` thresholds and a ``PlannerOptions(strategy=)`` pin
    are what keep it from acting.  A named ``tenant`` writes its cached
    blocks through a
    :class:`~repro.engine.block_manager.TenantBlockView`, making it
    subject to its ``quota`` and protected by its ``reservation``.
    """

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        runner: Optional[TaskRunner | str] = None,
        memory_limit: Optional[int | str] = None,
        spill_store: Any = None,
        spill_prefetch: bool = True,
        substrate: Optional[EngineSubstrate] = None,
        tenant: str = "",
        quota: Optional[int | str] = None,
        reservation: Optional[int | str] = None,
        max_concurrent_jobs: Optional[int] = None,
    ):
        if substrate is None:
            substrate = EngineSubstrate(
                cluster=cluster, runner=runner,
                memory_limit=memory_limit, spill_store=spill_store,
                spill_prefetch=spill_prefetch,
                max_concurrent_jobs=max_concurrent_jobs,
            )
        self.substrate = substrate
        self.tenant = tenant
        self.cluster = substrate.cluster
        self.metrics = substrate.metrics
        self.runner = substrate.runner
        self.memory_limit = substrate.memory_limit
        if tenant:
            quota = parse_memory_limit(quota)
            reservation = parse_memory_limit(reservation) or 0
            if quota is not None or reservation:
                substrate.block_manager.configure_tenant(
                    tenant, quota=quota, reservation=reservation
                )
            self.block_manager = substrate.block_manager.view(tenant)
        else:
            # The unlabeled default tenant writes through the raw shared
            # manager — byte-identical to the pre-tenancy store.
            self.block_manager = substrate.block_manager
        self.adaptive = AdaptiveManager(self.cluster, self.metrics)
        self.scheduler = DAGScheduler(
            self.metrics, self.block_manager, self.runner,
            adaptive=self.adaptive,
        )

    # ------------------------------------------------------------------

    @property
    def default_parallelism(self) -> int:
        return self.substrate.default_parallelism

    def partitions_for(self, nbytes: int, items: int) -> int:
        """How many partitions ``items`` records of ``nbytes`` in total
        are cut into: one per ``ClusterSpec.partition_bytes``,
        rounded up, at least one and at most one per record, capped at
        :attr:`default_parallelism`.  Every storage builder without an
        explicit partition count, and the coordinate rule's shuffle
        width, size themselves here, so a small input is a few tasks
        however many cores the simulated cluster has."""
        wanted = math.ceil(nbytes / self.cluster.partition_bytes)
        return max(1, min(wanted, self.default_parallelism, items))

    @property
    def pipeline(self) -> bool:
        """Whether tasks of different stages may overlap (a property of
        the runner: ``False`` under the serial one)."""
        return self.runner.parallel

    def _register_rdd(self) -> int:
        return self.substrate.register_rdd()

    def view(
        self,
        tenant: Optional[str] = None,
        *,
        quota: Optional[int | str] = None,
        reservation: Optional[int | str] = None,
    ) -> "EngineContext":
        """Another context over this context's substrate.

        ``tenant=None`` inherits this view's tenant, so
        ``ctx.view(quota=...)`` re-scopes the same tenant without
        mutating ``ctx``.
        """
        return EngineContext(
            substrate=self.substrate,
            tenant=self.tenant if tenant is None else tenant,
            quota=quota,
            reservation=reservation,
        )

    def close(self) -> None:
        """Release the substrate's executor pool (idempotent; the
        context stays usable for serial work — a threaded runner
        re-spawns its pool lazily if another job runs).  Also stops the
        spill prefetch pool and, when the substrate created the spill
        store, closes it (removing its temp directory).  Closing any
        view closes the shared substrate — multi-tenant owners should
        close the substrate once, not per-view."""
        self.substrate.close()

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def parallelize(
        self, data: Iterable, num_partitions: Optional[int] = None
    ) -> RDD:
        """Distribute an in-memory collection as an RDD."""
        items = list(data)
        count = max(1, min(num_partitions or self.default_parallelism, len(items)))
        return ParallelCollectionRDD(self, _slice(items, count))

    def empty_rdd(self) -> RDD:
        return ParallelCollectionRDD(self, [[]])

    def range(self, start: int, end: int, num_partitions: Optional[int] = None) -> RDD:
        return self.parallelize(range(start, end), num_partitions)

    def broadcast(self, value: T) -> Broadcast[T]:
        return Broadcast(value)

    def accumulator(self, initial: Any = 0) -> Accumulator:
        return Accumulator(initial)

    # ------------------------------------------------------------------

    def run_job(
        self,
        rdd: RDD,
        func: Callable[[Iterator], Any],
        description: str = "",
    ) -> list[Any]:
        """Run ``func`` over every partition of ``rdd`` (one job)."""
        return self.scheduler.run_job(rdd, func, description)

    def simulated_time(self) -> float:
        """Simulated cluster time of everything run on this context."""
        return self.metrics.simulated_time(self.cluster)
