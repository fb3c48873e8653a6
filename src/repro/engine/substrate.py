"""The shared execution substrate under every session of one engine.

The paper's premise is one array-programming surface serving many
analysts over one cluster.  Before this module, each
:class:`~repro.core.session.SacSession` owned a private
:class:`~repro.engine.context.EngineContext` — its own thread pool,
block manager, plan caches, and metrics — so N clients meant N isolated
engines with zero reuse.  The substrate splits that world in two:

* :class:`EngineSubstrate` owns everything **expensive and shareable**:
  the persistent task-runner pool, the byte-accounted
  :class:`~repro.engine.block_manager.BlockManager` (now with per-tenant
  quotas layered on its LRU/spill tier), the spill store, the
  :class:`~repro.engine.metrics.MetricsRegistry` (which labels
  per-tenant counters), the shared compiled-plan caches
  (:class:`PlanCacheGroup`), the global RDD id counter (so two tenants'
  cached partitions can never collide in the shared store), and the
  :class:`~repro.engine.scheduler.FairJobScheduler` admission gate.

* :class:`~repro.engine.context.EngineContext` becomes a **cheap
  per-tenant view** over a substrate: it carries only per-session
  wrappers (scheduler, adaptive manager, tenant-scoped block view) — a
  few small Python objects, no threads, no storage.

A context constructed the historical way (``EngineContext()``) builds a
private substrate and behaves byte-identically to the pre-split engine;
``substrate.view(...)`` or ``context.view(...)`` attaches additional
tenants to the same substrate.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Optional

from .block_manager import BlockManager
from .cluster import PAPER_CLUSTER, ClusterSpec
from .metrics import MetricsRegistry
from .scheduler import FairJobScheduler, TaskRunner, resolve_runner


def parse_memory_limit(text: str | int | None) -> Optional[int]:
    """A byte count from ``"64M"``-style size strings (K/M/G suffixes).

    Accepts plain ints (passed through), decimal strings, and strings
    with a K/M/G/KB/MB/GB suffix (powers of 1024, case-insensitive).
    ``None`` and ``""`` mean no limit.
    """
    if text is None:
        return None
    if isinstance(text, int):
        return text
    cleaned = text.strip().lower()
    if not cleaned:
        return None
    multiplier = 1
    for suffix, factor in (("kb", 1024), ("mb", 1024**2), ("gb", 1024**3),
                           ("k", 1024), ("m", 1024**2), ("g", 1024**3),
                           ("b", 1)):
        if cleaned.endswith(suffix):
            cleaned = cleaned[: -len(suffix)].strip()
            multiplier = factor
            break
    try:
        return int(float(cleaned) * multiplier)
    except ValueError:
        raise ValueError(
            f"cannot parse memory limit {text!r} (expected e.g. 67108864, "
            f"'64M', '2G')"
        ) from None


class LruCache:
    """Bounded LRU cache with hit/miss/eviction counters (thread-safe).

    Used for the substrate's parse and plan caches: iterative workloads
    (k-means, matrix factorization) compile the same handful of queries
    every step, so these stay tiny in practice; the bound only protects
    long-lived substrates that stream many distinct queries.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __getitem__(self, key):
        """Raw (non-counting, non-reordering) access, for introspection."""
        return self._data[key]

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class PlanCacheGroup:
    """The compiled-query caches, shared by every session of a substrate.

    Three tiers (the keys carry binding signatures and planner-option
    signatures, plus a per-session build profile, so same-shaped
    sessions share hits without ever serving a stale or foreign entry):

    * ``parse``: query text -> AST (parsing is pure).
    * ``plan``: front-half key -> (parsed, normalized) pair.
    * ``passes``: identity-level key -> (finished ``PlanState``, the
      ``Plan`` lowered from it if that carries a CSE reuse fingerprint,
      else ``None``).  Same storage *objects* required, so a
      cross-session hit only happens for sessions querying the same
      hosted datasets — exactly when sharing the whole plan is sound.
    """

    def __init__(self):
        self.parse = LruCache(512)
        self.plan = LruCache(256)
        self.passes = LruCache(256)

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            "parse_cache": self.parse.stats(),
            "plan_cache": self.plan.stats(),
            "pass_cache": self.passes.stats(),
        }


class EngineSubstrate:
    """Everything one simulated cluster shares across its tenants.

    Owns the persistent runner pool, the block manager (and spill
    store), the metrics registry, the shared plan caches, the global
    RDD id counter, and the admission gate.  Contexts attach as views
    via :meth:`view`; a substrate-owning context's ``close()`` (or a
    ``with`` block) releases the pool and the spill store.

    Args mirror the resource arguments of ``EngineContext``.
    ``memory_limit`` is the one memory knob: it caps resident block
    bytes and spills what does not fit (to ``spill_store``, else a
    private ``LocalDiskStore``).  Parallelism is the cluster's
    (:meth:`ClusterSpec.default_parallelism`).
    """

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        runner: Optional[TaskRunner | str] = None,
        memory_limit: Optional[int | str] = None,
        spill_store: Any = None,
        spill_prefetch: bool = True,
        max_concurrent_jobs: Optional[int] = None,
    ):
        self.cluster = cluster
        self.metrics = MetricsRegistry()
        self.runner = resolve_runner(runner, cluster)
        # Bind the runner to this substrate's metrics so task retries
        # land in the right JobMetrics.
        self.runner.metrics = self.metrics
        # Out-of-core tier: ``memory_limit`` both caps resident block
        # bytes and turns eviction into spill-to-store.  Without it,
        # nothing spill-related exists and the block store is unbounded.
        self.memory_limit = parse_memory_limit(memory_limit)
        self._owns_spill_store = False
        if self.memory_limit is not None:
            if spill_store is None:
                from ..storage.objectstore import LocalDiskStore

                spill_store = LocalDiskStore(
                    os.environ.get("REPRO_SPILL_DIR") or None
                )
                self._owns_spill_store = True
        self.block_manager = BlockManager(
            self.metrics, self.memory_limit, spill_store=spill_store,
            prefetch=spill_prefetch,
        )
        # Spill/restore paths pass through the runner's fault points
        # (``inject_failure("restore", ...)``).
        self.block_manager.runner = self.runner
        self.admission = FairJobScheduler(
            max_concurrent_jobs, metrics=self.metrics
        )
        self.plan_caches = PlanCacheGroup()
        self._rdd_counter = 0
        self._rdd_counter_lock = threading.Lock()
        self._view_counter = 0
        self._closed = False

    # ------------------------------------------------------------------

    @property
    def default_parallelism(self) -> int:
        return self.cluster.default_parallelism()

    def register_rdd(self) -> int:
        """The next substrate-global RDD id.

        Global (not per-view) so two tenants' cached partitions and
        shuffle namespaces can never collide in the shared block store.
        """
        with self._rdd_counter_lock:
            self._rdd_counter += 1
            return self._rdd_counter

    def view(
        self,
        tenant: Optional[str] = None,
        *,
        quota: Optional[int | str] = None,
        reservation: Optional[int | str] = None,
    ):
        """A per-tenant :class:`~repro.engine.context.EngineContext` view.

        ``tenant`` of ``None`` allocates a fresh ``tenant-N`` name;
        pass ``""`` explicitly to attach to the unlabeled default
        tenant (no quota bookkeeping, raw block manager).  ``quota``
        caps the tenant's resident block bytes; ``reservation``
        protects them from other tenants' evictions.
        """
        from .context import EngineContext

        if tenant is None:
            with self._rdd_counter_lock:
                self._view_counter += 1
                tenant = f"tenant-{self._view_counter}"
        return EngineContext(
            substrate=self, tenant=tenant, quota=quota,
            reservation=reservation,
        )

    # ------------------------------------------------------------------

    def tenant_report(self) -> dict[str, dict[str, Any]]:
        """Per-tenant counters merged with block-manager usage."""
        report = self.metrics.tenant_report()
        for tenant, usage in self.block_manager.tenant_usage().items():
            report.setdefault(tenant, {}).update(usage)
        return report

    def close(self) -> None:
        """Release the executor pool, the prefetch pool, and (when this
        substrate created it) the spill store.  Idempotent."""
        self.runner.close()
        self.block_manager.close()
        if self._owns_spill_store:
            store = self.block_manager.spill_store
            if store is not None:
                store.close()
        self._closed = True

    def __enter__(self) -> "EngineSubstrate":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EngineSubstrate(cluster={self.cluster!r}, "
            f"runner={type(self.runner).__name__}, "
            f"views={self._view_counter})"
        )
