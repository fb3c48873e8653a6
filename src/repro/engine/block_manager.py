"""Byte-accounted storage for cached partitions and shuffle outputs.

Spark's executors keep cached partitions in a memory-bounded block store
and shuffle map outputs in files that later stages — of *any* job — can
re-read.  This module is the engine's in-process analog:

* **Partition blocks** (``RDD.cache``): each cached partition is stored
  with its estimated serialized size (via the same accountant that
  prices shuffles, so cached bytes and shuffled bytes are comparable).
  When a ``memory_budget`` is configured (the substrate passes its
  ``memory_limit``) or a tenant has a quota, least-recently-used blocks
  are evicted until the store fits: spilled when a spill store is
  attached (below), else dropped, and a dropped partition is
  transparently recomputed on next access.  Hits, misses, and evicted
  bytes are reported through
  :class:`~repro.engine.metrics.MetricsRegistry`.

* **Shuffle outputs** (per lineage, :meth:`RDD.mark_shuffle_reuse`,
  which the planner's CSE pass calls): a finished shuffle of a marked
  lineage registers its reduce-side output under ``(parent RDD id,
  partitioner, aggregator)``.  A later shuffle of the *same* parent
  through an equal partitioner (aggregator matched by identity; plain
  re-partitions match each other) reuses the retained output instead of
  moving the data again — Spark's shuffle files surviving across jobs.
  The registry keeps the most recent :data:`SHUFFLE_REGISTRY_LIMIT`
  outputs; dropping an entry only forgets the reuse opportunity (the
  owning RDD keeps its own reference), so the bound is safe.  Unmarked
  lineages never register: a reused shuffle records no stage, no tasks,
  and no bytes — correct for the cluster being simulated, but not
  comparable against runs without it.

* **The spill tier** (``spill_store=``, wired up by the session's
  ``memory_limit``): with an object store attached, eviction serializes
  victims to it instead of dropping them — numpywren's "Infinite RAM"
  shape, where storage is the memory abstraction and RAM is a cache over
  it.  Reads transparently restore spilled blocks (each restore consumes
  its spill object, so ``restored_bytes <= spilled_bytes`` holds by
  construction) before falling back to lineage recomputation, and a
  small background pool prefetches the spilled inputs of an about-to-run
  stage into free budget headroom.  Wide-dependency outputs live here
  too, as *managed* partitions addressed through :class:`ManagedOutput`
  handles, so a job's entire resident working set is governed by one
  budget.  Without a spill store, behavior is byte-identical to the
  historical drop-for-recompute cache.

Whether a tier exists is decided **here and nowhere else**: the engine's
wide nodes ask for an output handle (:meth:`BlockManager.new_output`)
and a shuffle asks for a bucket store (:meth:`BlockManager.bucket_store`)
and each gets the in-memory or the spillable implementation of the same
small interface.

All operations are thread-safe: with a parallel runner, cache reads and
writes arrive concurrently from pool workers.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .metrics import MetricsRegistry
from .partitioner import Partitioner
from .scheduler import InjectedFatalTaskError
from .serialization import RecordSizeAccountant
from .shuffle import Aggregator, _BucketSpiller, _MemoryBuckets

#: Retained shuffle outputs per context; oldest entries are forgotten.
SHUFFLE_REGISTRY_LIMIT = 32

#: Workers restoring spilled blocks ahead of demand.
PREFETCH_POOL_SIZE = 2


class SpillLostError(RuntimeError):
    """A managed partition is gone from both memory and the spill tier.

    Raised to the owning RDD, which falls back to lineage recomputation
    (re-running the shuffle that produced the output).  Callers outside
    the engine never see this.
    """


@dataclass
class _Block:
    records: list
    nbytes: int
    #: Set while the block owes its presence to the prefetcher; the
    #: first demand read clears it and counts a prefetch hit.
    prefetched: bool = field(default=False, compare=False)


@dataclass
class _ShuffleEntry:
    partitioner: Partitioner
    aggregator: Optional[Aggregator]
    output: Any  # list of partitions, or a ManagedOutput handle


class ListOutput(list):
    """A wide node's output partitions as a plain driver-side list.

    What :meth:`BlockManager.new_output` hands out without a spill tier:
    the same ``put`` / ``stats`` / ``owner`` surface as
    :class:`ManagedOutput`, over ordinary list storage.
    """

    #: No block-manager namespace: nothing to prefetch or drop.
    owner = None

    def __init__(self, partitions: Iterable[Any] = (), stats: Any = None):
        super().__init__(partitions)
        #: The producing shuffle's map-output histogram, when it had one.
        self.stats = stats

    def put(self, split: int, records: list) -> None:
        self[split] = records


class ManagedOutput:
    """List-like handle over partitions owned by the BlockManager.

    Wide-dependency outputs (shuffle/cogroup results) live in the block
    manager under an *owner* namespace so the memory budget governs them
    and eviction can spill them.  The handle indexes like
    the plain ``list`` it replaces; a read of a partition that was lost
    from both tiers raises :class:`SpillLostError`, which the owning RDD
    answers with lineage recomputation.
    """

    __slots__ = ("_blocks", "owner", "num_partitions", "stats", "_tenant")

    def __init__(
        self,
        blocks: "BlockManager",
        owner: str,
        num_partitions: int,
        stats: Any = None,
        tenant: str = "",
    ):
        self._blocks = blocks
        self.owner = owner
        self.num_partitions = num_partitions
        #: Mirrors ``ListOutput.stats`` so reuse/adaptive consumers
        #: that do ``getattr(output, "stats", None)`` keep working.
        self.stats = stats
        self._tenant = tenant

    def __len__(self) -> int:
        return self.num_partitions

    def put(self, split: int, records: list) -> None:
        """Admit one produced partition under the budget (may spill)."""
        self._blocks.put_managed(
            self.owner, split, records, tenant=self._tenant
        )

    def __getitem__(self, split: int) -> list:
        if isinstance(split, slice):  # pragma: no cover - defensive
            return [self[i] for i in range(*split.indices(self.num_partitions))]
        if split < 0:
            split += self.num_partitions
        if not 0 <= split < self.num_partitions:
            raise IndexError(split)
        return self._blocks.get_managed(self.owner, split)

    def __iter__(self):
        for split in range(self.num_partitions):
            yield self[split]

    def __repr__(self) -> str:
        return (
            f"ManagedOutput(owner={self.owner!r}, "
            f"num_partitions={self.num_partitions})"
        )


class BlockManager:
    """LRU, byte-accounted store for cached partitions + shuffle outputs.

    Args:
        metrics: registry receiving hit/miss/eviction/spill counters.
        memory_budget: cap on total resident block bytes; ``None``
            (default) stores everything.  The substrate fills it from
            its ``memory_limit``.
        spill_store: object store backing the spill tier
            (:mod:`repro.storage.objectstore`); ``None`` drops evicted
            blocks for recompute.
        prefetch: allow background restoration of spilled blocks ahead
            of stage dispatch (only meaningful with a spill store).
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        memory_budget: Optional[int] = None,
        spill_store: Any = None,
        prefetch: bool = True,
    ):
        if memory_budget is not None and memory_budget < 0:
            raise ValueError(
                f"memory_budget must be non-negative, got {memory_budget}"
            )
        self._metrics = metrics
        self._budget = memory_budget
        self._store = spill_store
        self._prefetch_enabled = prefetch
        #: Set by the context so restore/spill paths pass through the
        #: runner's fault points (``inject_failure("restore", ...)``).
        self.runner: Any = None
        self._blocks: "OrderedDict[tuple[str, int], _Block]" = OrderedDict()
        self._bytes = 0
        #: Spilled blocks: key -> accounted nbytes (spill-time size, so
        #: spill/restore counters pair up exactly).
        self._spilled: "dict[tuple[str, int], int]" = {}
        #: In-flight restores; readers wait on the event instead of
        #: restoring (and deleting the spill object) twice.
        self._restoring: "dict[tuple[str, int], threading.Event]" = {}
        self._prefetch_pool: Optional[ThreadPoolExecutor] = None
        self._accountant = RecordSizeAccountant()
        self._shuffles: "OrderedDict[int, list[_ShuffleEntry]]" = OrderedDict()
        self._num_shuffle_entries = 0
        #: Tenancy layer (all empty — and all paths byte-identical to the
        #: single-tenant store — unless a :class:`TenantBlockView` writes
        #: through this manager): namespace -> owning tenant, per-tenant
        #: resident bytes, and per-tenant quota/reservation configs.
        self._ns_tenant: "dict[str, str]" = {}
        self._tenant_bytes: "dict[str, int]" = {}
        self._tenant_quota: "dict[str, int]" = {}
        self._tenant_reservation: "dict[str, int]" = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Partition blocks
    # ------------------------------------------------------------------

    @property
    def spill_enabled(self) -> bool:
        """Whether eviction spills to an object store (vs. dropping)."""
        return self._store is not None

    @property
    def spill_store(self) -> Any:
        return self._store

    @property
    def cached_bytes(self) -> int:
        """Estimated bytes currently held resident in memory."""
        with self._lock:
            return self._bytes

    @property
    def spilled_bytes_held(self) -> int:
        """Estimated bytes currently parked in the spill tier."""
        with self._lock:
            return sum(self._spilled.values())

    @property
    def num_blocks(self) -> int:
        with self._lock:
            return len(self._blocks)

    @staticmethod
    def cache_namespace(rdd_id: int) -> str:
        return f"rdd/{rdd_id}"

    def _spill_key(self, key: tuple[str, int]) -> str:
        return f"spill/{key[0]}/{key[1]}"

    def get(self, rdd_id: int, split: int) -> Optional[list]:
        """The cached records of one partition, or ``None`` (miss).

        With a spill tier, a block evicted to the store is transparently
        restored (and its spill object consumed) before ``None`` — i.e.
        lineage recomputation — is the answer.
        """
        key = (self.cache_namespace(rdd_id), split)
        return self._lookup(key, count_hits=True)

    def put(
        self, rdd_id: int, split: int, records: list, tenant: str = ""
    ) -> bool:
        """Store one computed partition; returns whether it was kept.

        A partition larger than the whole budget — or than the writing
        tenant's quota — is not stored at all (evicting everything else
        for it would thrash); the caller just keeps its computed list
        for the current read.
        """
        nbytes = self._accountant.batch_size(records)
        key = (self.cache_namespace(rdd_id), split)
        with self._lock:
            if key in self._blocks:
                # A racing worker computed the same split; keep the first
                # copy so concurrent readers share one list.
                return True
            if self._budget is not None and nbytes > self._budget:
                return False
            if tenant:
                self._ns_tenant.setdefault(key[0], tenant)
                quota = self._tenant_quota.get(tenant)
                if quota is not None and nbytes > quota:
                    return False
            self._drop_spilled(key)
            self._blocks[key] = _Block(records, nbytes)
            self._bytes += nbytes
            self._account_add(key, nbytes)
            self._evict_to_budget(protect=key)
            return True

    def _lookup(
        self, key: tuple[str, int], count_hits: bool
    ) -> Optional[list]:
        """Resolve ``key`` across memory and the spill tier.

        Returns the records, restoring from the spill store when needed,
        or ``None`` after recording a cache miss (the lineage-recompute
        signal).  A reader arriving while another thread restores the
        same key waits for that restore instead of duplicating it; the
        wait is accounted as restore stall time.
        """
        while True:
            with self._lock:
                block = self._blocks.get(key)
                if block is not None:
                    self._blocks.move_to_end(key)
                    if count_hits:
                        self._metrics.record_cache_hit()
                    if block.prefetched:
                        block.prefetched = False
                        self._metrics.record_prefetch_hit()
                        self._schedule_next_prefetch(key[0], key[1])
                    return block.records
                event = self._restoring.get(key)
                if event is None:
                    nbytes = self._spilled.get(key)
                    if nbytes is None or self._store is None:
                        self._metrics.record_cache_miss()
                        return None
                    event = threading.Event()
                    self._restoring[key] = event
                    restore_here = True
                else:
                    restore_here = False
            if restore_here:
                return self._finish_restore(key, nbytes, event, prefetch=False)
            start = time.perf_counter()
            event.wait()
            self._metrics.record_restore_stall(time.perf_counter() - start)
            # Loop: the restore landed the block (hit next round) or
            # declared it lost (miss next round).

    def _finish_restore(
        self,
        key: tuple[str, int],
        nbytes: int,
        event: threading.Event,
        prefetch: bool,
    ) -> Optional[list]:
        """Read one spill object back into memory (consuming it)."""
        records: Optional[list] = None
        start = time.perf_counter()
        try:
            try:
                runner = self.runner
                if runner is not None:
                    runner.fault_point("restore", key[1])
                records = pickle.loads(self._store.get(self._spill_key(key)))
            except InjectedFatalTaskError:
                raise
            except Exception:
                # Missing, truncated, or corrupt spill object (or an
                # injected transient restore fault): the block is lost;
                # the caller falls back to lineage recomputation.
                records = None
            stall = time.perf_counter() - start
            with self._lock:
                # An unpersist (or a drop) while the object was read
                # forgot the block: a reader still gets the records, but
                # they must not land again.
                dropped = key not in self._spilled
                self._drop_spilled(key)
                if records is None:
                    if not prefetch:
                        self._metrics.record_cache_miss()
                    return None
                if dropped:
                    return None if prefetch else records
                if key not in self._blocks:
                    self._blocks[key] = _Block(
                        records, nbytes, prefetched=prefetch
                    )
                    self._bytes += nbytes
                    self._account_add(key, nbytes)
                    self._evict_to_budget(protect=key)
                self._metrics.record_spill_restore(
                    nbytes, 0.0 if prefetch else stall
                )
                if not prefetch:
                    # A demand restore means the reader outran the
                    # window; pull the next partition ahead of it.
                    self._schedule_next_prefetch(key[0], key[1])
                return records
        finally:
            with self._lock:
                self._restoring.pop(key, None)
            event.set()

    def _drop_spilled(self, key: tuple[str, int]) -> None:
        """Forget a spill entry and its stored object (lock held)."""
        if self._spilled.pop(key, None) is not None and self._store is not None:
            try:
                self._store.delete(self._spill_key(key))
            except Exception:  # pragma: no cover - best effort
                pass

    def _account_add(self, key: tuple[str, int], nbytes: int) -> None:
        """Charge a now-resident block to its owning tenant (lock held)."""
        tenant = self._ns_tenant.get(key[0], "")
        if tenant:
            self._tenant_bytes[tenant] = (
                self._tenant_bytes.get(tenant, 0) + nbytes
            )

    def _account_sub(self, key: tuple[str, int], nbytes: int) -> None:
        """Release a no-longer-resident block's tenant charge (lock held)."""
        tenant = self._ns_tenant.get(key[0], "")
        if tenant:
            self._tenant_bytes[tenant] = (
                self._tenant_bytes.get(tenant, 0) - nbytes
            )

    def _evict_one(self, victim: tuple[str, int]) -> int:
        """Evict (and possibly spill) one resident block (lock held)."""
        block = self._blocks.pop(victim)
        self._bytes -= block.nbytes
        self._account_sub(victim, block.nbytes)
        self._metrics.record_cache_eviction(block.nbytes)
        if self._store is not None:
            self._spill(victim, block)
        return block.nbytes

    def _may_evict(self, key: tuple[str, int], evictor: str) -> bool:
        """Whether ``evictor``'s memory pressure may evict ``key``.

        A tenant may always evict its own blocks and unowned blocks;
        another tenant's block only while that tenant stays at or above
        its configured residency reservation (lock held).
        """
        owner = self._ns_tenant.get(key[0], "")
        if not owner or owner == evictor:
            return True
        reservation = self._tenant_reservation.get(owner, 0)
        if not reservation:
            return True
        nbytes = self._blocks[key].nbytes
        return self._tenant_bytes.get(owner, 0) - nbytes >= reservation

    def _evict_to_budget(self, protect: tuple[str, int]) -> None:
        """Evict LRU blocks until quota and budget hold (lock held).

        Two passes: first the writing tenant's own quota (its own LRU
        blocks pay, counted as quota evictions), then the global budget,
        where other tenants' blocks are victims only down to their
        reservations.  With no tenants configured both passes reduce to
        the historical single-budget LRU sweep, victim-for-victim.
        """
        tenant = self._ns_tenant.get(protect[0], "")
        quota = self._tenant_quota.get(tenant) if tenant else None
        if quota is not None:
            while self._tenant_bytes.get(tenant, 0) > quota:
                victim = next(
                    (
                        key
                        for key in self._blocks
                        if key != protect
                        and self._ns_tenant.get(key[0], "") == tenant
                    ),
                    None,
                )
                if victim is None:
                    break
                freed = self._evict_one(victim)
                self._metrics.record_tenant_quota_eviction(tenant, freed)
        if self._budget is None:
            return
        while self._bytes > self._budget:
            victim = next(
                (
                    key
                    for key in self._blocks
                    if key != protect and self._may_evict(key, tenant)
                ),
                None,
            )
            if victim is None:
                return
            self._evict_one(victim)

    def _spill(self, key: tuple[str, int], block: _Block) -> None:
        """Serialize an evicted block to the spill store (lock held)."""
        try:
            runner = self.runner
            if runner is not None:
                runner.fault_point("spill", key[1])
            data = pickle.dumps(block.records, protocol=pickle.HIGHEST_PROTOCOL)
        except InjectedFatalTaskError:
            raise
        except Exception:
            # Unpicklable records or an injected transient spill fault:
            # degrade to the historical drop-for-recompute eviction.
            return
        self._store.put(self._spill_key(key), data)
        self._spilled[key] = block.nbytes
        self._metrics.record_spill(block.nbytes)

    def contains(self, rdd_id: int, split: int) -> bool:
        key = (self.cache_namespace(rdd_id), split)
        with self._lock:
            return key in self._blocks or key in self._spilled

    def contains_all(self, rdd_id: int, num_splits: int) -> bool:
        """Whether every partition of an RDD is cached or restorable."""
        with self._lock:
            ns = self.cache_namespace(rdd_id)
            return all(
                (ns, split) in self._blocks or (ns, split) in self._spilled
                for split in range(num_splits)
            )

    def remove_rdd(self, rdd_id: int) -> int:
        """Drop all blocks of one RDD (``unpersist``); returns bytes freed.

        An explicit unpersist is not memory pressure, so the freed bytes
        are *not* counted as evictions.  Spilled partitions are deleted
        from the store as well.
        """
        with self._lock:
            ns = self.cache_namespace(rdd_id)
            victims = [key for key in self._blocks if key[0] == ns]
            freed = 0
            for key in victims:
                nbytes = self._blocks.pop(key).nbytes
                self._account_sub(key, nbytes)
                freed += nbytes
            self._bytes -= freed
            for key in [key for key in self._spilled if key[0] == ns]:
                self._drop_spilled(key)
            self._ns_tenant.pop(ns, None)
            return freed

    # ------------------------------------------------------------------
    # Managed outputs (wide-dependency results under the budget)
    # ------------------------------------------------------------------

    def new_output(
        self, owner: str, num_partitions: int, stats: Any = None,
        tenant: str = "",
    ) -> Any:
        """A fresh output handle for a wide node's partitions.

        This is where "where does a wide node's output live" is decided:
        a :class:`ManagedOutput` under the budget (spillable) with a
        spill tier, a plain :class:`ListOutput` without one — while the
        job that produces the node is still running just as afterwards.
        Producers ``put(split, records)`` each partition as it is made;
        readers index the handle like a list.  Any previous generation
        under the same owner is dropped first, so re-materialization
        after a lost spill starts clean.
        """
        if not self.spill_enabled:
            return ListOutput([None] * num_partitions, stats)
        self.drop_managed(owner)
        return ManagedOutput(self, owner, num_partitions, stats, tenant)

    def bucket_store(self, label: str) -> Any:
        """Where one shuffle's map-output buckets wait for its reduce side.

        In memory without a spill tier; streamed through the spill store
        (``shufmap/<label>/...`` objects) with one.
        """
        if not self.spill_enabled:
            return _MemoryBuckets()
        return _BucketSpiller(self._store, self._metrics, label)

    def put_managed(
        self, owner: str, split: int, records: list, tenant: str = ""
    ) -> int:
        """Adopt one produced partition under ``owner``; returns its bytes.

        Unlike :meth:`put`, an over-budget (or over-quota) partition is
        still admitted (it is the data's only copy); it stays as the one
        protected resident until the next eviction pass spills it.
        """
        nbytes = self._accountant.batch_size(records)
        key = (owner, split)
        with self._lock:
            if key in self._blocks:
                return self._blocks[key].nbytes
            if tenant:
                self._ns_tenant.setdefault(owner, tenant)
            self._drop_spilled(key)
            self._blocks[key] = _Block(records, nbytes)
            self._bytes += nbytes
            self._account_add(key, nbytes)
            self._evict_to_budget(protect=key)
            return nbytes

    def get_managed(self, owner: str, split: int) -> list:
        """One managed partition, restoring from the spill tier if needed.

        Raises :class:`SpillLostError` (after recording a cache miss)
        when the partition is gone from both tiers — the owner's cue to
        recompute its lineage.
        """
        records = self._lookup((owner, split), count_hits=False)
        if records is None:
            raise SpillLostError(f"managed partition {owner}[{split}] lost")
        return records

    def drop_managed(self, owner: str) -> None:
        """Forget every partition of ``owner`` (memory and spill tier)."""
        with self._lock:
            victims = [key for key in self._blocks if key[0] == owner]
            for key in victims:
                nbytes = self._blocks.pop(key).nbytes
                self._account_sub(key, nbytes)
                self._bytes -= nbytes
            for key in [key for key in self._spilled if key[0] == owner]:
                self._drop_spilled(key)
            self._ns_tenant.pop(owner, None)

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------

    def prefetch_namespace(self, ns: str) -> None:
        """Restore ``ns``'s spilled partitions ahead of demand.

        Submitted to a small background pool.  A prefetch restore may
        evict least-recently-used resident blocks to make room — exactly
        like a demand restore — but never a block that was itself
        prefetched and not yet read, so the memory cap bounds the
        prefetch window instead of letting it thrash itself.  Partitions
        are swept in split order, matching the order the next stage's
        tasks read them.  No-op without a spill store or with prefetch
        disabled.
        """
        if self._store is None or not self._prefetch_enabled:
            return
        with self._lock:
            keys = sorted(key for key in self._spilled if key[0] == ns)
            if not keys:
                return
            pool = self._pool()
        for key in keys:
            try:
                pool.submit(self._prefetch_one, key)
            except RuntimeError:  # pool shut down mid-close
                return

    def prefetch_namespaces(self, namespaces: Iterable[str]) -> None:
        """:meth:`prefetch_namespace` over a lazily computed sequence.

        ``namespaces`` is not consumed when nothing could be restored,
        so callers may pass a generator that walks a lineage.
        """
        if self._store is None or not self._prefetch_enabled:
            return
        for ns in namespaces:
            self.prefetch_namespace(ns)

    def prefetch_rdd_blocks(self, rdd_id: int) -> None:
        """Prefetch an RDD's spilled cached partitions."""
        self.prefetch_namespace(self.cache_namespace(rdd_id))

    def _pool(self) -> ThreadPoolExecutor:
        """The lazily created prefetch pool (lock held)."""
        pool = self._prefetch_pool
        if pool is None:
            pool = self._prefetch_pool = ThreadPoolExecutor(
                max_workers=PREFETCH_POOL_SIZE,
                thread_name_prefix="spill-prefetch",
            )
        return pool

    def _schedule_next_prefetch(self, ns: str, split: int) -> None:
        """Keep the prefetch window rolling just ahead of the reader.

        Called (lock held) when a reader consumes a prefetched block or
        pays for a demand restore at ``split``: the next spilled
        partition of the same namespace is pulled in ahead of it.  A
        stage-boundary sweep alone stalls — its first few restores fill
        the window and the rest skip — so demand progress is what
        advances the window.
        """
        if self._store is None or not self._prefetch_enabled:
            return
        best: Optional[tuple[str, int]] = None
        for key in self._spilled:
            if key[0] == ns and key[1] > split and (
                best is None or key[1] < best[1]
            ):
                best = key
        if best is None:
            return
        try:
            self._pool().submit(self._prefetch_one, best)
        except RuntimeError:  # pool shut down mid-close
            pass

    def _prefetch_one(self, key: tuple[str, int]) -> None:
        with self._lock:
            if key in self._blocks or key in self._restoring:
                return
            nbytes = self._spilled.get(key)
            if nbytes is None:
                return
            if self._budget is not None and self._bytes + nbytes > self._budget:
                # Room must come from eviction.  Only LRU blocks *ahead*
                # of the unread prefetch window may pay for it; once the
                # window itself would be the victim, stop — demand reads
                # will drain it and free the space.
                need = self._bytes + nbytes - self._budget
                freeable = 0
                for resident in self._blocks.values():
                    if resident.prefetched:
                        break
                    freeable += resident.nbytes
                    if freeable >= need:
                        break
                if freeable < need:
                    return  # window full; demand read will restore it
            event = threading.Event()
            self._restoring[key] = event
        try:
            self._finish_restore(key, nbytes, event, prefetch=True)
        except Exception:  # pragma: no cover - pool thread must not die
            pass

    # ------------------------------------------------------------------
    # Shuffle output reuse
    # ------------------------------------------------------------------

    def lookup_shuffle(
        self,
        parent_id: int,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
    ) -> Optional[Any]:
        """A retained equal shuffle's output, or ``None``.

        Equality means: same map-side parent, equal partitioner, and the
        *same* aggregator object (combining functions cannot be compared
        structurally) — or no aggregator on either side, which makes all
        plain re-partitions of a parent interchangeable.  Only lineages
        the planner's CSE pass marked (:meth:`RDD.mark_shuffle_reuse`)
        ask.
        """
        with self._lock:
            for entry in self._shuffles.get(parent_id, ()):
                if entry.aggregator is aggregator and entry.partitioner == partitioner:
                    self._metrics.record_shuffle_reuse()
                    return entry.output
            return None

    def register_shuffle(
        self,
        parent_id: int,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
        output: Any,
    ) -> None:
        """Retain a finished shuffle's output for later equal shuffles
        (of marked lineages only, like :meth:`lookup_shuffle`)."""
        with self._lock:
            self._shuffles.setdefault(parent_id, []).append(
                _ShuffleEntry(partitioner, aggregator, output)
            )
            self._num_shuffle_entries += 1
            while self._num_shuffle_entries > SHUFFLE_REGISTRY_LIMIT:
                oldest_parent = next(iter(self._shuffles))
                entries = self._shuffles[oldest_parent]
                entries.pop(0)
                if not entries:
                    del self._shuffles[oldest_parent]
                self._num_shuffle_entries -= 1

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------

    def configure_tenant(
        self,
        tenant: str,
        quota: Optional[int] = None,
        reservation: int = 0,
    ) -> None:
        """Set one tenant's residency quota and/or reservation.

        ``quota`` caps the tenant's resident block bytes (its own LRU
        blocks are evicted — spilled, with a store — to stay under it);
        ``reservation`` is the residency floor other tenants' evictions
        may not push it below.  A reservation larger than the quota is
        rejected (it could never be honored and would wedge eviction).
        """
        if quota is not None and reservation > quota:
            raise ValueError(
                f"tenant {tenant!r}: reservation {reservation} exceeds "
                f"quota {quota}"
            )
        with self._lock:
            if quota is not None:
                self._tenant_quota[tenant] = quota
            if reservation:
                self._tenant_reservation[tenant] = reservation
            self._tenant_bytes.setdefault(tenant, 0)

    def view(self, tenant: str) -> "TenantBlockView":
        """A write-labeling facade attributing new blocks to ``tenant``."""
        return TenantBlockView(self, tenant)

    def tenant_usage(self) -> dict[str, dict[str, Any]]:
        """Per-tenant residency usage against quota and reservation."""
        with self._lock:
            tenants = (
                set(self._tenant_bytes)
                | set(self._tenant_quota)
                | set(self._tenant_reservation)
            )
            return {
                tenant: {
                    "resident_bytes": self._tenant_bytes.get(tenant, 0),
                    "quota_bytes": self._tenant_quota.get(tenant),
                    "reservation_bytes": self._tenant_reservation.get(tenant, 0),
                }
                for tenant in tenants
            }

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Forget everything (blocks, spill tier, retained shuffles).

        Tenant quota/reservation *configs* survive (they are policy, not
        data); the per-tenant byte accounting resets with the blocks.
        """
        with self._lock:
            self._blocks.clear()
            self._bytes = 0
            for key in list(self._spilled):
                self._drop_spilled(key)
            self._shuffles.clear()
            self._num_shuffle_entries = 0
            self._ns_tenant.clear()
            self._tenant_bytes = {tenant: 0 for tenant in self._tenant_bytes}

    def close(self) -> None:
        """Stop the prefetch pool (the store is closed by its owner)."""
        pool = self._prefetch_pool
        if pool is not None:
            pool.shutdown(wait=True)
            self._prefetch_pool = None

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"BlockManager(blocks={len(self._blocks)}, "
                f"bytes={self._bytes}, budget={self._budget}, "
                f"spilled={len(self._spilled)}, "
                f"shuffles={self._num_shuffle_entries})"
            )


class TenantBlockView:
    """One tenant's handle on a shared :class:`BlockManager`.

    Reads, containment checks, prefetch, and shuffle-reuse registration
    pass straight through (the store is shared — cross-tenant reuse of
    registered shuffle outputs is the point); *writes* are labeled with
    the tenant so quota accounting and reservation-aware eviction know
    who owns each namespace.  Attribute access falls through to the
    underlying manager, so the view is drop-in wherever a
    ``BlockManager`` is expected.
    """

    def __init__(self, manager: BlockManager, tenant: str):
        self._manager = manager
        self.tenant = tenant

    def put(self, rdd_id: int, split: int, records: list) -> bool:
        return self._manager.put(rdd_id, split, records, tenant=self.tenant)

    def new_output(
        self, owner: str, num_partitions: int, stats: Any = None
    ) -> Any:
        return self._manager.new_output(
            owner, num_partitions, stats, tenant=self.tenant
        )

    def view(self, tenant: str) -> "TenantBlockView":
        return self._manager.view(tenant)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._manager, name)

    def __repr__(self) -> str:
        return f"TenantBlockView(tenant={self.tenant!r}, {self._manager!r})"
