"""Out-of-core spill tier: differential memory-pressure correctness.

The contract under test: a session given a ``memory_limit`` far smaller
than its working set must produce *byte-identical* results and
shuffle counters to an uncapped run — the spill tier may only change
where bytes live, never what the engine computes or how much data it
shuffles.  Layers of coverage:

* Golden query shapes (the seven of the task-scheduler suite, pinned to
  the same frozen counters) with and without a cap the working set
  exceeds several times over, under the serial and the threaded runner.
* No-cap identity: with no limit configured, no spill machinery exists
  and every spill counter is zero.
* Fault injection: a corrupt/missing spill object degrades to lineage
  recomputation (a cache miss, not a crash); a full spill store raises
  an actionable error.
* Concurrency: multi-threaded put/get/evict never exceeds the cap
  beyond the single protected partition and never double-counts
  eviction bytes.
* Prefetch: spilled blocks restored ahead of demand register prefetch
  hits instead of demand-restore stalls.
"""

import threading
import time

import numpy as np
import pytest

from repro import SacSession
from repro.engine import (
    TINY_CLUSTER,
    Aggregator,
    EngineContext,
    HashPartitioner,
    MetricsRegistry,
    RecordSizeAccountant,
    SerialTaskRunner,
    Shuffle,
    ThreadedTaskRunner,
    TransientTaskError,
    parse_memory_limit,
)
from repro.engine.block_manager import BlockManager, SpillLostError
from repro.engine.rdd import CoGroupedRDD
from repro.planner.planner import PlannerOptions
from repro.storage.objectstore import (
    InMemoryStore,
    LocalDiskStore,
    ObjectNotFoundError,
    SpillStoreFullError,
)

from .test_pipelined_scheduler import (
    GOLDEN_SHAPES, _golden, _run_arm, _run_multiply,
)

#: The memory cap for the differential arms.  The golden shapes' working
#: sets (inputs + shuffle buckets + outputs at tile_size=10) run several
#: times past this, so eviction and restore genuinely exercise the tier.
CAP = 4096


# ----------------------------------------------------------------------
# Differential golden shapes: capped == uncapped, both runners
# ----------------------------------------------------------------------


@GOLDEN_SHAPES
def test_capped_golden_shapes_match_uncapped(name, run, opts):
    """One shuffle, one cogroup: results and shuffle counters (cache and
    spill counters aside — a capped run evicts and restores, an uncapped
    one does neither) are identical whether or not there is a memory
    cap, under either runner."""
    options = PlannerOptions(**opts) if opts else None
    base_result = _run_arm(run, options, SerialTaskRunner())[0]
    for memory_limit in (None, CAP):
        for arm, runner in [
            ("serial", SerialTaskRunner()),
            ("threaded", ThreadedTaskRunner(max_workers=4)),
        ]:
            arm = f"{name}/{'capped' if memory_limit else 'uncapped'}-{arm}"
            result, counters, total = _run_arm(
                run, options, runner, memory_limit
            )
            np.testing.assert_array_equal(result, base_result, err_msg=arm)
            assert counters == _golden(name), arm
            assert total.restored_bytes <= total.spilled_bytes, arm
            if memory_limit is None:
                assert total.spilled_bytes == 0, arm


def test_capped_multiply_actually_spills():
    """The differential suite is not vacuous: the multiply's working set
    overflows the cap, so bytes really move through the spill tier."""
    total = _run_arm(_run_multiply, None, SerialTaskRunner(), CAP)[2]
    assert total.spilled_bytes > 0
    assert total.restored_bytes > 0
    assert total.spill_restores > 0
    assert 0.0 <= total.spill_hit_rate() <= 1.0


def test_no_limit_means_no_spill_machinery():
    """Default sessions carry zero spill state: counters stay zero and
    no store exists, keeping behavior byte-identical to the seed."""
    with SacSession(cluster=TINY_CLUSTER, tile_size=10) as session:
        _run_multiply(session)
        assert not session.engine.block_manager.spill_enabled
        assert session.engine.block_manager.spill_store is None
        total = session.engine.metrics.total
        assert total.spilled_bytes == 0
        assert total.restored_bytes == 0
        assert total.spill_restores == 0
        assert total.prefetch_hits == 0
        assert total.restore_stall_seconds == 0.0


# ----------------------------------------------------------------------
# parse_memory_limit
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        (None, None),
        ("", None),
        (4096, 4096),
        ("4096", 4096),
        ("4k", 4096),
        ("4K", 4096),
        ("64M", 64 * 1024**2),
        ("2g", 2 * 1024**3),
        ("1.5kb", 1536),
        ("100b", 100),
    ],
)
def test_parse_memory_limit(text, expected):
    assert parse_memory_limit(text) == expected


def test_parse_memory_limit_rejects_garbage():
    with pytest.raises(ValueError, match="memory limit"):
        parse_memory_limit("lots")


# ----------------------------------------------------------------------
# Object store backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_store",
    [InMemoryStore, lambda: LocalDiskStore()],
    ids=["memory", "disk"],
)
def test_objectstore_roundtrip(make_store):
    store = make_store()
    try:
        store.put("spill/a/0", b"alpha")
        store.put("spill/a/1", b"beta")
        store.put("spill/b/0", b"gamma")
        assert store.get("spill/a/0") == b"alpha"
        assert store.exists("spill/a/1")
        assert store.size("spill/b/0") == 5
        assert sorted(store.list("spill/a/")) == ["spill/a/0", "spill/a/1"]
        assert store.delete("spill/a/0")
        assert not store.delete("spill/a/0")  # already gone
        assert not store.exists("spill/a/0")
        with pytest.raises(ObjectNotFoundError):
            store.get("spill/a/0")
    finally:
        store.close()


def test_local_disk_store_full_raises_actionable_error(tmp_path):
    store = LocalDiskStore(str(tmp_path), capacity_bytes=10)
    try:
        store.put("k1", b"12345")
        with pytest.raises(SpillStoreFullError) as excinfo:
            store.put("k2", b"123456789")
        message = str(excinfo.value)
        assert "REPRO_SPILL_DIR" in message
        assert "memory" in message.lower()
        # The failed put must not leak partial objects into the store.
        assert not store.exists("k2")
    finally:
        store.close()


def test_local_disk_store_close_removes_private_tempdir():
    import os

    store = LocalDiskStore()
    store.put("x", b"payload")
    root = store.root
    assert os.path.isdir(root)
    store.close()
    assert not os.path.exists(root)


# ----------------------------------------------------------------------
# Fault injection: lost spill objects degrade, full stores fail loudly
# ----------------------------------------------------------------------


def test_injected_restore_failure_falls_back_to_recompute():
    """A spill object that cannot be read back (corrupt/deleted) is a
    cache miss answered by lineage recomputation — never a crash."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), memory_limit=4096
    )
    try:
        rdd = ctx.parallelize(range(600), 16).map(lambda x: x * 3).cache()
        first = rdd.collect()
        assert ctx.metrics.total.spilled_bytes > 0
        misses_before = ctx.metrics.total.cache_misses
        ctx.runner.inject_failure(
            "restore", None, times=None, message="corrupt spill object"
        )
        second = rdd.collect()
        assert second == first
        assert ctx.metrics.total.cache_misses > misses_before
    finally:
        ctx.runner.clear_injections()
        ctx.close()


def test_deleted_spill_object_falls_back_to_recompute():
    """Deleting spill files out from under the engine mid-job (a crashed
    disk, an over-eager tmp cleaner) degrades identically."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), memory_limit=4096
    )
    try:
        rdd = ctx.parallelize(range(600), 16).map(lambda x: x * 3).cache()
        first = rdd.collect()
        store = ctx.block_manager.spill_store
        victims = store.list("spill/")
        assert victims, "expected spilled partitions"
        for key in victims:
            store.delete(key)
        misses_before = ctx.metrics.total.cache_misses
        second = rdd.collect()
        assert second == first
        assert ctx.metrics.total.cache_misses > misses_before
    finally:
        ctx.close()


def test_shuffle_output_restore_failure_recomputes_lineage():
    """A lost *managed* (shuffle output) partition triggers the owning
    RDD's lineage fallback: the shuffle re-runs and the read succeeds."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(), memory_limit=1024
    )
    try:
        rdd = (
            ctx.parallelize(range(800), 8)
            .map(lambda x: (x % 16, x))
            .reduce_by_key(lambda a, b: a + b)
        )
        expected = sorted(rdd.collect())
        # Second read path: fail every restore once; the owner recomputes.
        ctx.runner.inject_failure(
            "restore", None, times=1, message="spill tier hiccup"
        )
        assert sorted(rdd.collect()) == expected
    finally:
        ctx.runner.clear_injections()
        ctx.close()


class _UnreadableOnce(list):
    """A bucket piece whose first read fails (``extend`` iterates it)."""

    failed = False

    def __iter__(self):
        if not self.failed:
            self.failed = True
            raise TransientTaskError("bucket piece unreadable")
        return super().__iter__()


def test_memory_buckets_reread_in_full_after_a_partial_read():
    """The in-memory bucket store keeps the spiller's retry contract: a
    reduce task that fails after reading only some map slots' pieces of
    its bucket finds every piece again when it is retried."""
    ctx = EngineContext(cluster=TINY_CLUSTER, runner=SerialTaskRunner())
    add = lambda a, b: a + b  # noqa: E731
    shuffle = Shuffle(
        ctx.metrics, ctx.runner, HashPartitioner(2),
        Aggregator(lambda v: v, add, add), "t", blocks=ctx.block_manager,
    )
    for slot in range(3):
        records = iter([(key, 10 * slot + key) for key in range(4)])
        shuffle.run_map_slot((slot, 0), records, slot)
    shuffle.finish_map_phase()
    pieces = shuffle._store._slots[(1, 0)]
    pieces[0] = _UnreadableOnce(pieces[0])  # slot 0 reads fine, slot 1 fails
    merged, _seconds = ctx.runner._execute_task(lambda: shuffle.run_reduce(0))
    assert merged == [(0, 30), (2, 36)]
    assert ctx.metrics.total.task_retries == 1


@pytest.mark.parametrize("memory_limit", [None, 1024], ids=["uncapped", "capped"])
def test_three_parent_cogroup_keeps_parent_order_and_drops_scratch(memory_limit):
    """Three parents, the middle one co-partitioned (drained into a
    ``scratch/`` namespace under a cap): each key's value lists are in
    parent order and record order, and no scratch partition survives."""
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(),
        memory_limit=memory_limit,
    )
    try:
        partitioner = HashPartitioner(4)
        data = [[(k % 6, (p, k)) for k in range(60)] for p in range(3)]
        parents = [ctx.parallelize(records, 3) for records in data]
        parents[1] = parents[1].partition_by(partitioner)
        parents[1].count()
        blocks = ctx.block_manager
        blocks_before = blocks.num_blocks
        grouped = dict(CoGroupedRDD(ctx, parents, partitioner).collect())
        assert grouped == {
            key: tuple([v for k, v in records if k == key] for records in data)
            for key in range(6)
        }
        if memory_limit is None:
            assert blocks.num_blocks == blocks_before
        else:
            assert ctx.metrics.total.spilled_bytes > 0
        held = {ns for ns, _split in [*blocks._blocks, *blocks._spilled]}
        assert not [ns for ns in held if ns.startswith("scratch/")]
    finally:
        ctx.close()


def test_full_spill_store_raises_spill_store_full(tmp_path):
    """When the spill store runs out of space mid-eviction the job fails
    with the actionable error, not silent corruption."""
    store = LocalDiskStore(str(tmp_path), capacity_bytes=256)
    ctx = EngineContext(
        cluster=TINY_CLUSTER, runner=SerialTaskRunner(),
        memory_limit=4096, spill_store=store,
    )
    try:
        # The working set overflows the cap by far more than the store's
        # 256 bytes can absorb, so the first spilled block already trips
        # the capacity check.
        rdd = ctx.parallelize(range(4000), 32).map(lambda x: x * 1.5).cache()
        with pytest.raises(SpillStoreFullError, match="REPRO_SPILL_DIR"):
            rdd.collect()
    finally:
        ctx.close()
        store.close()


# ----------------------------------------------------------------------
# Concurrency: the cap holds and accounting balances under threads
# ----------------------------------------------------------------------


def test_concurrent_put_get_evict_holds_cap_and_accounting():
    metrics = MetricsRegistry()
    accountant = RecordSizeAccountant()
    records = [float(i) for i in range(64)]
    block_bytes = accountant.batch_size(records)
    budget = 4 * block_bytes
    manager = BlockManager(
        metrics, memory_budget=budget, spill_store=InMemoryStore(),
        prefetch=False,
    )
    num_threads, per_thread = 8, 12
    overshoot = []
    stop = threading.Event()

    def monitor():
        while not stop.is_set():
            held = manager.cached_bytes
            if held > budget + block_bytes:
                overshoot.append(held)
            time.sleep(0.0005)

    def worker(thread_index):
        rng = np.random.default_rng(thread_index)
        for split in range(per_thread):
            manager.put(thread_index, split, records)
            # Random reads force concurrent restores alongside evictions.
            manager.get(
                int(rng.integers(num_threads)), int(rng.integers(per_thread))
            )

    watcher = threading.Thread(target=monitor)
    watcher.start()
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop.set()
    watcher.join()
    manager.close()

    total = metrics.total
    assert not overshoot, f"cap exceeded: {overshoot} > {budget}"
    # Conservation: every byte ever admitted is either still resident,
    # parked in the spill tier, or was never kept — and each eviction
    # was counted exactly once, as both an eviction and a spill.
    assert total.cache_evicted_bytes == total.spilled_bytes
    assert total.restored_bytes <= total.spilled_bytes
    admitted = total.restored_bytes + num_threads * per_thread * block_bytes
    departed = total.cache_evicted_bytes
    assert admitted - departed == manager.cached_bytes
    assert manager.cached_bytes >= 0
    assert manager.cached_bytes <= budget


def test_managed_oversize_partition_is_admitted_then_spilled():
    """put_managed admits an over-budget partition (it is the only copy)
    as the single protected resident; the next admission spills it."""
    metrics = MetricsRegistry()
    manager = BlockManager(
        metrics, memory_budget=64, spill_store=InMemoryStore(),
        prefetch=False,
    )
    big = [float(i) for i in range(512)]
    manager.put_managed("out/test", 0, big)
    assert manager.cached_bytes > 64  # protected overshoot: the one copy
    manager.put_managed("out/test", 1, [1.0])
    # The oversize block was evicted to the store; both remain readable.
    assert manager.get_managed("out/test", 0) == big
    assert manager.get_managed("out/test", 1) == [1.0]
    manager.close()


def test_get_managed_lost_partition_raises_spill_lost():
    metrics = MetricsRegistry()
    manager = BlockManager(metrics, memory_budget=None, spill_store=None)
    with pytest.raises(SpillLostError):
        manager.get_managed("out/none", 0)
    assert metrics.total.cache_misses == 1
    manager.close()


# ----------------------------------------------------------------------
# Prefetch
# ----------------------------------------------------------------------


def test_prefetch_restores_ahead_of_demand():
    metrics = MetricsRegistry()
    accountant = RecordSizeAccountant()
    records = [float(i) for i in range(64)]
    block_bytes = accountant.batch_size(records)
    manager = BlockManager(
        metrics, memory_budget=3 * block_bytes, spill_store=InMemoryStore(),
    )
    for split in range(6):
        manager.put(1, split, records)
    # Fill memory with a second RDD, pushing rdd 1 fully to the tier...
    for split in range(3):
        manager.put(2, split, records)
    assert manager.spilled_bytes_held >= 3 * block_bytes
    # ...then free that memory and prefetch rdd 1 back into the headroom.
    manager.remove_rdd(2)
    manager.prefetch_rdd_blocks(1)
    deadline = time.time() + 5.0
    while manager.cached_bytes < 3 * block_bytes and time.time() < deadline:
        time.sleep(0.005)
    assert manager.cached_bytes >= 3 * block_bytes, "prefetch never landed"
    hits_before = metrics.total.prefetch_hits
    restored = sum(
        1 for split in range(6) if manager.get(1, split) is not None
    )
    assert restored >= 3
    assert metrics.total.prefetch_hits > hits_before
    manager.close()


def test_prefetch_window_bounded_by_unread_blocks():
    """A prefetch restore may evict LRU residents — like a demand
    restore — but never a block that was itself prefetched and not yet
    read: the budget bounds the window instead of letting it thrash."""
    metrics = MetricsRegistry()
    accountant = RecordSizeAccountant()
    records = [float(i) for i in range(64)]
    block_bytes = accountant.batch_size(records)
    manager = BlockManager(
        metrics, memory_budget=2 * block_bytes, spill_store=InMemoryStore(),
    )
    for split in range(4):
        manager.put(1, split, records)
    assert manager.spilled_bytes_held == 2 * block_bytes  # splits 0, 1

    def _wait_restores(count: int) -> None:
        deadline = time.time() + 5.0
        while metrics.total.spill_restores < count and time.time() < deadline:
            time.sleep(0.005)
        assert metrics.total.spill_restores == count

    # First sweep: splits 0 and 1 come back in, evicting the (unread,
    # never-prefetched) LRU residents 2 and 3 out to the tier.
    manager.prefetch_rdd_blocks(1)
    _wait_restores(2)
    assert manager.cached_bytes <= 2 * block_bytes
    assert manager.spilled_bytes_held == 2 * block_bytes  # now 2 and 3

    # Second sweep: every resident is prefetched-but-unread, so nothing
    # may be evicted for more prefetch — the window is full.
    manager.prefetch_rdd_blocks(1)
    time.sleep(0.2)
    assert metrics.total.spill_restores == 2

    # Reading the window drains it; the next sweep proceeds again.
    assert manager.get(1, 0) is not None
    assert manager.get(1, 1) is not None
    assert metrics.total.prefetch_hits == 2
    manager.prefetch_rdd_blocks(1)
    _wait_restores(4)
    assert manager.cached_bytes <= 2 * block_bytes
