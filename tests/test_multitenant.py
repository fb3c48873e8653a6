"""Multi-tenant substrate: views, isolation, quotas, fair admission.

The substrate split (:mod:`repro.engine.substrate`) makes
:class:`~repro.engine.EngineContext` a cheap per-tenant view over one
shared :class:`~repro.engine.EngineSubstrate`.  These tests pin the
contract:

* per-session overrides never leak (the S1 regression: attaching a
  session to an engine used to mutate that engine in place),
* N sessions on one substrate compute byte-identical results to N
  isolated sessions (the differential isolation bar),
* a tenant at its quota evicts its *own* blocks and cannot push another
  tenant below its reservation,
* the fair scheduler bounds concurrency and grants round-robin across
  tenants.
"""

import dataclasses
import inspect
import pathlib
import re
import threading
import time

import numpy as np
import pytest

from repro import SacSession
from repro.engine import (
    BlockManager,
    EngineContext,
    EngineSubstrate,
    FairJobScheduler,
    MetricsRegistry,
    TINY_CLUSTER,
)
from repro.engine.serialization import RecordSizeAccountant

from .test_pipelined_scheduler import MULTIPLY


# ----------------------------------------------------------------------
# S1 regression: per-session overrides must not mutate a shared engine
# ----------------------------------------------------------------------


def test_sessions_do_not_mutate_shared_engine_flags():
    engine = EngineContext(cluster=TINY_CLUSTER)
    plain = SacSession(engine=engine)
    scoped = SacSession(engine=engine, tenant="t1", quota="1M")
    # Without an override a session runs on the engine it was given...
    assert plain.engine is engine
    # ...with one it gets its own view over the same substrate...
    assert scoped.engine is not engine
    assert scoped.engine.substrate is engine.substrate
    assert scoped.engine.tenant == scoped.tenant == "t1"
    assert scoped.engine.adaptive is not engine.adaptive
    assert engine.substrate.block_manager.tenant_usage()["t1"][
        "quota_bytes"
    ] == 2**20
    # ...and the original engine is untouched.
    assert engine.tenant == ""
    assert engine.block_manager is engine.substrate.block_manager
    engine.close()


def test_opposite_flag_sessions_both_honored_at_run_time():
    rng = np.random.default_rng(5)
    engine = EngineContext(cluster=TINY_CLUSTER)
    s_roomy = SacSession(engine=engine, tile_size=10, tenant="roomy")
    s_tight = SacSession(
        engine=engine, tile_size=10, tenant="tight", quota=1
    )
    data = rng.uniform(size=(20, 20))
    A1, B1 = s_roomy.tiled(data), s_roomy.tiled(data.T)
    A2, B2 = s_tight.tiled(data), s_tight.tiled(data.T)
    r1 = s_roomy.run(MULTIPLY, A=A1, B=B1, n=20, m=20).to_numpy()
    r2 = s_tight.run(MULTIPLY, A=A2, B=B2, n=20, m=20).to_numpy()
    np.testing.assert_allclose(r1, data @ data.T, rtol=1e-10)
    np.testing.assert_allclose(r2, data @ data.T, rtol=1e-10)
    # Each quota held where its session put it.
    usage = engine.substrate.block_manager.tenant_usage()
    assert usage.get("roomy", {}).get("quota_bytes") is None
    assert usage["tight"]["quota_bytes"] == 1
    assert usage["tight"]["resident_bytes"] <= 1
    assert engine.tenant == ""
    engine.close()


# ----------------------------------------------------------------------
# Differential isolation: shared substrate == isolated sessions
# ----------------------------------------------------------------------


def _tenant_inputs(num_tenants, size=20):
    rng = np.random.default_rng(42)
    return [
        (rng.uniform(size=(size, size)), rng.uniform(size=(size, size)))
        for _ in range(num_tenants)
    ]


def _run_isolated(inputs):
    results = []
    for a, b in inputs:
        session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
        A, B = session.tiled(a), session.tiled(b)
        n = a.shape[0]
        out = session.run(MULTIPLY, A=A, B=B, n=n, m=n).to_numpy()
        results.append(out.tobytes())
        session.engine.close()
    return results


def _run_shared(inputs, concurrent):
    substrate = EngineSubstrate(cluster=TINY_CLUSTER)
    sessions = [
        SacSession(
            engine=substrate.view(f"tenant-{i}"), tile_size=10
        )
        for i in range(len(inputs))
    ]
    results = [None] * len(inputs)

    def client(index):
        session = sessions[index]
        a, b = inputs[index]
        A, B = session.tiled(a), session.tiled(b)
        n = a.shape[0]
        out = session.run(MULTIPLY, A=A, B=B, n=n, m=n).to_numpy()
        results[index] = out.tobytes()

    if concurrent:
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(inputs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        for i in range(len(inputs)):
            client(i)
    report = substrate.tenant_report()
    substrate.close()
    return results, report


def test_shared_substrate_matches_isolated_sessions_serial():
    inputs = _tenant_inputs(3)
    isolated = _run_isolated(inputs)
    shared, report = _run_shared(inputs, concurrent=False)
    assert shared == isolated  # byte-identical, tenant for tenant
    # Every tenant's query was counted against its own label.
    assert all(report[f"tenant-{i}"]["queries"] == 1 for i in range(3))


def test_shared_substrate_matches_isolated_sessions_concurrent():
    inputs = _tenant_inputs(3)
    isolated = _run_isolated(inputs)
    shared, _ = _run_shared(inputs, concurrent=True)
    assert shared == isolated


def test_rdd_ids_unique_across_views():
    """Views must draw RDD ids from one substrate-global counter —
    per-view counters would collide in the shared ``rdd/<id>`` block
    namespace."""
    substrate = EngineSubstrate(cluster=TINY_CLUSTER)
    view_a = substrate.view("a")
    view_b = substrate.view("b")
    ids = set()
    for view in (view_a, view_b, view_a, view_b):
        rdd = view.parallelize(range(10), num_partitions=2)
        assert rdd.id not in ids
        ids.add(rdd.id)
    substrate.close()


def test_plan_caches_shared_across_same_shaped_sessions():
    substrate = EngineSubstrate(cluster=TINY_CLUSTER)
    rng = np.random.default_rng(0)
    a, b = rng.uniform(size=(20, 20)), rng.uniform(size=(20, 20))
    first = SacSession(engine=substrate.view("one"), tile_size=10)
    A, B = first.tiled(a), first.tiled(b)
    first.compile(MULTIPLY, A=A, B=B, n=20, m=20)
    hits_before = substrate.plan_caches.plan.hits
    second = SacSession(engine=substrate.view("two"), tile_size=10)
    A2, B2 = second.tiled(a), second.tiled(b)
    second.compile(MULTIPLY, A=A2, B=B2, n=20, m=20)
    assert substrate.plan_caches.plan.hits > hits_before
    report = substrate.tenant_report()
    assert report["two"]["plan_cache_hits"] >= 1
    substrate.close()


def test_profile_keyed_plan_cache_keeps_tile_sizes_apart():
    """Sessions with different build profiles share the cache object but
    must never share entries (a tile-size-10 plan is wrong at 5)."""
    substrate = EngineSubstrate(cluster=TINY_CLUSTER)
    rng = np.random.default_rng(1)
    a, b = rng.uniform(size=(20, 20)), rng.uniform(size=(20, 20))
    coarse = SacSession(engine=substrate.view("c"), tile_size=10)
    fine = SacSession(engine=substrate.view("f"), tile_size=5)
    rc = coarse.run(
        MULTIPLY, A=coarse.tiled(a), B=coarse.tiled(b), n=20, m=20
    ).to_numpy()
    rf = fine.run(
        MULTIPLY, A=fine.tiled(a), B=fine.tiled(b), n=20, m=20
    ).to_numpy()
    np.testing.assert_allclose(rc, a @ b, rtol=1e-10)
    np.testing.assert_allclose(rf, a @ b, rtol=1e-10)
    substrate.close()


# ----------------------------------------------------------------------
# Quotas and reservations in the block store
# ----------------------------------------------------------------------


def _sized_records(nbytes_hint=1):
    """A record batch and its accounted size."""
    records = [(i, float(i)) for i in range(64 * nbytes_hint)]
    return records, RecordSizeAccountant().batch_size(records)


def test_quota_evicts_tenants_own_lru_blocks():
    metrics = MetricsRegistry()
    manager = BlockManager(metrics)
    records, block_bytes = _sized_records()
    manager.configure_tenant("a", quota=2 * block_bytes)
    view_a = manager.view("a")
    view_b = manager.view("b")
    assert view_b.put(100, 0, list(records))
    for split in range(3):  # third block pushes "a" over quota
        assert view_a.put(split, 0, list(records))
    usage = manager.tenant_usage()
    assert usage["a"]["resident_bytes"] <= 2 * block_bytes
    # The victim was a's own oldest block; b is untouched.
    assert manager.get(0, 0) is None
    assert manager.get(2, 0) is not None
    assert manager.get(100, 0) is not None
    report = metrics.tenant_report()
    assert report["a"]["quota_evictions"] == 1
    assert report["a"]["quota_evicted_bytes"] == block_bytes


def test_oversized_block_rejected_by_quota():
    manager = BlockManager(MetricsRegistry())
    records, block_bytes = _sized_records()
    manager.configure_tenant("a", quota=block_bytes - 1)
    assert manager.view("a").put(1, 0, records) is False
    assert manager.tenant_usage()["a"]["resident_bytes"] == 0


def test_reservation_protects_tenant_from_neighbors_pressure():
    metrics = MetricsRegistry()
    records, block_bytes = _sized_records()
    manager = BlockManager(metrics, memory_budget=3 * block_bytes)
    manager.configure_tenant("b", reservation=2 * block_bytes)
    view_a = manager.view("a")
    view_b = manager.view("b")
    for split in range(2):
        assert view_b.put(200 + split, 0, list(records))
    for split in range(3):  # a's writes create the pressure
        view_a.put(split, 0, list(records))
    # b holds exactly its reservation; a's own blocks paid for a's spree.
    usage = manager.tenant_usage()
    assert usage["b"]["resident_bytes"] == 2 * block_bytes
    assert manager.get(200, 0) is not None
    assert manager.get(201, 0) is not None
    assert usage["a"]["resident_bytes"] <= block_bytes


def test_reservation_cannot_exceed_quota():
    manager = BlockManager(MetricsRegistry())
    with pytest.raises(ValueError):
        manager.configure_tenant("a", quota=10, reservation=20)


def test_untenanted_paths_keep_historical_eviction_order():
    """With no tenants configured the two-pass eviction reduces to the
    plain LRU sweep — same victims, same order."""
    records, block_bytes = _sized_records()
    plain = BlockManager(MetricsRegistry(), memory_budget=2 * block_bytes)
    for split in range(3):
        assert plain.put(split, 0, list(records))
    assert plain.get(0, 0) is None      # LRU victim
    assert plain.get(1, 0) is not None
    assert plain.get(2, 0) is not None


# ----------------------------------------------------------------------
# Fair admission
# ----------------------------------------------------------------------


def test_fair_scheduler_bounds_concurrency():
    scheduler = FairJobScheduler(max_concurrent=2)
    running = []
    lock = threading.Lock()

    def job(tenant):
        with scheduler.admit(tenant):
            with lock:
                running.append(tenant)
            time.sleep(0.01)

    threads = [
        threading.Thread(target=job, args=(f"t{i % 3}",)) for i in range(9)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(running) == 9
    assert scheduler.peak_running <= 2
    assert scheduler.stats()["running"] == 0


def test_fair_scheduler_round_robin_across_tenants():
    scheduler = FairJobScheduler(max_concurrent=1)
    order = []
    release = threading.Event()

    def holder():
        with scheduler.admit("holder"):
            release.wait(timeout=5)

    def job(tenant):
        with scheduler.admit(tenant):
            order.append(tenant)

    hold = threading.Thread(target=holder)
    hold.start()
    while scheduler.stats()["running"] == 0:
        time.sleep(0.001)
    threads = []
    # Enqueue deterministically: a, a, then b — round-robin must grant
    # a, b, a, not FIFO's a, a, b.
    for tenant in ("a", "a", "b"):
        thread = threading.Thread(target=job, args=(tenant,))
        thread.start()
        threads.append(thread)
        while scheduler.stats()["waiting"] < len(threads):
            time.sleep(0.001)
    release.set()
    hold.join()
    for thread in threads:
        thread.join()
    assert order == ["a", "b", "a"]


def test_fair_scheduler_reentrant_admission():
    """A job that runs nested jobs (loop programs) must not self-deadlock
    at the gate."""
    scheduler = FairJobScheduler(max_concurrent=1)
    with scheduler.admit("a"):
        with scheduler.admit("a"):
            assert scheduler.stats()["running"] == 1
    assert scheduler.stats()["running"] == 0


def test_fair_scheduler_unbounded_is_noop():
    scheduler = FairJobScheduler()
    with scheduler.admit("a"):
        assert scheduler.stats()["running"] == 0  # fast path: untracked
    assert scheduler.peak_running == 0


def test_fair_scheduler_rejects_zero_cap():
    with pytest.raises(ValueError):
        FairJobScheduler(max_concurrent=0)


def test_admission_wait_lands_in_tenant_metrics():
    metrics = MetricsRegistry()
    scheduler = FairJobScheduler(max_concurrent=1, metrics=metrics)
    started = threading.Event()
    release = threading.Event()

    def holder():
        with scheduler.admit("x"):
            started.set()
            release.wait(timeout=5)

    hold = threading.Thread(target=holder)
    hold.start()
    started.wait(timeout=5)

    def waiter():
        with scheduler.admit("y"):
            pass

    wait_thread = threading.Thread(target=waiter)
    wait_thread.start()
    while scheduler.stats()["waiting"] == 0:
        time.sleep(0.001)
    release.set()
    hold.join()
    wait_thread.join()
    report = metrics.tenant_report()
    assert report["y"]["admission_waits"] == 1
    assert report["y"]["admission_wait_seconds"] > 0


# ----------------------------------------------------------------------
# Environment: two switches, one read site each; the knobs by name
# ----------------------------------------------------------------------


def test_environment_switches_are_exactly_runner_and_spill_dir():
    """Every other default is a constructor argument or a CLI flag.

    ``REPRO_RUNNER`` is the CI axis (``scheduler.resolve_runner``) and
    ``REPRO_SPILL_DIR`` a deployment path (``EngineSubstrate``); a new
    ``REPRO_*`` name anywhere in ``src/``, or a second read of these
    two, has to come through here.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    named, reads = set(), []
    for path in sorted(src.rglob("*.py")):
        for line in path.read_text().splitlines():
            names = re.findall(r"REPRO_[A-Z_]+", line)
            named.update(names)
            if "os.environ" in line or "getenv(" in line:
                reads += [(name, path.name) for name in names]
    assert named == {"REPRO_RUNNER", "REPRO_SPILL_DIR"}
    assert sorted(reads) == [
        ("REPRO_RUNNER", "scheduler.py"), ("REPRO_SPILL_DIR", "substrate.py"),
    ]


def test_configuration_surface_is_pinned():
    """The constructor and option knobs, by name: one can come back (or
    go) only with a diff here.  Adaptive execution is not among them —
    it is how the engine runs; the cluster's thresholds and a strategy
    pin are what keep it from acting."""
    from repro.planner import PlannerOptions
    from repro.serve import QueryService

    def params(fn):
        return [name for name in inspect.signature(fn).parameters if name != "self"]

    assert params(SacSession) == [
        "engine", "cluster", "tile_size", "options", "num_partitions",
        "runner", "memory_limit", "tenant", "quota", "reservation",
    ]
    assert params(EngineContext) == [
        "cluster", "runner", "memory_limit", "spill_store",
        "spill_prefetch", "substrate", "tenant", "quota", "reservation",
        "max_concurrent_jobs",
    ]
    assert params(EngineContext.view) == ["tenant", "quota", "reservation"]
    assert params(EngineSubstrate.view) == ["tenant", "quota", "reservation"]
    assert params(QueryService) == [
        "cluster", "tile_size", "runner", "options", "max_concurrent",
        "quota", "memory_limit",
    ]
    assert [f.name for f in dataclasses.fields(PlannerOptions)] == [
        "strategy", "cse",
    ]
