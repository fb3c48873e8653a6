"""Correctness of the session's compiled-query (plan) cache.

The cache keys the parse→normalize front half on (query text, binding
storage signatures) and always re-runs rule dispatch against the live
environment — so a hit must be indistinguishable from a cold compile
except for speed.  These tests pin the invalidation rules (tile shape,
storage class, partitioner), the ``cache=False`` escape hatch, engine
counter parity, and thread safety.
"""

import threading

import numpy as np
import pytest

from repro import SacSession
from repro.engine import TINY_CLUSTER, LruCache
from repro.engine.partitioner import GridPartitioner
from repro.planner import (
    PlannerOptions, RULE_GROUP_BY_JOIN, RULE_TILED_REDUCE,
)
from repro.storage import TiledMatrix

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
RNG = np.random.default_rng(7)


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=10)


def _mats(session, n=30, k=20, m=30, **kwargs):
    a = RNG.uniform(0, 9, size=(n, k))
    b = RNG.uniform(0, 9, size=(k, m))
    return session.tiled(a, **kwargs), session.tiled(b, **kwargs)


def plan_stats(session):
    return session.compile_stats()["plan_cache"]


# ----------------------------------------------------------------------
# Hits and invalidation
# ----------------------------------------------------------------------


def test_identical_recompile_hits(session):
    A, B = _mats(session)
    first = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    assert plan_stats(session) == {
        "size": 1, "hits": 0, "misses": 1, "evictions": 0
    }
    second = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    assert plan_stats(session)["hits"] == 1
    # The front half is shared; the plan itself is re-derived.
    assert second.normalized is first.normalized
    assert second.plan is not first.plan


def test_hit_with_fresh_storages_of_same_shape(session):
    """Iterative loops rebind names to new arrays of the same shape."""
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    A2, B2 = _mats(session)
    compiled = session.compile(MULTIPLY, A=A2, B=B2, n=30, m=30)
    assert plan_stats(session)["hits"] == 1
    # The cached compile must close over the storages passed *now*.
    np.testing.assert_allclose(
        compiled.execute().to_numpy(),
        A2.to_numpy() @ B2.to_numpy(),
        rtol=1e-10,
    )


def test_scalar_value_change_still_hits(session):
    """Scalar values only matter at planning time, which always re-runs."""
    V = session.tiled_vector(np.arange(10.0))
    q = "tiled_vector(n)[ (i, v * c) | (i, v) <- V ]"
    session.compile(q, V=V, n=10, c=2.0)
    compiled = session.compile(q, V=V, n=10, c=3.0)
    assert plan_stats(session)["hits"] == 1
    np.testing.assert_allclose(
        compiled.execute().to_numpy(), np.arange(10.0) * 3.0
    )


def test_miss_on_changed_tile_size(session):
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    A2 = TiledMatrix.from_numpy(session.engine, RNG.uniform(size=(30, 20)), 15)
    B2 = TiledMatrix.from_numpy(session.engine, RNG.uniform(size=(20, 30)), 15)
    session.compile(MULTIPLY, A=A2, B=B2, n=30, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_miss_on_changed_matrix_shape(session):
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    A2, B2 = _mats(session, n=40, k=20, m=30)
    session.compile(MULTIPLY, A=A2, B=B2, n=40, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_miss_on_changed_storage_class(session):
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    a = RNG.uniform(0, 9, size=(30, 20))
    sparse_a = session.sparse_tiled(a)
    session.compile(MULTIPLY, A=sparse_a, B=B, n=30, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_miss_on_changed_partitioner(session):
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    regridded = TiledMatrix(
        A.rows, A.cols, A.tile_size,
        A.tiles.partition_by(GridPartitioner(3, 2, 2)),
    )
    session.compile(MULTIPLY, A=regridded, B=B, n=30, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_miss_on_changed_planner_options(session):
    """Strategy overrides are part of the key — no stale front halves."""
    A, B = _mats(session)
    first = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    assert first.plan.rule == RULE_GROUP_BY_JOIN
    session.options = PlannerOptions(group_by_join=False)
    second = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2
    assert second.plan.rule == RULE_TILED_REDUCE


def test_miss_on_adaptive_toggle(session):
    """Arming/disarming adaptive re-optimization changes the key."""
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    session.engine.adaptive.enabled = not session.engine.adaptive.enabled
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_miss_on_cse_toggle(session):
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    session.options = PlannerOptions(cse=True)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    stats = plan_stats(session)
    assert stats["hits"] == 0 and stats["misses"] == 2


def test_cse_fingerprint_swaps_in_prior_plan(monkeypatch):
    """With CSE on, an identical recompile hands back the same Plan.

    The plan rides on the pass-cache entry, so the warm compile — from
    this session or another tenant's on the same substrate — never
    lowers.  The key carries storage identity, so rebinding a name to a
    *fresh* array of the same shape must still produce a new plan, and
    ``cache=False`` lowers fresh.
    """
    import repro.core.session as session_module

    lowered = []
    real_lower = session_module.lower
    monkeypatch.setattr(
        session_module, "lower",
        lambda state: lowered.append(state) or real_lower(state),
    )
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(cse=True),
    )
    A, B = _mats(session)
    first = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    assert first.plan.fingerprint and len(lowered) == 1
    second = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    other = SacSession(
        engine=session.engine, tile_size=10, options=session.options,
        tenant="other",
    )
    third = other.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    assert second.plan is first.plan and third.plan is first.plan
    assert len(lowered) == 1
    uncached = session.compile(MULTIPLY, A=A, B=B, n=30, m=30, cache=False)
    assert uncached.plan is not first.plan and len(lowered) == 2
    A2, B2 = _mats(session)
    rebound = session.compile(MULTIPLY, A=A2, B=B2, n=30, m=30)
    assert rebound.plan is not first.plan and len(lowered) == 3
    assert set(session.compile_stats()) == {
        "parse_cache", "plan_cache", "pass_cache",
    }


def test_cache_false_bypasses(session):
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30, cache=False)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30, cache=False)
    stats = plan_stats(session)
    assert stats["size"] == 0
    assert stats["hits"] == 0 and stats["misses"] == 0


# ----------------------------------------------------------------------
# Execution parity
# ----------------------------------------------------------------------


def _run_twice(cache: bool):
    session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    a = np.arange(600.0).reshape(30, 20)
    b = np.arange(600.0).reshape(20, 30)
    A, B = session.tiled(a), session.tiled(b)
    results = []
    for _ in range(2):
        compiled = session.compile(MULTIPLY, A=A, B=B, n=30, m=30, cache=cache)
        results.append(compiled.execute().to_numpy())
    total = session.engine.metrics.total
    counters = (
        total.stages, total.tasks, total.shuffles,
        total.shuffle_records, total.shuffle_bytes,
        total.estimated_shuffle_bytes,
    )
    return results, counters


def test_counters_identical_cache_on_and_off():
    """A cache hit changes compile time only — never what executes."""
    on_results, on_counters = _run_twice(cache=True)
    off_results, off_counters = _run_twice(cache=False)
    assert on_counters == off_counters
    for got, want in zip(on_results, off_results):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# Compile-time speedup (the point of the cache)
# ----------------------------------------------------------------------

#: The fig4c factorization-step comprehensions (verbatim from
#: ``ops.multiply_nt`` and ``linalg/factorization.py``): the group-by
#: multiply and the element-wise gradient update re-compiled every
#: iteration.
FIG4C_STEPS = [
    (
        "tiled(n, m)[ ((i,j), +/v) | ((i,k),x) <- A, ((j,kk),y) <- B,"
        " kk == k, let v = x*y, group by (i,j) ]"
    ),
    (
        "tiled(n, k)[ ((i,j), p + gamma * (2.0 * g - lam * p))"
        " | ((i,j),p) <- P, ((ii,jj),g) <- G, ii == i, jj == j ]"
    ),
]


def test_fig4c_step_recompile_5x_faster_with_cache():
    """Acceptance bar: a plan-cache hit beats a full compile >= 5x."""
    import time

    session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    a = RNG.uniform(size=(30, 20))
    env = {
        "A": session.tiled(a), "B": session.tiled(RNG.uniform(size=(30, 20))),
        "P": session.tiled(a), "G": session.tiled(a),
        "n": 30, "m": 30, "k": 20, "gamma": 0.002, "lam": 0.02,
    }

    def best_rate(cache):
        # Best-of-batches guards against scheduler noise in CI.
        best = float("inf")
        for _batch in range(5):
            start = time.perf_counter()
            for query in FIG4C_STEPS:
                for _ in range(20):
                    session.compile(query, env, cache=cache)
            best = min(best, time.perf_counter() - start)
        return best

    session.compile(FIG4C_STEPS[0], env)  # warm both caches
    session.compile(FIG4C_STEPS[1], env)
    uncached = best_rate(False)
    cached = best_rate(True)
    assert uncached / cached >= 5.0, (
        f"plan-cache speedup only {uncached / cached:.1f}x "
        f"({uncached * 1e3:.2f}ms vs {cached * 1e3:.2f}ms per batch)"
    )


# ----------------------------------------------------------------------
# Pass-pipeline reuse (the back-half cache)
# ----------------------------------------------------------------------


def pass_stats(session):
    return session.compile_stats()["pass_cache"]


def test_pass_cache_hits_on_identical_bindings(session):
    A, B = _mats(session)
    env = dict(A=A, B=B, n=30, m=30)
    session.compile(MULTIPLY, env)
    session.compile(MULTIPLY, env)
    stats = pass_stats(session)
    assert stats == {"size": 1, "hits": 1, "misses": 1, "evictions": 0}


def test_pass_cache_misses_on_changed_scalar(session):
    """A decaying step size must never serve a stale pass result.

    The front half matches (scalar signatures carry only the type), so
    this is exactly the case the identity-level key exists for.
    """
    A = session.tiled(RNG.uniform(0, 9, size=(30, 20)))
    B = session.tiled(RNG.uniform(0, 9, size=(30, 20)))
    step = (
        "tiled(n, m)[ ((i,j), a + gamma * b)"
        " | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
    )
    results = {}
    for gamma in (0.5, 0.25):
        compiled = session.compile(step, A=A, B=B, n=30, m=20, gamma=gamma)
        results[gamma] = compiled.execute().to_numpy()
    assert pass_stats(session)["misses"] == 2
    np.testing.assert_allclose(
        results[0.25], A.to_numpy() + 0.25 * B.to_numpy()
    )
    assert not np.allclose(results[0.5], results[0.25])


def test_pass_cache_misses_on_swapped_storage(session):
    """Same shape, different array object: identity gates reuse."""
    A, B = _mats(session)
    A2 = session.tiled(RNG.uniform(0, 9, size=(30, 20)))
    first = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    second = session.compile(MULTIPLY, A=A2, B=B, n=30, m=30)
    assert pass_stats(session)["misses"] == 2
    assert pass_stats(session)["hits"] == 0
    np.testing.assert_allclose(
        second.execute().to_numpy(), A2.to_numpy() @ B.to_numpy()
    )
    np.testing.assert_allclose(
        first.execute().to_numpy(), A.to_numpy() @ B.to_numpy()
    )


def test_pass_cache_distinguishes_scalar_types(session):
    """``1`` and ``True`` hash alike; the typed key keeps them apart."""
    A, B = _mats(session)
    session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
    key_int = session._pass_cache_key(("k",), {"n": 1})
    key_bool = session._pass_cache_key(("k",), {"n": True})
    key_float = session._pass_cache_key(("k",), {"n": 1.0})
    assert len({key_int, key_bool, key_float}) == 3


def test_pass_cache_skips_unhashable_bindings(session):
    assert session._pass_cache_key(("k",), {"n": [1, 2]}) is None


def test_pass_cache_hit_execution_is_byte_identical(session):
    """A back-half hit lowers fresh RDDs: same bytes, same counters."""
    A, B = _mats(session)
    env = dict(A=A, B=B, n=30, m=30)
    first = session.compile(MULTIPLY, env)
    out1 = first.execute()
    r1 = out1.to_numpy()
    c1 = session.engine.metrics.total.shuffle_bytes
    second = session.compile(MULTIPLY, env)
    assert pass_stats(session)["hits"] == 1
    assert second.plan is not first.plan
    out2 = second.execute()
    assert out2.tiles.id != out1.tiles.id  # a fresh lineage, not a reuse
    r2 = out2.to_numpy()
    c2 = session.engine.metrics.total.shuffle_bytes
    assert r1.tobytes() == r2.tobytes()
    assert c2 - c1 == c1  # second run shuffled exactly as many bytes


# ----------------------------------------------------------------------
# Thread safety
# ----------------------------------------------------------------------


def test_threaded_compiles_are_safe():
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=10, runner="threads"
    )
    A, B = _mats(session)
    expected = A.to_numpy() @ B.to_numpy()
    errors = []

    def worker():
        try:
            compiled = session.compile(MULTIPLY, A=A, B=B, n=30, m=30)
            np.testing.assert_allclose(
                compiled.execute().to_numpy(), expected, rtol=1e-10
            )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = plan_stats(session)
    assert stats["hits"] + stats["misses"] == 8
    assert stats["misses"] >= 1
    session.close()


# ----------------------------------------------------------------------
# The LRU itself
# ----------------------------------------------------------------------


def test_lru_evicts_oldest_and_counts():
    cache = LruCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats() == {
        "size": 2, "hits": 3, "misses": 1, "evictions": 1
    }


def test_parse_cache_is_bounded():
    session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    V = session.tiled_vector(np.ones(4))
    for i in range(600):
        session.compile(f"+/[ v + {i} | (i,v) <- V ]", V=V)
    stats = session.compile_stats()
    assert stats["parse_cache"]["size"] <= 512
    assert stats["parse_cache"]["evictions"] >= 88
    assert stats["plan_cache"]["size"] <= 256
