"""Ablation E14 — rule 5.1's generated kernel against hand-written NumPy.

An iterative elementwise smoothing-style chain (``x' = 0.5x + 0.1x^2``,
re-run for ``STEPS`` steps) over deliberately tiny tiles: 6400 tiles
per step, the regime where per-tile overhead would dominate the ufunc
work.  Rule 5.1 runs it as one generated NumPy kernel per partition,
once per stacked batch of tiles; the reference is the same expression
written in NumPy over the whole dense matrix.  The report gives
``fused_over_numpy_x``, the fused chain's wall clock over NumPy's, as
the distance the engine still pays for distribution.

Both arms must produce byte-identical arrays (an elementwise ufunc is
exact per element however its input is batched), and the chain compiles
its kernel at most once: every later step is a kernel-cache hit.  The
arms are measured *interleaved* (NumPy, fused, NumPy, fused, ...)
taking each arm's best round, so host-level interference lands on both.
"""

import gc
import time

from repro import SacSession
from repro.engine import BENCH_CLUSTER
from repro.planner import RULE_PRESERVE_TILING
from repro.workloads import dense_uniform

#: Tiny tiles on a mid-size matrix: 80x80 = 6400 tiles per step.
TILE = 3
N = 240
PARTS = 2
STEPS = 4
ROUNDS = 8

#: A contraction map, so iterating it keeps values bounded (no drift
#: into overflow, which would change ufunc timing mid-benchmark).
SMOOTH = "tiled(n,m)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- X ]"


def _fused_round(session, x0):
    start = time.perf_counter()
    x = x0
    for _ in range(STEPS):
        x = session.run(SMOOTH, X=x, n=N, m=N).materialize()
    return time.perf_counter() - start, x.to_numpy()


def _numpy_round(x0):
    start = time.perf_counter()
    x = x0
    for _ in range(STEPS):
        x = 0.5 * x + 0.1 * x * x
    return time.perf_counter() - start, x


def test_fused_smoothing_against_numpy(measure, capsys):
    """E14: the fused chain's wall clock over NumPy's, byte-identical."""
    record, _run_measured = measure
    session = SacSession(cluster=BENCH_CLUSTER, tile_size=TILE)
    dense = dense_uniform(N, N, seed=14)
    x0 = session.tiled(dense, num_partitions=PARTS).materialize()
    assert session.compile(SMOOTH, X=x0, n=N, m=N).plan.rule == (
        RULE_PRESERVE_TILING
    )
    before = session.engine.metrics.snapshot()
    best = {"numpy": None, "fused kernel": None}
    results = {}
    gc.collect()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for arm in best:
                if arm == "numpy":
                    wall, results[arm] = _numpy_round(dense)
                else:
                    wall, results[arm] = _fused_round(session, x0)
                if best[arm] is None or wall < best[arm]:
                    best[arm] = wall
    finally:
        gc.enable()
    delta = session.engine.metrics.delta_since(before)

    assert results["fused kernel"].tobytes() == results["numpy"].tobytes()
    # The chain compiles once; past the first lowering every step is a
    # kernel-cache hit.
    assert delta.kernel_cache_misses <= 1
    assert delta.kernel_cache_hits >= ROUNDS * STEPS - 1

    counters = {
        "stages": delta.stages,
        "tasks": delta.tasks,
        "shuffles": delta.shuffles,
        "shuffle_records": delta.shuffle_records,
        "shuffle_bytes": delta.shuffle_bytes,
        "kernel_cache_hits": delta.kernel_cache_hits,
        "kernel_cache_misses": delta.kernel_cache_misses,
    }
    sim = delta.simulated_time(BENCH_CLUSTER) / ROUNDS
    record(
        "ablation-fusion", "fused kernel", N, best["fused kernel"], sim,
        delta.shuffle_bytes // ROUNDS, counters,
    )
    record("ablation-fusion", "numpy", N, best["numpy"], 0.0, 0)
    ratio = best["fused kernel"] / best["numpy"]
    with capsys.disabled():
        print(
            f"\nE14 fused_over_numpy_x {ratio:.1f} (fused "
            f"{best['fused kernel']:.4f}s, numpy {best['numpy']:.4f}s "
            f"for {STEPS} steps)"
        )
