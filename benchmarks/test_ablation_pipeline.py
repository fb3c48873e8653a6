"""Ablation E12 — overlapped tasks vs the barrier schedule (Fig 4.C chain).

A barrier schedule runs one stage at a time: every task of a stage must
finish before any task of the next starts, so its makespan is at least
the sum over stages of each stage's longest task —
``JobMetrics.critical_path_seconds()``, the run's own *barrier-model
bound*.  Every job here is a (stage, partition) task graph; the serial
runner walks it one task at a time (and can never beat that bound), the
threaded runner fires each task as soon as the outputs it actually reads
have landed, so sibling branches — the two map sides of every join, the
independent shuffles of the factorization chain — overlap and the wall
clock drops *below* the bound.

This experiment makes the difference measurable on wall-clock by
injecting a deterministic straggler: partition 0 of every shuffle-map
stage sleeps far past the (also injected) median task time, mimicking
the slow-node tail the paper's cluster runs absorb.  Both arms run the
same one-iteration matrix-factorization step (Fig 4.C) and record
byte-identical shuffle/stage counters; only the number of tasks in
flight differs.  The report prints the straggler ratio and the
critical-path length next to the wall clock, so the makespan win is
attributable to overlapped stragglers rather than measurement noise.
"""

import time

from repro import SacSession
from repro.engine import SerialTaskRunner, ThreadedTaskRunner
from repro.linalg import sac_factorization_step
from repro.workloads import factor_matrix, rating_matrix

TILE = 25
N = 100
RANK = 25
ROUNDS = 3
#: Injected per-task floor — the "median" task time.
BASE_DELAY = 0.01
#: Extra sleep for partition 0 of every shuffle-map stage (~25x the
#: measured median task — a hard straggler).
STRAGGLER_EXTRA = 0.25

EXACT = ("stages", "tasks", "shuffles", "shuffle_records", "shuffle_bytes",
         "task_retries")


def _session(runner):
    session = SacSession(tile_size=TILE, runner=runner)
    r = session.tiled(rating_matrix(N, density=0.10, seed=N)).materialize()
    p = session.tiled(factor_matrix(N, RANK, seed=N + 1)).materialize()
    q = session.tiled(factor_matrix(N, RANK, seed=N + 2)).materialize()
    # Inject after materializing the inputs so setup is not delayed:
    # a uniform floor on every task kind, plus the map straggler.
    for kind in ("map", "reduce", "combine", "merge", "drain", "result"):
        session.engine.runner.inject_delay(kind, None, BASE_DELAY)
    session.engine.runner.inject_delay("map", 0, STRAGGLER_EXTRA)
    return session, r, p, q


def _run_arm(runner, rounds):
    """Best-of-``rounds`` wall clock plus counters for one runner."""
    session, r, p, q = _session(runner)
    try:
        best = None
        for _ in range(rounds):
            snapshot = session.engine.metrics.snapshot()
            start = time.perf_counter()
            sac_factorization_step(session, r, p, q)
            wall = time.perf_counter() - start
            delta = session.engine.metrics.delta_since(snapshot)
            if best is None or wall < best[0]:
                counters = {name: getattr(delta, name) for name in EXACT}
                counters["critical_path_seconds"] = round(
                    delta.critical_path_seconds(), 3
                )
                counters["straggler_ratio"] = round(delta.straggler_ratio(), 2)
                counters["max_task_seconds"] = round(
                    max(h["max_seconds"] for h in delta.stage_histograms()), 3
                )
                best = (
                    wall, delta.simulated_time(session.engine.cluster),
                    delta.shuffle_bytes, counters,
                )
        return best
    finally:
        session.engine.close()


def test_overlapped_tasks_beat_the_barrier_model_bound(measure):
    """E12: with 8 tasks in flight the straggler is hidden — the wall
    clock is >=1.4x below the run's own barrier-model bound; walked
    serially the same step can only be slower than that bound, at
    identical counters."""
    record, _run_measured = measure
    wall, sim, shuffled, threaded = _run_arm(
        ThreadedTaskRunner(max_workers=8), ROUNDS
    )
    bound = threaded["critical_path_seconds"]
    serial_wall, _, _, serial = _run_arm(SerialTaskRunner(), 1)
    record("ablation-pipeline", "barrier-model bound", N, bound, sim,
           shuffled, threaded)
    record("ablation-pipeline", "overlapped tasks", N, wall, sim, shuffled,
           threaded)
    # Same work, byte for byte: only the schedule (and hence the
    # measured timings) may differ.
    assert {k: serial[k] for k in EXACT} == {k: threaded[k] for k in EXACT}
    assert serial_wall >= serial["critical_path_seconds"]
    # The injected straggler is visible in the histograms...
    assert threaded["straggler_ratio"] >= 3.0
    assert threaded["max_task_seconds"] >= BASE_DELAY + STRAGGLER_EXTRA
    # ... and overlapping hides it.
    print(
        f"\nstraggler makespan: barrier-model bound {bound:.3f}s, "
        f"overlapped {wall:.3f}s ({bound / wall:.2f}x), "
        f"serial walk {serial_wall:.3f}s"
    )
    assert bound / wall >= 1.4, (
        f"overlap {bound / wall:.2f}x under injected straggler "
        f"(bound {bound:.3f}s vs wall {wall:.3f}s)"
    )
