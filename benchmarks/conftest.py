"""Shared benchmark harness: result collection and paper-style tables.

Each benchmark records one :class:`Row` per (experiment, system, size):
wall-clock seconds (median of the timed rounds), *simulated* cluster
seconds from the engine's cost model, and measured shuffle volume.  At
the end of the session the rows are printed as one table per experiment,
with the speedup ratios the paper reports alongside the paper's expected
shape, so the output can be compared to Figure 4 directly.

On a multi-core host the benchmarks default to the threaded task runner
(``REPRO_RUNNER=threads``) so stages genuinely overlap; on one core
threads only add overhead, so the serial runner stays the default.
Either way the recorded counters and simulated times are identical —
only wall-clock changes.  Export ``REPRO_RUNNER`` explicitly to
override.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import pytest

from repro.engine import BENCH_CLUSTER

if (os.cpu_count() or 1) > 1:
    os.environ.setdefault("REPRO_RUNNER", "threads")


@dataclass
class Row:
    experiment: str
    system: str
    size: int
    wall_seconds: float
    sim_seconds: float
    shuffle_mb: float
    counters: dict = field(default_factory=dict)


_ROWS: list[Row] = []

#: What the paper's Figure 4 shows, printed under each table.
PAPER_EXPECTATIONS = {
    "fig4a-addition": (
        "Paper (Fig 4.A): SAC slightly faster than MLlib for addition; "
        "both scale linearly."
    ),
    "fig4b-multiplication": (
        "Paper (Fig 4.B): SAC join+group-by up to 3x SLOWER than MLlib; "
        "SAC GBJ up to 6x FASTER than MLlib."
    ),
    "fig4b-multiplication-skewed": (
        "Extension (E10): zipfian tile skew concentrates one join key; "
        "adaptive skew splitting should cut the simulated critical path "
        ">=2x at identical shuffle volume."
    ),
    "fig4c-factorization": (
        "Paper (Fig 4.C): SAC (GBJ) up to 3x faster than MLlib for one "
        "gradient-descent iteration."
    ),
    "ablation-pipeline": (
        "Extension (E12): with a deterministic map straggler, 8 tasks in "
        "flight overlap the sibling shuffle branches a barrier schedule "
        "serializes — expect a wall-clock makespan >=1.4x below the "
        "run's own barrier-model bound (sum of each stage's longest "
        "task) at byte-identical counters and simulated time."
    ),
    "ablation-coordinate": (
        "Section 4/5 discussion: coordinate format shuffles every element; "
        "tiled arrays shuffle whole blocks — expect orders of magnitude "
        "less data and time for tiled."
    ),
    "ablation-reducebykey": (
        "Section 5.3 discussion: reduceByKey combines map-side; groupByKey "
        "shuffles every record — expect far less shuffle volume for "
        "reduceByKey."
    ),
    "ablation-codegen": (
        "Sections 2-3: the local plan joins on the shared index with one "
        "searchsorted and folds groups over sorted columns; the "
        "reference interpreter scans the cross product — expect >=100x "
        "between them, growing with size, and hand-written NumPy "
        "a @ b ahead of both."
    ),
    "ablation-sparse": (
        "Section 8 extension: CSC tiles with absent zero-tiles should "
        "shuffle and compute proportionally to the block density, "
        "beating dense tiles on block-sparse inputs."
    ),
    "ablation-sparse-density": (
        "Density-aware costing: on sparse bands the recorded statistic "
        "prices replication's tile fan-out at its true (small) volume "
        "and the default flips to a plan that ships only stored tiles — "
        "the forced-replicate arm shows the shuffle bytes the flip "
        "saves, widest at the sparse end and converging to plain dense "
        "costing as the band fills in."
    ),
    "ablation-costmodel-square": (
        "Cost model: both sides large, so SUMMA replication wins; the "
        "broadcast would ship a whole matrix to every executor."
    ),
    "ablation-costmodel-tall-skinny": (
        "Cost model: the one-tile-wide right side broadcasts for less "
        "than replicating column bands — expect the flip to roughly "
        "halve the shuffled volume."
    ),
    "ablation-costmodel-tiny-x-large": (
        "Cost model: mirrored case — the tiny left side broadcasts; "
        "same shuffle saving as tall-skinny."
    ),
    "ablation-tilesize": (
        "Design choice: tiny tiles pay task/shuffle overhead per tile, "
        "huge tiles lose parallelism; throughput should peak at a "
        "moderate tile size."
    ),
    "ablation-fusion": (
        "Extension (E14): rule 5.1 runs the map-heavy smoothing chain "
        "as one generated NumPy kernel per partition, once per stacked "
        "batch of tiles; fused_over_numpy_x is its wall clock over the "
        "same expression in NumPy on the whole matrix, at "
        "byte-identical results and one kernel compile."
    ),
    "ablation-serve": (
        "Extension (E15): N concurrent replay clients on one shared "
        "substrate vs N isolated per-client engines — expect a higher "
        "plan-cache hit rate (the fleet compiles each distinct query "
        "once, not once per client), strictly more retained-shuffle "
        "reuse (cross-tenant, not just cross-round), and a lower p95 "
        "query latency, at byte-identical per-query results."
    ),
    "ablation-spill": (
        "Extension (E13): a fig4c-style multiply with its working set "
        "several times the memory cap must produce results "
        "byte-identical to the uncapped run (the cap is a cost-model "
        "input: the capped plan may pick a coarser SUMMA grid and ship "
        "less, never more) and identical shuffle counters with and "
        "without prefetch, with all overflow routed through the disk "
        "spill tier; async prefetch should cut demand-restore stalls "
        "versus prefetch-off."
    ),
}


def record(experiment: str, system: str, size: int, wall: float,
           sim: float, shuffle_bytes: int, counters: dict | None = None) -> None:
    """Record one benchmark measurement for the final report."""
    _ROWS.append(
        Row(experiment, system, size, wall, sim, shuffle_bytes / 1e6,
            counters or {})
    )


def run_measured(engine, fn, repeats: int = 5):
    """Run ``fn`` ``repeats`` times; report the best run's deltas.

    Taking the minimum filters out interference from the host machine
    (GC pauses, other processes) — the same reason the paper averages
    four repetitions per data point.
    """
    best = None
    for _ in range(repeats):
        snapshot = engine.metrics.snapshot()
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        delta = engine.metrics.delta_since(snapshot)
        sim = delta.simulated_time(BENCH_CLUSTER)
        if best is None or sim < best[1]:
            counters = {
                "stages": delta.stages,
                "tasks": delta.tasks,
                "shuffles": delta.shuffles,
                "shuffle_records": delta.shuffle_records,
                "shuffle_bytes": delta.shuffle_bytes,
                "estimated_shuffle_bytes": delta.estimated_shuffle_bytes,
                "cache_hits": delta.cache_hits,
                "cache_misses": delta.cache_misses,
                "cache_evicted_bytes": delta.cache_evicted_bytes,
                "shuffle_reuses": delta.shuffle_reuses,
                "spilled_bytes": delta.spilled_bytes,
                "restored_bytes": delta.restored_bytes,
                "spill_restores": delta.spill_restores,
                "prefetch_hits": delta.prefetch_hits,
                "restore_stall_seconds": delta.restore_stall_seconds,
                # Critical path through the stages: each stage is at least
                # as long as its slowest task, whatever the core count.
                "makespan_seconds": sum(
                    sc.longest_task_seconds for sc in delta.stage_costs
                ),
                "adaptive_decisions": len(delta.adaptive_decisions),
                "adaptive_kinds": sorted(
                    {d.kind for d in delta.adaptive_decisions}
                ),
            }
            best = (wall, sim, delta.shuffle_bytes, counters)
    return best


def plan_report(compiled, session=None) -> dict:
    """Planner-side counters to merge into ``record``'s ``counters``.

    Reports the strategy the cost-based planner chose, its estimates,
    every candidate's predicted time, and (when a session is given) the
    session's parse/plan cache hit counters.
    """
    plan = compiled.plan
    info: dict = {}
    strategy = plan.details.get("strategy")
    if strategy:
        info["strategy"] = strategy
    if plan.estimate is not None:
        info["plan_estimated_shuffle_bytes"] = plan.estimate.shuffle_bytes
        info["plan_estimated_seconds"] = round(plan.estimate.total_seconds, 6)
    if plan.candidates:
        info["candidate_seconds"] = {
            name: round(est.total_seconds, 6)
            for name, est in plan.candidates.items()
        }
    if session is not None:
        info["compile_caches"] = session.compile_stats()
    return info


def pytest_sessionfinish(session, exitstatus):
    if not _ROWS:
        return
    by_experiment: dict[str, list[Row]] = defaultdict(list)
    for row in _ROWS:
        by_experiment[row.experiment].append(row)

    print("\n")
    print("#" * 78)
    print("# Paper-shape report (compare against Figure 4 of the paper)")
    print("#" * 78)
    for experiment in sorted(by_experiment):
        rows = by_experiment[experiment]
        systems = sorted({r.system for r in rows})
        sizes = sorted({r.size for r in rows})
        print(f"\n== {experiment} ==")
        header = f"{'size':>8} |" + "".join(
            f" {s:>26} |" for s in systems
        )
        print(header)
        print("-" * len(header))
        cell = {(r.system, r.size): r for r in rows}
        for size in sizes:
            line = f"{size:>8} |"
            for system in systems:
                row = cell.get((system, size))
                if row is None:
                    line += f" {'-':>26} |"
                else:
                    line += (
                        f" {row.wall_seconds:>7.3f}s"
                        f" sim {row.sim_seconds:>6.3f}s"
                        f" {row.shuffle_mb:>6.1f}MB |"
                    )
            print(line)
        _print_ratios(rows, systems, sizes)
        _print_cache_counters(rows)
        _print_planner_counters(rows)
        _print_adaptive_counters(rows)
        expectation = PAPER_EXPECTATIONS.get(experiment)
        if expectation:
            print(f"  paper: {expectation}")


def _print_ratios(rows, systems, sizes):
    if len(systems) < 2:
        return
    cell = {(r.system, r.size): r for r in rows}
    baseline = None
    for candidate in systems:
        if "mllib" in candidate.lower():
            baseline = candidate
            break
    if baseline is None:
        baseline = systems[0]
    others = [s for s in systems if s != baseline]
    for other in others:
        ratios = []
        for size in sizes:
            base_row, other_row = cell.get((baseline, size)), cell.get((other, size))
            if base_row and other_row and other_row.sim_seconds > 0:
                ratios.append(base_row.sim_seconds / other_row.sim_seconds)
        if ratios:
            print(
                f"  simulated speedup of {other} over {baseline}: "
                f"min {min(ratios):.2f}x, max {max(ratios):.2f}x"
            )


def _print_cache_counters(rows):
    """Block-manager activity for one experiment, when there was any."""
    hits = sum(r.counters.get("cache_hits", 0) for r in rows)
    misses = sum(r.counters.get("cache_misses", 0) for r in rows)
    evicted = sum(r.counters.get("cache_evicted_bytes", 0) for r in rows)
    reuses = sum(r.counters.get("shuffle_reuses", 0) for r in rows)
    if hits or misses or evicted or reuses:
        print(
            f"  block manager: {hits} cache hits, {misses} misses, "
            f"{evicted / 1e6:.1f}MB evicted, {reuses} shuffle reuses"
        )
    spilled = sum(r.counters.get("spilled_bytes", 0) for r in rows)
    restored = sum(r.counters.get("restored_bytes", 0) for r in rows)
    if spilled or restored:
        prefetch = sum(r.counters.get("prefetch_hits", 0) for r in rows)
        stall = sum(
            r.counters.get("restore_stall_seconds", 0.0) for r in rows
        )
        print(
            f"  spill tier: {spilled / 1e6:.1f}MB spilled, "
            f"{restored / 1e6:.1f}MB restored, {prefetch} prefetch hits, "
            f"{stall:.3f}s restore stall"
        )


def _print_planner_counters(rows):
    """Cost-model activity for one experiment, when there was any."""
    strategies = sorted({
        f"{r.system}={r.counters['strategy']}"
        for r in rows if r.counters.get("strategy")
    })
    if strategies:
        print(f"  planner strategy: {', '.join(strategies)}")
    estimated = sum(r.counters.get("estimated_shuffle_bytes", 0) for r in rows)
    if estimated:
        measured = sum(
            r.counters.get("shuffle_bytes", 0)
            for r in rows if r.counters.get("estimated_shuffle_bytes")
        )
        ratio = estimated / measured if measured else float("inf")
        print(
            f"  cost model: estimated {estimated / 1e6:.1f}MB shuffle vs "
            f"measured {measured / 1e6:.1f}MB (x{ratio:.2f})"
        )
    # Per-row audit: estimates that were off by more than 2x in either
    # direction mark where the model's statistics failed (and where the
    # adaptive layer has room to correct at runtime).
    for row in rows:
        est = row.counters.get("estimated_shuffle_bytes", 0)
        act = row.counters.get("shuffle_bytes", 0)
        if est and act:
            ratio = est / act
            if ratio > 2.0 or ratio < 0.5:
                print(
                    f"  !! cost model off {ratio:.2f}x for "
                    f"{row.system} @ {row.size}: estimated "
                    f"{est / 1e6:.1f}MB, measured {act / 1e6:.1f}MB"
                )
    hits = misses = 0
    for row in rows:
        stats = row.counters.get("compile_caches", {}).get("plan_cache")
        if stats:
            hits = max(hits, stats["hits"])
            misses = max(misses, stats["misses"])
    if hits or misses:
        rate = hits / (hits + misses) if hits + misses else 0.0
        print(
            f"  plan cache: {hits} hits / {misses} misses "
            f"({100 * rate:.0f}% hit rate)"
        )


def _print_adaptive_counters(rows):
    """Adaptive (AQE) activity for one experiment, when there was any."""
    active = [r for r in rows if r.counters.get("adaptive_decisions")]
    if not active:
        return
    total = sum(r.counters["adaptive_decisions"] for r in active)
    kinds = sorted({k for r in active for k in r.counters.get("adaptive_kinds", [])})
    print(f"  adaptive: {total} decisions ({', '.join(kinds)})")
    for row in active:
        makespan = row.counters.get("makespan_seconds")
        if makespan:
            print(
                f"    {row.system} @ {row.size}: "
                f"{row.counters['adaptive_decisions']} decisions, "
                f"critical path {makespan:.3f}s"
            )


@pytest.fixture()
def measure():
    """Fixture exposing (record, run_measured) to benchmark modules."""
    return record, run_measured
