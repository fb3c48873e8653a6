"""Cost model for physical plan selection (the planner's optimizer).

The paper's Figure 4 hinges on *which* physical plan runs: the
group-by-join (SUMMA) multiply beats MLlib while the naive 5.3
join+group-by loses to it, and the broadcast map-side join beats both
when one side is small (the factorization's rank-k factors).  Instead of
static knobs, :class:`CostModel` estimates — per candidate strategy —
how many bytes cross the network, how many tasks launch, and how well
the contraction parallelizes, all from the tile grids, the storages'
partition counts, and the :class:`~repro.engine.cluster.ClusterSpec`.
``_plan_comp`` picks the cheapest candidate; ``explain()`` reports every
candidate so a choice can be audited.

The shuffle-byte formulas mirror the engine's measured accounting
(``engine.serialization``): dense payload bytes plus a per-record
envelope.  With N×N tiles over an n×l × l×m product (grids gr, gk, gc):

* **replicate** (5.4, SUMMA): the result's tile grid is cut into a
  ``p_r × p_c`` *processor grid* of cells; every A-tile is sent to the
  p_c cells of its row band and every B-tile to the p_r cells of its
  column band — ``|A|·p_c + |B|·p_r`` bytes, one cogroup shuffle,
  reduce side on ``min(parallelism, p_r·p_c)`` grid partitions, at most
  one cell per core.  The model prices every ``p = 1..max(gr, gc)``
  with ``p_r = min(p, gr)``, ``p_c = min(p, gc)`` — a coarse grid ships
  less, a fine one parallelizes more — and keeps the finest grid within
  one task launch of the cheapest; ``p_r = gr, p_c = gc`` is the
  paper's one destination tile per cell.
* **tiled-reduce** (5.3, "naive"): the tile join shuffles ``|A| + |B|``
  bytes, then one partial product per (i,k,j) triple is merged with
  reduceByKey; map-side combining collapses the gk copies of each
  result tile down to one per *join partition holding a distinct k*, so
  ``|C|·min(gk, join partitions)`` bytes shuffle.  The join key is the
  shared dimension — only gk distinct values — so the contraction runs
  on at most gk cores: the skew the paper blames for 5.3's slowness.
* **broadcast** (map-side join): the small side is collected and copied
  to every executor (driver→executor traffic, not shuffle), the large
  side contracts in place, and partial result tiles merge with
  reduceByKey — ``|C|·min(gk, large partitions)`` shuffle bytes.

Compute is charged as ``2·n·l·m`` flops at a fixed local-GEMM rate plus
a per-contraction call overhead, scaled by the cluster's
``compute_scale`` and divided by the strategy's *effective* parallelism
(the skew term).

**Density-aware costing.**  Every tiled storage carries
:class:`~repro.storage.stats.DensityStats` (recorded at construction by
sparse builders, propagated by the translation rules); the model scales
each candidate by them.  The engine densifies CSC tiles *before* any
shuffle (``ResolvedGen.tile_records``), so the tiled strategies' bytes
and records scale with **block density** — the fraction of grid tiles
stored: a block-sparse side with block density ``b`` contributes
``b·|A|`` payload, a tile pair contracts only when both blocks are
present (``b_l·b_r`` of the dense pairs), and tiled-reduce/broadcast
ship ``min(gk·b_l·b_r, parts)`` surviving partial copies per result
tile.  The **element** density matters only on the coordinate path,
which ships one record per stored non-zero.  All scalings are
multiplicative, so dense inputs (density 1.0) reproduce the previous
estimates byte-for-byte — fig4a/fig4b plan choices are unaffected.
Estimates remain upper bounds in expectation, not guarantees: block
densities are recorded facts for source storages but propagated
estimates for derived ones (see :mod:`repro.storage.stats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..engine.cluster import ClusterSpec
from ..storage.stats import DENSE, DensityStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .groupby_join import GbjMatch
    from .tiling import TiledSetup

#: Bytes per float64 element inside a tile.
ELEMENT_BYTES = 8
#: Per-record envelope: key tuples, the join-coordinate int, container
#: headers and the shuffle's record overhead (see engine.serialization;
#: a tile record measures ~50-60 bytes beyond its payload).
TILE_RECORD_OVERHEAD = 64
#: Bytes per shuffled record of the coordinate rule's *per-element*
#: record type (an ((i, j), v) pair of smallints and a float).  A plan
#: that runs over column batches ships ~8 bytes per column per row, so
#: this over-prices it — the conservative side (ROADMAP item 7).
COORD_RECORD_BYTES = 48
#: Throughput the model assumes for the measured (local NumPy) tile
#: contraction, in flops per second of *measured* compute.  ``contract``
#: dispatches the multiply-add case to ``@`` (BLAS), which at tile sizes
#: runs below a whole-matrix gemm; the exact value matters little for
#: plan choice because every dense candidate does the same flops — only
#: the parallelism divisor differs.
LOCAL_CONTRACT_FLOPS = 2.0e10
#: Python-level overhead per tile-pair contraction call.
CONTRACT_CALL_SECONDS = 5e-5
#: Interpreter cost per record of the coordinate rule's per-element
#: record type (a column batch pays array passes, far less per row).
COORD_ELEMENT_SECONDS = 2e-6

#: Candidate strategy names (details["strategy"] / explain keys).
STRATEGY_REPLICATE = "gbj-replicate"
STRATEGY_BROADCAST_LEFT = "gbj-broadcast-left"
STRATEGY_BROADCAST_RIGHT = "gbj-broadcast-right"
STRATEGY_TILED_REDUCE = "tiled-reduce"
STRATEGY_COORDINATE = "coordinate"
#: Every name ``PlannerOptions(strategy=...)`` accepts.
STRATEGIES = (
    STRATEGY_REPLICATE, STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT,
    STRATEGY_TILED_REDUCE, STRATEGY_COORDINATE,
)


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one candidate physical strategy."""

    strategy: str
    #: Bytes the engine's shuffle accountant should measure.
    shuffle_bytes: int
    shuffle_records: int
    #: Driver→executor traffic (collect + broadcast); charged to network
    #: time but *not* to shuffle_bytes, matching the engine's counters.
    broadcast_bytes: int
    tasks: int
    #: Cores the dominant stage can actually keep busy (the skew term).
    effective_parallelism: int
    #: Recommended reduce-side partition count for the strategy.
    reduce_partitions: int
    compute_seconds: float
    network_seconds: float
    launch_seconds: float
    #: Input densities this candidate was priced with (``"dense"`` when
    #: both sides carried no sparsity information); surfaced by explain().
    densities: str = "dense"
    #: Bytes the out-of-core tier would write+read back because the
    #: candidate's working set overflows the configured memory limit
    #: (0 when no limit is set, keeping every estimate identical to the
    #: limit-free model).
    spill_bytes: int = 0
    spill_seconds: float = 0.0
    #: Replicate only: the ``(p_r, p_c)`` processor grid this estimate
    #: prices, and the one the emitter replicates to.
    grid: Optional[tuple[int, int]] = None

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds + self.network_seconds
            + self.launch_seconds + self.spill_seconds
        )

    def summary(self) -> str:
        spill = (
            f", {self.spill_bytes / 1e6:.2f}MB spill"
            if self.spill_bytes else ""
        )
        grid = f" [{self.grid[0]}x{self.grid[1]} grid]" if self.grid else ""
        return (
            f"{self.strategy}{grid}: {self.shuffle_bytes / 1e6:.2f}MB shuffle "
            f"({self.shuffle_records} records), "
            f"{self.broadcast_bytes / 1e6:.2f}MB broadcast{spill}, "
            f"{self.tasks} tasks on {self.effective_parallelism} cores "
            f"-> {self.total_seconds * 1e3:.2f}ms est "
            f"[priced at {self.densities}]"
        )


def _density_note(left: DensityStats, right: DensityStats) -> str:
    """Human-readable record of the densities a candidate was priced with."""

    def one(stats: DensityStats) -> str:
        if stats.is_dense:
            return "dense"
        return f"d={stats.density:.3g} bd={stats.block_density:.3g}"

    if left.is_dense and right.is_dense:
        return "dense"
    return f"left {one(left)}, right {one(right)}"


class CostModel:
    """Estimates candidate costs for one group-by-join-shaped query.

    ``measured`` — optional runtime feedback from the adaptive layer:
    ``id(storage) → (measured bytes, measured stored records)``.  When a
    generator's storage has an entry, the measured stored-tile count
    replaces the recorded density statistic (block density =
    stored / dense tiles), so a model refreshed mid-job or on a later
    compile prices with facts instead of estimates.  For a storage whose
    recorded statistic was already exact, the override is the identical
    number and every estimate is unchanged.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        default_parallelism: int,
        measured: Optional[dict[int, tuple[int, int]]] = None,
        memory_limit: Optional[int] = None,
    ):
        self.cluster = cluster
        self.parallelism = default_parallelism
        self.measured = measured or {}
        #: Engine memory cap (bytes); when set, candidates whose working
        #: set overflows it are charged spill I/O, so plan choice reacts
        #: to memory pressure (a strategy that replicates bands may lose
        #: to a leaner one once the replicas no longer fit in memory).
        self.memory_limit = memory_limit

    # -- shared quantities ------------------------------------------------

    def _spill_term(self, working_set_bytes: float) -> tuple[int, float]:
        """(spill bytes, spill seconds) for a candidate working set.

        Working set beyond the memory limit is written to the spill
        store and read back once — 2x the overflow — at the cluster's
        spill bandwidth.  With no limit configured the term is zero and
        every estimate matches the limit-free model exactly.
        """
        if self.memory_limit is None:
            return 0, 0.0
        overflow = max(0.0, working_set_bytes - self.memory_limit)
        spill_bytes = int(round(2 * overflow))
        return spill_bytes, spill_bytes / self.cluster.spill_bandwidth

    def _gen_stats(self, gen) -> tuple[int, int, int, DensityStats]:
        """(dense payload bytes, dense tile count, RDD partitions,
        density stats) of a generator.

        Bytes and tiles are the *dense* quantities; callers scale them
        by the returned :class:`DensityStats` (block density for tiled
        strategies, element density on the coordinate path) so that
        dense inputs reproduce the unscaled estimates exactly.
        """
        elements = 1
        tiles = 1
        for dim in gen.axis_dims:
            elements *= dim
            tiles *= math.ceil(dim / gen.storage.tile_size)
        partitions = max(1, gen.tiles.num_partitions)
        stats = gen.stats if isinstance(
            getattr(gen, "stats", None), DensityStats
        ) else DENSE
        if self.measured:
            entry = self.measured.get(id(getattr(gen, "storage", None)))
            if entry is not None:
                _nbytes, records = entry
                block_density = min(1.0, records / tiles) if tiles else 1.0
                stats = DensityStats(block_density, block_density)
        return elements * ELEMENT_BYTES, tiles, partitions, stats

    def _compute(self, flops: float, calls: float, parallelism: int) -> float:
        parallelism = max(1, parallelism)
        seconds = flops / LOCAL_CONTRACT_FLOPS + calls * CONTRACT_CALL_SECONDS
        return seconds * self.cluster.compute_scale / parallelism

    def _launch(self, *stage_tasks: int) -> float:
        cores = max(1, self.cluster.total_cores)
        return self.cluster.task_launch_overhead * sum(
            math.ceil(tasks / cores) for tasks in stage_tasks if tasks
        )

    # -- candidates -------------------------------------------------------

    def candidates(
        self, setup: "TiledSetup", match: "GbjMatch"
    ) -> dict[str, CostEstimate]:
        """Every strategy's estimate for a matched group-by-join."""
        out = {
            STRATEGY_REPLICATE: self.replicate(setup, match),
            STRATEGY_BROADCAST_LEFT: self.broadcast(setup, match, "left"),
            STRATEGY_BROADCAST_RIGHT: self.broadcast(setup, match, "right"),
            STRATEGY_TILED_REDUCE: self.tiled_reduce(setup, match),
            STRATEGY_COORDINATE: self.coordinate(setup, match),
        }
        return out

    def replicate(self, setup: "TiledSetup", match: "GbjMatch") -> CostEstimate:
        """Section 5.4: SUMMA on the ``p_r × p_c`` processor grid the
        model picks from ``p_r = min(p, gr)``, ``p_c = min(p, gc)``.

        A coarse grid ships less, a fine one parallelizes more.  The
        launch term counts whole waves of ``task_launch_overhead``, so a
        difference below one launch is under the model's resolution:
        the finest grid within that of the cheapest is kept — the
        paper's one destination tile per cell, unless coarser cells buy
        at least a task launch.
        """
        gr, gc = match.grid_rows, match.grid_cols
        priced = [
            self.replicate_on(match, (min(p, gr), min(p, gc)))
            for p in range(1, max(gr, gc) + 1)
        ]
        resolved = (
            min(estimate.total_seconds for estimate in priced)
            + self.cluster.task_launch_overhead
        )
        return next(
            estimate for estimate in reversed(priced)
            if estimate.total_seconds <= resolved
        )

    def replicate_on(
        self, match: "GbjMatch", grid: tuple[int, int]
    ) -> CostEstimate:
        """Replicate priced on one ``(p_r, p_c)`` grid of cells: A-tiles
        go to the ``p_c`` cells of their row band, B-tiles to the ``p_r``
        of their column band, each cell contracts what it received.

        Only *stored* tiles replicate — a block-sparse side with block
        density ``b`` ships ``b`` of the dense band volume — but each
        stored tile is still copied to every cell of its band, which is
        why block sparsity hurts replicate more than the join-once
        strategies.
        """
        left_bytes, left_tiles, left_parts, ls = self._gen_stats(match.left_gen)
        right_bytes, right_tiles, right_parts, rs = self._gen_stats(match.right_gen)
        bl, br = ls.block_density, rs.block_density
        p_r, p_c = grid
        records_f = left_tiles * bl * p_c + right_tiles * br * p_r
        shuffle_bytes = int(round(
            left_bytes * bl * p_c
            + right_bytes * br * p_r
            + records_f * TILE_RECORD_OVERHEAD
        ))
        reduce_partitions = min(self.parallelism, p_r * p_c)
        parallel = min(self.cluster.total_cores, reduce_partitions)
        tasks = left_parts + right_parts + reduce_partitions
        spill_bytes, spill_seconds = self._spill_term(shuffle_bytes)
        return CostEstimate(
            strategy=STRATEGY_REPLICATE,
            shuffle_bytes=shuffle_bytes,
            shuffle_records=int(round(records_f)),
            broadcast_bytes=0,
            tasks=tasks,
            effective_parallelism=parallel,
            reduce_partitions=reduce_partitions,
            compute_seconds=self._compute(
                match.flops * bl * br,
                match.grid_rows * match.grid_cols * match.grid_join * bl * br,
                parallel,
            ),
            network_seconds=shuffle_bytes / self.cluster.network_bandwidth,
            launch_seconds=self._launch(
                left_parts + right_parts, reduce_partitions
            ),
            densities=_density_note(ls, rs),
            spill_bytes=spill_bytes,
            spill_seconds=spill_seconds,
            grid=grid,
        )

    def tiled_reduce(self, setup: "TiledSetup", match: "GbjMatch") -> CostEstimate:
        """Section 5.3: tile join + one partial product per (i,k,j).

        The join ships each stored tile once (``b·|A| + b·|B|``), and a
        tile pair only produces a partial when *both* blocks are present
        — ``b_l·b_r`` of the dense (i,k,j) triples — so at most
        ``min(gk·b_l·b_r, join partitions)`` partial copies of each
        result tile survive map-side combining.
        """
        left_bytes, left_tiles, left_parts, ls = self._gen_stats(match.left_gen)
        right_bytes, right_tiles, right_parts, rs = self._gen_stats(match.right_gen)
        bl, br = ls.block_density, rs.block_density
        gr, gc, gk = match.grid_rows, match.grid_cols, match.grid_join
        join_parts = max(left_parts, right_parts)
        join_records = left_tiles * bl + right_tiles * br
        join_bytes = (
            left_bytes * bl + right_bytes * br
            + join_records * TILE_RECORD_OVERHEAD
        )
        # Map-side combine merges the gk partials of a result tile only
        # within one join partition; distinct join keys land in distinct
        # partitions (gk ≤ partitions in practice), so one copy of the
        # result survives per partition holding a distinct k — of which
        # only the ~gk·b_l·b_r block-present pairs produce partials.
        copies = min(gk * bl * br, join_parts)
        partial_records = gr * gc * copies
        partial_bytes = (
            match.result_bytes * copies + partial_records * TILE_RECORD_OVERHEAD
        )
        shuffle_bytes = int(round(join_bytes + partial_bytes))
        # The join key is the shared dimension: gk distinct values, so
        # the whole contraction runs on at most gk cores (key skew).
        parallel = min(self.cluster.total_cores, min(gk, join_parts))
        tasks = left_parts + right_parts + 2 * join_parts
        spill_bytes, spill_seconds = self._spill_term(shuffle_bytes)
        return CostEstimate(
            strategy=STRATEGY_TILED_REDUCE,
            shuffle_bytes=shuffle_bytes,
            shuffle_records=int(round(join_records + partial_records)),
            broadcast_bytes=0,
            tasks=tasks,
            effective_parallelism=parallel,
            reduce_partitions=join_parts,
            compute_seconds=self._compute(
                match.flops * bl * br, gr * gc * gk * bl * br, parallel
            ),
            network_seconds=shuffle_bytes / self.cluster.network_bandwidth,
            launch_seconds=self._launch(
                left_parts + right_parts, join_parts, join_parts
            ),
            densities=_density_note(ls, rs),
            spill_bytes=spill_bytes,
            spill_seconds=spill_seconds,
        )

    def broadcast(
        self, setup: "TiledSetup", match: "GbjMatch", side: str
    ) -> CostEstimate:
        """Map-side join: collect+broadcast one side, stream the other."""
        small_gen = match.left_gen if side == "left" else match.right_gen
        large_gen = match.right_gen if side == "left" else match.left_gen
        small_bytes, small_tiles, _small_parts, ss = self._gen_stats(small_gen)
        _large_bytes, _large_tiles, large_parts, lls = self._gen_stats(large_gen)
        bs, bl = ss.block_density, lls.block_density
        gr, gc, gk = match.grid_rows, match.grid_cols, match.grid_join
        # One collect to the driver plus one copy per executor; only
        # stored tiles are collected (tiles densify on collect).
        broadcast_bytes = int(round(
            small_bytes * bs * (1 + self.cluster.num_executors)
        ))
        # The large side's partials rarely share a partition (one result
        # key per (large tile, small tile) pair), so map-side combining
        # collapses at best to one copy per large partition — and only
        # block-present pairs (gk·b_s·b_l of gk) produce partials.
        copies = min(gk * bs * bl, large_parts)
        records_f = gr * gc * copies
        shuffle_bytes = int(round(
            match.result_bytes * copies + records_f * TILE_RECORD_OVERHEAD
        ))
        reduce_partitions = min(self.parallelism, gr * gc)
        parallel = min(self.cluster.total_cores, large_parts)
        strategy = (
            STRATEGY_BROADCAST_LEFT if side == "left" else STRATEGY_BROADCAST_RIGHT
        )
        left_stats = ss if side == "left" else lls
        right_stats = lls if side == "left" else ss
        # The broadcast copy is resident on every executor for the whole
        # job, so it counts toward the working set alongside the shuffle.
        spill_bytes, spill_seconds = self._spill_term(
            shuffle_bytes + broadcast_bytes
        )
        return CostEstimate(
            strategy=strategy,
            shuffle_bytes=shuffle_bytes,
            shuffle_records=int(round(records_f)),
            broadcast_bytes=broadcast_bytes,
            tasks=large_parts + reduce_partitions + int(round(small_tiles * bs)),
            effective_parallelism=parallel,
            reduce_partitions=reduce_partitions,
            compute_seconds=self._compute(
                match.flops * bs * bl, gr * gc * gk * bs * bl, parallel
            ),
            network_seconds=(
                (shuffle_bytes + broadcast_bytes) / self.cluster.network_bandwidth
            ),
            launch_seconds=self._launch(large_parts, reduce_partitions),
            densities=_density_note(left_stats, right_stats),
            spill_bytes=spill_bytes,
            spill_seconds=spill_seconds,
        )

    def coordinate(self, setup: "TiledSetup", match: "GbjMatch") -> CostEstimate:
        """Section 4's element-level fallback, for the explain report.

        Every element becomes one shuffled record in the join and in the
        group-by; the interpreter touches each pair individually.  This
        is orders of magnitude above the tiled plans — it is listed so
        ``explain`` shows what tiling buys, never auto-chosen when a
        tiled plan exists.

        This is the one path where *element* density (not block density)
        governs the bytes: sparsification ships one record per stored
        non-zero, and a joined pair exists only when both elements are
        non-zero.
        """
        _lb, _lt, _lp, ls = self._gen_stats(match.left_gen)
        _rb, _rt, _rp, rs = self._gen_stats(match.right_gen)
        dl, dr = ls.density, rs.density
        left_elems = 1
        for dim in match.left_gen.axis_dims:
            left_elems *= dim
        right_elems = 1
        for dim in match.right_gen.axis_dims:
            right_elems *= dim
        result_elems = match.result_bytes // ELEMENT_BYTES
        # Join output: one record per multiplied pair, grouped afterwards.
        join_dim = setup.class_dim[match.join_class]
        pairs = result_elems * join_dim * dl * dr
        records_f = left_elems * dl + right_elems * dr + pairs
        shuffle_bytes = int(round(records_f * COORD_RECORD_BYTES))
        cores = max(1, self.cluster.total_cores)
        spill_bytes, spill_seconds = self._spill_term(shuffle_bytes)
        return CostEstimate(
            strategy=STRATEGY_COORDINATE,
            shuffle_bytes=shuffle_bytes,
            shuffle_records=int(round(records_f)),
            broadcast_bytes=0,
            tasks=3 * self.parallelism,
            effective_parallelism=cores,
            reduce_partitions=self.parallelism,
            compute_seconds=(
                records_f * COORD_ELEMENT_SECONDS * self.cluster.compute_scale / cores
            ),
            network_seconds=shuffle_bytes / self.cluster.network_bandwidth,
            launch_seconds=self._launch(
                self.parallelism, self.parallelism, self.parallelism
            ),
            densities=_density_note(ls, rs),
            spill_bytes=spill_bytes,
            spill_seconds=spill_seconds,
        )


def choose_strategy(candidates: dict[str, CostEstimate]) -> str:
    """The cheapest tiled strategy; ties break toward the earlier entry of
    :data:`STRATEGIES` (replicate — the paper's preferred SUMMA plan — is
    listed first).  The coordinate estimate is for ``explain`` only."""
    viable = [
        name for name in STRATEGIES
        if name in candidates and name != STRATEGY_COORDINATE
    ]
    return min(viable, key=lambda name: candidates[name].total_seconds)
