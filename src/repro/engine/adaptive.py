"""Adaptive query execution: re-optimize from measured statistics.

The planner's :class:`~repro.planner.cost.CostModel` prices strategies
from *estimates* frozen at compile time.  This module closes the
estimate-vs-actual gap at runtime, the way Spark's AQE does, using the
:class:`~repro.engine.shuffle.MapOutputStatistics` histograms that every
shuffle's map phase records for free:

* **Skew splitting** — before a downstream shuffle's map stage launches,
  the lineage is walked through element-wise narrow ops down to the
  materialized wide stage feeding it.  A reduce partition whose measured
  bytes exceed ``adaptive_skew_factor`` times the median is *split*: its
  records fan out over several map tasks whose partial combines merge in
  the ordinary reduce phase.  This attacks the paper's Section 5.3 skew
  directly — the join+group-by multiply's hot join key no longer
  serializes its contraction onto one core.  When the hot partition is a
  join's cartesian groups (one giant record per key), the record itself
  is first expanded by chunking one side's value list, which preserves
  the joined pair multiset.

* **Join-strategy downgrade** — handled by the planner
  (:mod:`repro.planner.groupby_join`), which measures both sides'
  materialized sizes at execution time, re-prices the candidates, and
  swaps replicate/tiled plans for a broadcast join when one side's
  *measured* size clears ``adaptive_broadcast_bytes``.  The measured
  sizes land in :attr:`AdaptiveManager.measured_sizes`, where later
  compiles of the same session price with facts instead of estimates.

Every action taken is recorded as an :class:`AdaptiveDecision` — on the
manager, on the active :class:`~repro.engine.metrics.JobMetrics`, and
(via the planner) on the executed plan's ``explain()`` report — with the
measured numbers that triggered it.

With ``enabled=False`` every hook returns ``None`` before touching
anything, so all counters stay byte-identical to a build without this
module.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .cluster import ClusterSpec
from .metrics import MetricsRegistry
from .shuffle import MapOutputStatistics


@dataclass(frozen=True)
class AdaptiveDecision:
    """One runtime re-optimization, with the numbers that triggered it."""

    #: ``"skew-split"`` or ``"broadcast-downgrade"``.
    kind: str
    #: Human-readable account of what fired and why.
    description: str
    #: Measured statistics the decision was based on.
    measured: dict = field(default_factory=dict)
    #: The compile-time estimate the measurement contradicted (empty when
    #: the decision is purely execution-level).
    estimate: dict = field(default_factory=dict)

    def summary(self) -> str:
        parts = [f"[{self.kind}] {self.description}"]
        if self.measured:
            measured = ", ".join(f"{k}={v}" for k, v in sorted(self.measured.items()))
            parts.append(f"measured: {measured}")
        if self.estimate:
            estimate = ", ".join(f"{k}={v}" for k, v in sorted(self.estimate.items()))
            parts.append(f"estimated: {estimate}")
        return " | ".join(parts)


class AdaptiveManager:
    """Holds adaptive state for one engine context.

    The task-graph compiler consults :meth:`find_skew_source` /
    :meth:`plan_partition_chunks` before a shuffle's map phase; the
    planner's runtime join reconsideration records its downgrades and
    measured sizes here.  All hooks are no-ops while :attr:`enabled` is
    ``False``.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        metrics: MetricsRegistry,
        enabled: bool = False,
    ):
        self.cluster = cluster
        self.metrics = metrics
        self.enabled = enabled
        #: Every decision taken over the context's lifetime, in order.
        self.decisions: list[AdaptiveDecision] = []
        #: Measured materialized sizes, keyed by ``id(storage)`` →
        #: ``(bytes, records)``.  Later compiles in the same session feed
        #: these to the cost model so estimates converge on facts.
        self.measured_sizes: dict[int, tuple[int, int]] = {}
        #: Strong references to the measured storages: an ``id()`` is
        #: only unique while its object lives, so pinning the object
        #: keeps the key from ever aliasing a different storage.
        self._measured_refs: dict[int, Any] = {}
        self._lock = threading.Lock()

    def record_decision(self, decision: AdaptiveDecision) -> None:
        """Append a decision to the manager and the active job's metrics."""
        with self._lock:
            self.decisions.append(decision)
        self.metrics.record_adaptive_decision(decision)

    def record_measured_size(self, storage: Any, nbytes: int, records: int) -> None:
        """Remember a storage object's measured materialized size."""
        with self._lock:
            self.measured_sizes[id(storage)] = (nbytes, records)
            self._measured_refs[id(storage)] = storage

    # ------------------------------------------------------------------
    # Map-phase planning (skew splitting)
    # ------------------------------------------------------------------

    def find_skew_source(self, parent) -> Optional[tuple[list, Any]]:
        """The wide stage feeding ``parent`` through element-wise ops.

        Returns ``(chain, node)`` — the narrow ops walked through
        (downstream-first) and the :class:`~repro.engine.rdd.ShuffledRDD`
        or :class:`~repro.engine.rdd.CoGroupedRDD` at the bottom — or
        ``None`` when the walk hits anything the skew splitter cannot
        re-run per chunk (an opaque ``map_partitions``, a cached node, a
        narrow source).
        """
        if not self.enabled:
            return None
        from .rdd import CoGroupedRDD, MapPartitionsRDD, ShuffledRDD

        chain: list = []
        node = parent
        while (
            isinstance(node, MapPartitionsRDD)
            and node._elementwise
            and not node._cached
        ):
            chain.append(node)
            node = node._parent
        if not isinstance(node, (ShuffledRDD, CoGroupedRDD)) or node._cached:
            return None
        return chain, node

    @staticmethod
    def rebuild_chain(chain: list, pid: int, records: Iterable) -> Iterable:
        """Re-apply a narrow element-wise chain to a slice of partition
        ``pid`` (a record list, or a tile batch handed on as it is)."""
        for narrow in reversed(chain):
            records = narrow._func(pid, records)
        return records

    def plan_partition_chunks(
        self,
        stats: MapOutputStatistics,
        splits: dict[int, int],
        pid: int,
        records: list,
        splittable: bool,
    ) -> Optional[list[list]]:
        """Chunk one hot partition's records, recording the decision.

        ``None`` means the partition stays a single map task (too few
        records to slice) and no decision is recorded.
        """
        want = splits[pid]
        if splittable and len(records) < want:
            records = _expand_cartesian_records(records, want)
        slices = min(want, len(records))
        if slices < 2:
            return None
        from .rdd import _slice

        chunks = _slice(records, slices)
        median = _lower_median(stats.bytes_per_partition)
        self.record_decision(AdaptiveDecision(
            kind="skew-split",
            description=(
                f"reduce partition {pid} is skewed "
                f"({stats.bytes_per_partition[pid]} bytes vs median "
                f"{median}); split its map input into {slices} tasks"
            ),
            measured={
                "partition": pid,
                "partition_bytes": stats.bytes_per_partition[pid],
                "partition_records": stats.records_per_partition[pid],
                "median_bytes": median,
                "splits": slices,
            },
        ))
        return chunks

    def _plan_skew_splits(self, stats: MapOutputStatistics) -> dict[int, int]:
        """Hot partitions and the number of slices each should fan out to."""
        nonzero = [b for b in stats.bytes_per_partition if b]
        if len(nonzero) < 2:
            return {}
        median = _lower_median(stats.bytes_per_partition)
        factor = self.cluster.adaptive_skew_factor
        min_bytes = self.cluster.adaptive_skew_min_bytes
        splits: dict[int, int] = {}
        for pid, nbytes in enumerate(stats.bytes_per_partition):
            if nbytes >= min_bytes and nbytes > factor * median:
                splits[pid] = min(
                    self.cluster.adaptive_max_splits,
                    max(2, round(nbytes / max(1, median))),
                )
        return splits


def _lower_median(bytes_per_partition) -> int:
    """Lower median of the non-empty buckets.

    Shuffle histograms under key skew are right-tailed with few non-empty
    buckets; the *upper* median of a two-bucket histogram is the hot
    bucket itself, which would mask exactly the skew being hunted, so the
    typical bucket is taken as the lower median.
    """
    nonzero = sorted(b for b in bytes_per_partition if b)
    return nonzero[(len(nonzero) - 1) // 2] if nonzero else 0


def _expand_cartesian_records(records: list, want: int) -> list:
    """Chunk cartesian cogroup records until at least ``want`` exist.

    Each record is ``(key, (left_values, right_values))`` destined for a
    cartesian flatten; splitting the longer value list of the biggest
    record into two halves preserves the flattened pair multiset while
    doubling the slicing granularity.  Records of any other shape are
    left alone.
    """
    out = list(records)
    while len(out) < want:
        best_index = -1
        best_weight = 1
        for index, record in enumerate(out):
            weight = _cartesian_weight(record)
            if weight > best_weight:
                best_index, best_weight = index, weight
        if best_index < 0:
            break
        key, (left, right) = out.pop(best_index)
        if len(left) >= len(right):
            mid = len(left) // 2
            out.append((key, (left[:mid], right)))
            out.append((key, (left[mid:], right)))
        else:
            mid = len(right) // 2
            out.append((key, (left, right[:mid])))
            out.append((key, (left, right[mid:])))
    return out


def _cartesian_weight(record: Any) -> int:
    """Longest value-list length of a splittable cogroup record, else 0."""
    if not (isinstance(record, tuple) and len(record) == 2):
        return 0
    value = record[1]
    if not (isinstance(value, tuple) and len(value) == 2):
        return 0
    left, right = value
    if not (isinstance(left, list) and isinstance(right, list)):
        return 0
    if not left or not right:
        return 0
    return max(len(left), len(right))
