"""Simulated cluster description used by the cost model.

The paper evaluates SAC on a 4-node cluster (one Xeon E5-2680v3 per node,
24 cores, 128 GB RAM) running 8 Spark executors with 11 cores each.  We
cannot run on that hardware, so the engine executes locally and *charges*
simulated costs against a :class:`ClusterSpec`: every task pays a launch
overhead, every shuffled byte pays network transfer time, and compute time
is divided by the number of cores the cluster would have applied.

The spec is deliberately small: the experiments in the paper are dominated
by (a) how many bytes cross the network during shuffles and (b) how much
per-tile compute each plan does, and those are exactly the quantities the
engine measures.

The simulated fields (nodes, executors, cores, bandwidths, launch
overhead, ``compute_scale``) only price: ``JobMetrics.simulated_time``
and the cost model read them.  Real partition counts follow the data's
bytes (:meth:`ClusterSpec.partitions_for`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the cluster being simulated.

    Attributes:
        num_nodes: number of worker machines.
        executors_per_node: Spark-style executor processes per machine.
        cores_per_executor: task slots per executor.
        network_bandwidth: aggregate shuffle bandwidth in bytes/second.
        task_launch_overhead: scheduling + serialization cost per task, in
            seconds.  Spark tasks cost a few milliseconds to launch; this
            is what makes "many tiny partitions" lose to "few block-sized
            partitions" in the tile-size ablation.
        compute_scale: how many seconds of the simulated cluster's
            per-core compute one second of *measured local* compute
            represents.  The engine measures compute with NumPy (native
            BLAS); the paper's substrate executes generated JVM loop
            code, which is roughly an order of magnitude slower per
            core, so benchmark specs set this above 1 to restore the
            paper's compute/network balance.  1.0 means "the simulated
            cores are exactly as fast as this machine's NumPy".
    """

    num_nodes: int = 4
    executors_per_node: int = 2
    cores_per_executor: int = 11
    network_bandwidth: float = 1.0e9
    task_launch_overhead: float = 0.004
    compute_scale: float = 1.0
    #: -- Adaptive-execution (AQE) thresholds ---------------------------
    #: Largest *measured* per-copy payload the runtime re-optimizer may
    #: downgrade a join strategy to broadcast for.  Mirrors Spark's
    #: ``spark.sql.adaptive.autoBroadcastJoinThreshold``.
    adaptive_broadcast_bytes: int = 32 * 2**20
    #: Bytes per partition real execution aims for
    #: (:meth:`partitions_for`).
    partition_bytes: int = 1 * 2**20
    #: A reduce partition is "skewed" when its measured map-output bytes
    #: exceed this factor times the median non-empty partition's bytes.
    adaptive_skew_factor: float = 4.0
    #: Absolute floor for skew detection: partitions below this size are
    #: never split, so tiny unit-test shuffles stay untouched.
    adaptive_skew_min_bytes: int = 256 * 2**10
    #: Upper bound on how many map tasks one skewed partition fans out to.
    adaptive_max_splits: int = 16
    #: Bytes/second for the out-of-core spill tier (local-disk object
    #: store).  Used by the cost model to price the write+read-back of
    #: working set that overflows a configured memory limit; irrelevant
    #: when no limit is set.
    spill_bandwidth: float = 8.0e8

    @property
    def num_executors(self) -> int:
        """Total executor processes across the cluster."""
        return self.num_nodes * self.executors_per_node

    @property
    def total_cores(self) -> int:
        """Total concurrent task slots across the cluster."""
        return self.num_executors * self.cores_per_executor

    def partitions_for(self, nbytes: int, items: int) -> int:
        """How many partitions ``items`` records of ``nbytes`` in total
        are cut into: one per :attr:`partition_bytes`, rounded up, at
        least one and at most one per record.  Storage builders,
        ``parallelize``, the coordinate width and the broadcast reduce
        side size by it, and the cost model prices them at it."""
        wanted = math.ceil(nbytes / self.partition_bytes)
        return max(1, min(wanted, items))


#: The cluster used in the paper's evaluation (Section 6).
PAPER_CLUSTER = ClusterSpec()

#: The spec the benchmark harness charges costs against: the paper's
#: 4-node/88-core cluster with (a) aggregate shuffle bandwidth of a
#: 10 GbE fabric with mostly parallel transfers (~2.5 GB/s — on such a
#: cluster shuffle volume is a minor cost next to compute, which is why
#: the paper's rankings are kernel- and skew-driven), and (b) per-core
#: compute modeling generated JVM loop code at ~1/12 of local
#: NumPy/BLAS throughput.  Both constants are documented substitutions
#: (see DESIGN.md): they restore the compute/communication balance of
#: the paper's testbed at laptop scale.
BENCH_CLUSTER = ClusterSpec(
    network_bandwidth=2.5e9,
    compute_scale=12.0,
)

#: A tiny cluster useful in unit tests where we want shuffle effects to be
#: visible with very small data.
TINY_CLUSTER = ClusterSpec(
    num_nodes=2,
    executors_per_node=1,
    cores_per_executor=2,
    network_bandwidth=1.0e8,
    task_launch_overhead=0.001,
)
