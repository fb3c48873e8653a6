"""A from-scratch Spark-like dataflow engine.

This package is the *substrate* of the reproduction: the paper compiles
array comprehensions to Spark RDD programs, so the planner here compiles
them to this engine's RDD programs.  It provides lazily evaluated,
partitioned datasets with lineage, hash/grid partitioning, map-side
combining shuffles whose volume is measured byte-for-byte, and a cost
model that converts measured work into simulated time on a configurable
cluster.
"""

from .adaptive import AdaptiveDecision, AdaptiveManager
from .block_manager import (
    BlockManager, ListOutput, ManagedOutput, SpillLostError, TenantBlockView,
)
from .cluster import BENCH_CLUSTER, PAPER_CLUSTER, TINY_CLUSTER, ClusterSpec
from .context import Accumulator, Broadcast, EngineContext, parse_memory_limit
from .metrics import JobMetrics, MetricsRegistry, TenantCounters
from .partitioner import GridPartitioner, HashPartitioner, Partitioner, portable_hash
from .rdd import RDD
from .scheduler import (
    FairJobScheduler,
    FaultInjection,
    InjectedFatalTaskError,
    InjectedTaskFailure,
    SerialTaskRunner,
    TaskRunner,
    ThreadedTaskRunner,
    TransientTaskError,
    resolve_runner,
)
from .substrate import EngineSubstrate, LruCache, PlanCacheGroup
from .serialization import RecordSizeAccountant
from .shuffle import Aggregator, MapOutputStatistics, Shuffle
from .taskgraph import Task, TaskGraph, compile_job_graph

__all__ = [
    "Accumulator",
    "AdaptiveDecision",
    "AdaptiveManager",
    "Aggregator",
    "BlockManager",
    "Broadcast",
    "BENCH_CLUSTER",
    "ClusterSpec",
    "EngineContext",
    "EngineSubstrate",
    "FairJobScheduler",
    "FaultInjection",
    "GridPartitioner",
    "HashPartitioner",
    "InjectedFatalTaskError",
    "InjectedTaskFailure",
    "JobMetrics",
    "ListOutput",
    "LruCache",
    "ManagedOutput",
    "MapOutputStatistics",
    "MetricsRegistry",
    "PlanCacheGroup",
    "PAPER_CLUSTER",
    "Partitioner",
    "RDD",
    "RecordSizeAccountant",
    "SerialTaskRunner",
    "Shuffle",
    "SpillLostError",
    "Task",
    "TaskGraph",
    "TaskRunner",
    "TenantBlockView",
    "TenantCounters",
    "ThreadedTaskRunner",
    "TINY_CLUSTER",
    "TransientTaskError",
    "compile_job_graph",
    "parse_memory_limit",
    "portable_hash",
    "resolve_runner",
]
