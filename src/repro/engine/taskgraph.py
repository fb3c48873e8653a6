"""Task graphs: per-(stage, partition) scheduling without stage barriers.

The staged scheduler materializes wide dependencies one stage at a time —
every reduce task of a shuffle waits for *all* of its map tasks, even the
ones whose output it never reads, and a single straggling map task stalls
the whole downstream program.  This module compiles a lowered RDD program
into an explicit graph of fine-grained tasks instead:

* one **map task** per map slot of every in-flight shuffle,
* one **reduce task** per (possibly coalesced) reduce group,
* one **combine/drain/merge task** per partition of co-partitioned wide
  nodes,
* one **result task** per partition of the job's target RDD,

with explicit parent/child edges (the numpywren ``find_parents`` /
``find_children`` / ``starters`` / ``terminators`` shape), so the runner
can fire each task the moment the specific partitions it reads have
landed.  Synthetic tasks (``fn is None``) act as phase barriers and
planning hooks; their ``on_complete`` callbacks run under the graph's
external lock and may *extend* the graph — this is how adaptive
decisions (reduce coalescing, skew splitting) are taken mid-flight from
measured map statistics instead of behind a global barrier.

Metric parity: every stage/task/shuffle counter a staged run records is
recorded here too, with identical totals — the graph runs the very
:class:`~repro.engine.shuffle.Shuffle` the staged driver runs (map
buckets concatenate in deterministic slot order), reduce groups come
from the same adaptive planner, and per-parent cogroup merges call the
staged merge helper chained per split, so key insertion order is
byte-identical.  Only the *recording order* of stages may differ.

The graph itself is **externally synchronized**: the runner serializes
all calls to :meth:`TaskGraph.complete` / :meth:`TaskGraph.add_task`
(under its graph lock in the pipelined runner, trivially in the serial
one), so the graph keeps no lock of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from .block_manager import ListOutput
from .shuffle import Shuffle, merge_cogroup_bucket


class Task:
    """One schedulable unit: a key, a body, and dependency bookkeeping.

    ``fn is None`` marks a *synthetic* task (phase barrier, planning
    hook, virtual output slot): it completes inline without occupying a
    pool slot.  ``pending`` counts unmet dependencies — real parent
    edges plus any *virtual* dependencies released explicitly via
    :meth:`TaskGraph.release` (used for output slots whose producing
    task is only known dynamically).
    """

    __slots__ = (
        "key", "fn", "index", "on_complete", "result",
        "pending", "children", "parent_keys", "child_keys", "done",
    )

    def __init__(
        self,
        key: tuple,
        fn: Optional[Callable[[], Any]],
        index: int,
        on_complete: Optional[Callable[[], None]],
        pending: int,
    ):
        self.key = key
        self.fn = fn
        self.index = index
        self.on_complete = on_complete
        self.result: Any = None
        self.pending = pending
        self.children: list["Task"] = []
        self.parent_keys: list[tuple] = []
        self.child_keys: list[tuple] = []
        self.done = False

    def __lt__(self, other: "Task") -> bool:
        return self.index < other.index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else f"pending={self.pending}"
        return f"<Task {self.key!r} {state}>"


class TaskGraph:
    """A dynamic DAG of :class:`Task` nodes with dependency counters.

    Tasks may be added while the graph is executing (from ``on_complete``
    hooks); a task created with every dependency already satisfied is
    buffered and surfaces from the next :meth:`complete` (or
    :meth:`drain_ready`) call.
    """

    def __init__(self) -> None:
        self._tasks: dict[tuple, Task] = {}
        self._fresh: list[Task] = []
        self._num_done = 0

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def tasks(self) -> dict[tuple, Task]:
        return self._tasks

    def add_task(
        self,
        key: tuple,
        fn: Optional[Callable[[], Any]] = None,
        deps: Any = (),
        virtual_deps: int = 0,
        on_complete: Optional[Callable[[], None]] = None,
    ) -> Task:
        if key in self._tasks:
            raise ValueError(f"duplicate task key {key!r}")
        task = Task(key, fn, len(self._tasks), on_complete, virtual_deps)
        self._tasks[key] = task
        for parent in deps:
            task.parent_keys.append(parent.key)
            parent.child_keys.append(key)
            if not parent.done:
                parent.children.append(task)
                task.pending += 1
        if task.pending == 0:
            self._fresh.append(task)
        return task

    def add_dependency(self, child: Task, parent: Task) -> None:
        """Add an edge to a task that is known not to be ready yet.

        Only valid while ``child`` still has at least one unmet
        dependency (e.g. the planning task whose hook is calling this) —
        a ready task may already be running.
        """
        if child.done or (child.pending == 0 and not parent.done):
            raise RuntimeError(
                f"cannot add dependency to already-ready task {child.key!r}"
            )
        child.parent_keys.append(parent.key)
        parent.child_keys.append(child.key)
        if not parent.done:
            parent.children.append(child)
            child.pending += 1

    def release(self, task: Task) -> None:
        """Satisfy one virtual dependency of ``task``."""
        task.pending -= 1
        if task.pending == 0 and not task.done:
            self._fresh.append(task)

    def drain_ready(self) -> list[Task]:
        """All currently-ready tasks, in creation order (the starters)."""
        fresh, self._fresh = self._fresh, []
        fresh.sort()
        return fresh

    def complete(self, task: Task) -> list[Task]:
        """Mark ``task`` done; return newly-ready tasks in creation order.

        The task's ``on_complete`` hook runs first (it may extend the
        graph or release virtual dependencies), then the task's children
        have their counters decremented.
        """
        if task.done:
            raise RuntimeError(f"task {task.key!r} completed twice")
        task.done = True
        self._num_done += 1
        # A finished task's body is never called again; dropping it (and
        # the hook) lets whatever its closure captured go with it.
        task.fn = None
        if task.on_complete is not None:
            hook, task.on_complete = task.on_complete, None
            hook()
        newly = []
        for child in task.children:
            child.pending -= 1
            if child.pending == 0:
                newly.append(child)
        task.children = []
        if self._fresh:
            newly.extend(self._fresh)
            self._fresh = []
        newly.sort()
        return newly

    def check_done(self) -> None:
        """Raise if any task never ran (a missing edge or a cycle)."""
        remaining = len(self._tasks) - self._num_done
        if remaining == 0:
            return
        stuck = [t.key for t in self._tasks.values() if not t.done][:8]
        raise RuntimeError(
            f"task graph finished with {remaining} unexecuted tasks "
            f"(missing dependency edges or a cycle); e.g. {stuck}"
        )

    def discard(self) -> None:
        """Drop the task table and every remaining closure.

        Task bodies and hooks capture this graph, the shuffles' bucket
        stores and the cogroups' tables, and the graph holds the tasks —
        a reference cycle that would keep a finished (or failed) job's
        intermediate partitions resident until the cyclic collector
        runs.  The scheduler calls this once ``run_graph`` is over; the
        result tasks it still holds keep only their ``result``.
        """
        for task in self._tasks.values():
            task.fn = task.on_complete = None
            task.children = []
        self._tasks = {}
        self._fresh = []

    # -- introspection (numpywren-style) --------------------------------

    def find_parents(self, key: tuple) -> list[tuple]:
        return list(self._tasks[key].parent_keys)

    def find_children(self, key: tuple) -> list[tuple]:
        return list(self._tasks[key].child_keys)

    def starters(self) -> list[tuple]:
        return [t.key for t in self._tasks.values() if not t.parent_keys]

    def terminators(self) -> list[tuple]:
        return [t.key for t in self._tasks.values() if not t.child_keys]


class _WideBuild:
    """Compilation record of one in-flight wide node.

    ``out_tasks[split]`` is the task whose completion guarantees the
    node's output partition ``split`` is readable through its pipeline
    slots; ``stats_task`` completes once the node's map-output
    statistics are final; ``stats()`` reads them (``None`` when the node
    never crossed the shuffle machinery).  ``has_stats`` is False when
    the accessor is known at compile time to return ``None``, so
    downstream skew planning need not wait on ``stats_task``.
    """

    def __init__(
        self,
        out_tasks: list[Task],
        stats_task: Task,
        stats: Callable[[], Any],
        has_stats: bool = True,
    ):
        self.out_tasks = out_tasks
        self.stats_task = stats_task
        self.stats = stats
        self.has_stats = has_stats


def compile_job_graph(
    rdd, func, task_seconds, metrics, runner, adaptive
) -> tuple[TaskGraph, list[Task], list]:
    """Compile one job into a task graph.

    Returns ``(graph, result_tasks, wide_nodes)``: the graph, the
    ``("result", split)`` tasks in partition order (their ``result``
    fields hold the job's answers after execution), and the wide nodes
    whose pipeline slots must be cleaned up if execution fails.
    """
    compiler = _JobCompiler(metrics, runner, adaptive)
    return compiler.compile(rdd, func, task_seconds)


class _JobCompiler:
    def __init__(self, metrics, runner, adaptive):
        self._metrics = metrics
        self._runner = runner
        self._adaptive = adaptive
        self.graph = TaskGraph()
        #: id(wide node) -> _WideBuild for nodes built by this job.
        self.builds: dict[int, _WideBuild] = {}
        self.wide_nodes: list = []

    def compile(self, rdd, func, task_seconds):
        self._collect(rdd, set())
        result_tasks = [
            self.graph.add_task(
                ("result", split),
                fn=self._make_result_fn(rdd, func, split, task_seconds),
                deps=self.narrow_deps(rdd, split),
            )
            for split in range(rdd.num_partitions)
        ]
        return self.graph, result_tasks, self.wide_nodes

    def _make_result_fn(self, rdd, func, split, task_seconds):
        def fn():
            with self._metrics.task_timer() as timer:
                self._runner.fault_point("result", split)
                result = func(rdd.iterator(split))
            task_seconds[split] = timer.own_seconds
            return result

        return fn

    # -- lineage walk ---------------------------------------------------

    def _collect(self, node, seen: set[int]) -> None:
        """Postorder walk mirroring ``prepare_execution``'s stopping rules."""
        from .rdd import CoGroupedRDD, ShuffledRDD

        if id(node) in seen:
            return
        seen.add(id(node))
        wide = isinstance(node, (ShuffledRDD, CoGroupedRDD))
        if wide and node._output is not None:
            return
        if node._cached and node.ctx.block_manager.contains_all(
            node.id, node.num_partitions
        ):
            return
        for dep in node.dependencies:
            self._collect(dep, seen)
        if wide:
            self._build_wide(node)

    def _build_wide(self, node) -> None:
        from .rdd import CoGroupedRDD

        if isinstance(node, CoGroupedRDD):
            self._build_cogroup(node)
            return
        if node._parent.partitioner == node.partitioner:
            self._build_local_combine(node)
            return
        blocks = node.ctx.block_manager
        opt_in = node._reuse_opt_in or node._parent._reuse_opt_in
        reused = blocks.lookup_shuffle(
            node._parent.id, node.partitioner, node._aggregator, opt_in=opt_in
        )
        if reused is not None:
            # Compile-time shuffle reuse: the node is a materialized leaf.
            node._map_stats = getattr(reused, "stats", None)
            node._output = reused
            return
        self._build_shuffle(node, opt_in)

    # -- wide node builders ---------------------------------------------

    def _build_local_combine(self, node) -> None:
        """Co-partitioned ShuffledRDD: one combine task per partition."""
        graph = self.graph
        node._pipeline_install()
        self.wide_nodes.append(node)
        count = node._parent.num_partitions
        seconds = [0.0] * count
        combine_tasks = []
        for split in range(count):

            def fn(split=split):
                combined, own = node._combine_partition(split)
                node._pipeline_fill(split, combined)
                seconds[split] = own

            combine_tasks.append(
                graph.add_task(
                    ("combine", node.id, split),
                    fn=fn,
                    deps=self.narrow_deps(node._parent, split),
                )
            )

        def finalize():
            self._metrics.record_stage(count, list(seconds))
            node._pipeline_promote(node._pipeline_slots)

        done = graph.add_task(
            ("combined", node.id), deps=combine_tasks, on_complete=finalize
        )
        self.builds[id(node)] = _WideBuild(
            combine_tasks, done, lambda: None, has_stats=False
        )

    def _build_shuffle(self, node, opt_in: bool) -> None:
        """ShuffledRDD whose data really crosses the shuffle machinery."""
        graph = self.graph
        metrics = self._metrics
        adaptive = self._adaptive
        parent = node._parent
        node._pipeline_install()
        self.wide_nodes.append(node)
        num_reducers = node.num_partitions
        shuffle = Shuffle(
            metrics, self._runner, node.partitioner, node._aggregator,
            stage_label=str(node.id),
        )
        # Virtual output slots: released when the partition's data lands
        # (directly after the map phase without an aggregator, from the
        # owning reduce task with one).
        out_tasks = [
            graph.add_task(("out", node.id, r), virtual_deps=1)
            for r in range(num_reducers)
        ]

        def add_map_task(slot, partition, records_fn, deps):
            def fn():
                shuffle.run_map_slot(slot, records_fn(), partition)

            return graph.add_task(("map", node.id) + slot, fn=fn, deps=deps)

        def normal_map_task(m, deps):
            return add_map_task(
                (m, 0), m, lambda m=m: parent.iterator(m), deps
            )

        def chunk_map_tasks(m, chunks, chain):
            return [
                add_map_task(
                    (m, c), m,
                    lambda m=m, chunk=chunk: adaptive.rebuild_chain(
                        chain, m, chunk
                    ),
                    (),
                )
                for c, chunk in enumerate(chunks)
            ]

        def maps_done_hook():
            stats = shuffle.finish_map_phase()
            blocks = node.ctx.block_manager
            if node._aggregator is None:
                buckets = ListOutput(
                    (shuffle.read_bucket(r) for r in range(num_reducers)),
                    stats,
                )
                for r in range(num_reducers):
                    node._pipeline_fill(r, buckets[r])
                node._map_stats = stats
                node._pipeline_promote(buckets)
                # Register the promoted handle (identical to ``buckets``
                # without a spill tier; a managed, spillable output with
                # one) so registry reuse survives eviction.
                blocks.register_shuffle(
                    parent.id, node.partitioner, None, node._output,
                    opt_in=opt_in,
                )
                for r in range(num_reducers):
                    graph.release(out_tasks[r])
                return
            groups = None
            if adaptive is not None:
                groups = adaptive.plan_reduce_groups(stats)
            if groups is None:
                groups = [[r] for r in range(num_reducers)]
            reduce_seconds = [0.0] * len(groups)
            reduce_tasks = []
            for gindex, group in enumerate(groups):

                def fn(gindex=gindex, group=group):
                    merged_buckets, own = shuffle.run_reduce_group(group)
                    for bid, merged in merged_buckets:
                        node._pipeline_fill(bid, merged)
                    reduce_seconds[gindex] = own

                def release_group(group=group):
                    for bid in group:
                        graph.release(out_tasks[bid])

                reduce_tasks.append(
                    graph.add_task(
                        ("reduce", node.id, group[0]),
                        fn=fn,
                        deps=[maps_done],
                        on_complete=release_group,
                    )
                )

            def reduces_done_hook():
                metrics.record_stage(len(groups), list(reduce_seconds))
                merged = ListOutput(node._pipeline_slots, stats)
                node._map_stats = stats
                node._pipeline_promote(merged)
                blocks.register_shuffle(
                    parent.id, node.partitioner, node._aggregator,
                    node._output, opt_in=opt_in,
                )

            graph.add_task(
                ("reduces-done", node.id),
                deps=reduce_tasks,
                on_complete=reduces_done_hook,
            )

        # Map-phase planning.  With adaptive skew splitting enabled and
        # the skew source still in flight in this very graph, planning is
        # deferred behind the source's statistics task — which costs
        # nothing, because every map task's data dependency (the source's
        # output partitions) already covers the stats barrier.
        source = None
        if adaptive is not None and adaptive.enabled:
            source = adaptive.find_skew_source(parent)
        source_build = None
        chain = source_node = None
        if source is not None:
            chain, source_node = source
            source_build = self.builds.get(id(source_node))
            if source_build is not None and not source_build.has_stats:
                source = source_build = None

        if source_build is None:
            # Static planning: the skew source (if any) is already
            # materialized, exactly like the staged path.
            splits: dict[int, int] = {}
            stats = base_output = None
            splittable = False
            if source is not None:
                stats = source_node.output_statistics()
                if (
                    stats is not None
                    and stats.num_partitions == source_node.num_partitions
                ):
                    splits = adaptive._plan_skew_splits(stats)
                if splits:
                    base_output = source_node._materialize()
                    splittable = getattr(
                        source_node, "_splittable_values", False
                    )
            map_tasks = []
            for m in range(parent.num_partitions):
                chunks = None
                if m in splits:
                    chunks = adaptive.plan_partition_chunks(
                        stats, splits, m, base_output[m], splittable
                    )
                if chunks is None:
                    map_tasks.append(
                        normal_map_task(m, self.narrow_deps(parent, m))
                    )
                else:
                    map_tasks.extend(chunk_map_tasks(m, chunks, chain))
            maps_done = graph.add_task(
                ("maps-done", node.id),
                deps=map_tasks,
                on_complete=maps_done_hook,
            )
        else:
            # Deferred planning: decide skew splits once the source's
            # map statistics land; chunk each hot partition as soon as
            # that specific partition lands.
            def source_partition(pid):
                slots = source_node._pipeline_slots
                if slots is not None:
                    return slots[pid]
                return source_node._materialize()[pid]

            def plan_hook():
                stats = source_build.stats()
                splits = {}
                if (
                    stats is not None
                    and stats.num_partitions == source_node.num_partitions
                ):
                    splits = adaptive._plan_skew_splits(stats)
                splittable = getattr(source_node, "_splittable_values", False)
                for m in range(parent.num_partitions):
                    if m not in splits:
                        graph.add_dependency(
                            maps_done,
                            normal_map_task(m, self.narrow_deps(parent, m)),
                        )
                        continue

                    def chunk_hook(m=m, stats=stats, splits=splits):
                        chunks = adaptive.plan_partition_chunks(
                            stats, splits, m, source_partition(m), splittable
                        )
                        if chunks is None:
                            graph.add_dependency(
                                maps_done, normal_map_task(m, ())
                            )
                        else:
                            for task in chunk_map_tasks(m, chunks, chain):
                                graph.add_dependency(maps_done, task)

                    chunk_plan = graph.add_task(
                        ("chunk-plan", node.id, m),
                        deps=[source_build.out_tasks[m]],
                        on_complete=chunk_hook,
                    )
                    graph.add_dependency(maps_done, chunk_plan)

            plan_task = graph.add_task(
                ("plan", node.id),
                deps=[source_build.stats_task],
                on_complete=plan_hook,
            )
            maps_done = graph.add_task(
                ("maps-done", node.id),
                deps=[plan_task],
                on_complete=maps_done_hook,
            )

        self.builds[id(node)] = _WideBuild(
            out_tasks, maps_done, lambda: shuffle.stats
        )

    def _build_cogroup(self, node) -> None:
        """CoGroupedRDD: per-parent bucket tasks + chained per-split merges.

        Merges for split ``p`` are chained across parents (parent ``i``'s
        merge depends on parent ``i-1``'s) so each key's value lists keep
        parent order and the grouped tables match the staged run exactly;
        different splits still pipeline independently.
        """
        graph = self.graph
        metrics = self._metrics
        runner = self._runner
        parents = node._parents
        arity = len(parents)
        num_parts = node.num_partitions
        node._pipeline_install()
        self.wide_nodes.append(node)
        node._parent_stats = [None] * arity
        blocks = node.ctx.block_manager

        grouped: list[dict] = [{} for _ in range(num_parts)]
        merge_seconds = [0.0] * num_parts
        stats_deps: list[Task] = []
        any_local = False
        prev_merges: Optional[list[Task]] = None

        for index, parent in enumerate(parents):
            if parent.partitioner == node.partitioner:
                any_local = True
                records_store: list = [None] * parent.num_partitions
                drain_seconds = [0.0] * parent.num_partitions
                drain_tasks = []
                for p in range(parent.num_partitions):

                    def fn(
                        p=p, index=index, parent=parent,
                        records_store=records_store,
                        drain_seconds=drain_seconds,
                    ):
                        records, own = node._drain_partition(parent, index, p)
                        records_store[p] = records
                        drain_seconds[p] = own

                    drain_tasks.append(
                        graph.add_task(
                            ("drain", node.id, index, p),
                            fn=fn,
                            deps=self.narrow_deps(parent, p),
                        )
                    )

                def drained_hook(
                    count=parent.num_partitions, drain_seconds=drain_seconds
                ):
                    metrics.record_stage(count, list(drain_seconds))

                stats_deps.append(
                    graph.add_task(
                        ("drained", node.id, index),
                        deps=drain_tasks,
                        on_complete=drained_hook,
                    )
                )
                bucket_tasks: Optional[list[Task]] = drain_tasks

                def bucket_of(p, records_store=records_store):
                    return records_store[p]

            else:
                opt_in = node._reuse_opt_in or parent._reuse_opt_in
                reused = blocks.lookup_shuffle(
                    parent.id, node.partitioner, None, opt_in=opt_in
                )
                if reused is not None:
                    node._parent_stats[index] = getattr(reused, "stats", None)
                    bucket_tasks = None

                    def bucket_of(p, reused=reused):
                        return reused[p]

                else:
                    pshuffle = Shuffle(
                        metrics, runner, node.partitioner, None,
                        stage_label=f"{node.id}.{index}",
                    )
                    map_tasks = []
                    for m in range(parent.num_partitions):

                        def fn(m=m, pshuffle=pshuffle, parent=parent):
                            pshuffle.run_map_slot((m, 0), parent.iterator(m), m)

                        map_tasks.append(
                            graph.add_task(
                                ("map", node.id, index, m),
                                fn=fn,
                                deps=self.narrow_deps(parent, m),
                            )
                        )
                    buckets_store: dict = {}

                    def shuffled_hook(
                        pshuffle=pshuffle, index=index, parent=parent,
                        opt_in=opt_in, buckets_store=buckets_store,
                    ):
                        stats = pshuffle.finish_map_phase()
                        buckets = ListOutput(
                            (pshuffle.read_bucket(r) for r in range(num_parts)),
                            stats,
                        )
                        buckets_store["buckets"] = buckets
                        node._parent_stats[index] = stats
                        blocks.register_shuffle(
                            parent.id, node.partitioner, None, buckets,
                            opt_in=opt_in,
                        )

                    maps_done = graph.add_task(
                        ("maps-done", node.id, index),
                        deps=map_tasks,
                        on_complete=shuffled_hook,
                    )
                    stats_deps.append(maps_done)
                    # A reduce bucket concatenates every map slot, so one
                    # barrier task guards all of this parent's buckets.
                    bucket_tasks = [maps_done] * num_parts

                    def bucket_of(p, buckets_store=buckets_store):
                        return buckets_store["buckets"][p]

            merges = []
            for p in range(num_parts):
                deps: list[Task] = []
                if bucket_tasks is not None:
                    deps.append(bucket_tasks[p])
                if prev_merges is not None:
                    deps.append(prev_merges[p])
                last = index == arity - 1

                def fn(p=p, index=index, bucket_of=bucket_of, last=last):
                    with metrics.task_timer() as timer:
                        runner.fault_point(f"merge:{node.id}", p)
                        merge_cogroup_bucket(
                            grouped[p], bucket_of(p), index, arity
                        )
                    merge_seconds[p] += timer.own_seconds
                    if last:
                        node._pipeline_fill(p, list(grouped[p].items()))
                        grouped[p] = None

                merges.append(
                    graph.add_task(
                        ("merge", node.id, index, p), fn=fn, deps=deps
                    )
                )
            prev_merges = merges

        last_merges = prev_merges

        def merges_done_hook():
            metrics.record_stage(num_parts, list(merge_seconds))
            node._pipeline_promote(node._pipeline_slots)

        graph.add_task(
            ("merges-done", node.id),
            deps=last_merges,
            on_complete=merges_done_hook,
        )
        stats_task = graph.add_task(("stats", node.id), deps=stats_deps)

        def stats_accessor():
            combined = None
            for stats in node._parent_stats:
                if stats is None:
                    return None
                combined = (
                    stats if combined is None else combined.merged_with(stats)
                )
            return combined

        self.builds[id(node)] = _WideBuild(
            last_merges, stats_task, stats_accessor, has_stats=not any_local
        )

    # -- narrow dependency resolution -----------------------------------

    def narrow_deps(self, node, split: int, acc: Optional[list] = None) -> list:
        """Tasks that must land before partition ``split`` of ``node``
        can be computed, following the same per-partition wiring the
        narrow ``compute`` methods use."""
        from .rdd import (
            CartesianRDD, CoGroupedRDD, MapPartitionsRDD,
            ParallelCollectionRDD, ShuffledRDD, UnionRDD,
        )

        if acc is None:
            acc = []
        build = self.builds.get(id(node))
        if build is not None:
            acc.append(build.out_tasks[split])
            return acc
        if isinstance(node, (ShuffledRDD, CoGroupedRDD)):
            return acc  # materialized, reused, or cached: a leaf
        if node._cached and node.ctx.block_manager.contains_all(
            node.id, node.num_partitions
        ):
            return acc
        if isinstance(node, MapPartitionsRDD):
            return self.narrow_deps(node._parent, split, acc)
        if isinstance(node, UnionRDD):
            for parent in node._parents:
                if split < parent.num_partitions:
                    return self.narrow_deps(parent, split, acc)
                split -= parent.num_partitions
            return acc
        if isinstance(node, CartesianRDD):
            left_split, right_split = divmod(
                split, node._right.num_partitions
            )
            self.narrow_deps(node._left, left_split, acc)
            return self.narrow_deps(node._right, right_split, acc)
        if isinstance(node, ParallelCollectionRDD) or not node.dependencies:
            return acc
        # Unknown narrow subclass: the partition mapping is opaque, so
        # depend conservatively on every output partition of every
        # in-flight wide node beneath it.
        self._all_wide_deps(node, acc, set())
        return acc

    def _all_wide_deps(self, node, acc: list, seen: set[int]) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        build = self.builds.get(id(node))
        if build is not None:
            acc.extend(build.out_tasks)
            return
        for dep in node.dependencies:
            self._all_wide_deps(dep, acc, seen)
