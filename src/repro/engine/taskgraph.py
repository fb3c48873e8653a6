"""Task graphs: how every job runs, one (stage, partition) task at a time.

This module compiles a lowered RDD program into an explicit graph of
fine-grained tasks:

* one **map task** per map slot of every shuffle the job has to run,
* one **reduce task** per reduce bucket,
* one **combine/drain/merge task** per partition of co-partitioned wide
  nodes and cogroups,
* one **result task** per partition of the job's target RDD,

with explicit parent/child edges (the numpywren ``find_parents`` /
``find_children`` / ``starters`` / ``terminators`` shape).  How the
graph is walked is the runner's business (see
:mod:`repro.engine.scheduler`): the serial runner takes the tasks in
creation order, which is a barrier schedule of the job's stages; the
threaded runner fires each task the moment the specific partitions it
reads have landed, so a straggling map task stalls only the tasks that
read its output.  Synthetic tasks (``fn is None``) act as phase barriers
and planning hooks; their ``on_complete`` callbacks run under the
graph's external lock and may *extend* the graph — this is how adaptive
skew splits are taken mid-flight from measured map statistics.

A wide node the graph produces keeps its partitions where the block
manager says (``BlockManager.new_output`` — a plain list, or budget
governed and spillable under a ``memory_limit``) from the first one on:
each task ``put``s its partition into the node's output handle as it
lands, the job's downstream tasks index the same handle, and when the
last partition has landed the handle becomes the node's ``_output``.
Map buckets wait for their reduce side in the block manager's bucket
store.  A job that fails drops the handles it did not finish, and the
node stays unmaterialized.

Every stage/task/shuffle counter is independent of the walk: map
buckets concatenate in deterministic slot order, one reduce task
merges each bucket, and a cogroup's merge folds its parents in parent
order.  Only the *recording order* of stages may differ.

The graph itself is **externally synchronized**: the runner serializes
all calls to :meth:`TaskGraph.complete` / :meth:`TaskGraph.add_task`
(under its graph lock in the threaded runner, trivially in the serial
one), so the graph keeps no lock of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .rdd import (
    CartesianRDD, CoGroupedRDD, MapPartitionsRDD, ShuffledRDD, UnionRDD,
)
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
        "pending", "children", "parent_keys", "done",
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
        # Most tasks of most graphs have no edges at all (a job with no
        # wide node in flight is a flat list of result tasks), so neither
        # container is allocated until an edge needs it.
        self.children: Any = ()
        self.parent_keys: Any = ()
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
            self._add_edge(parent, task)
        if task.pending == 0:
            self._fresh.append(task)
        return task

    @staticmethod
    def _add_edge(parent: Task, child: Task) -> None:
        if child.parent_keys:
            child.parent_keys.append(parent.key)
        else:
            child.parent_keys = [parent.key]
        if not parent.done:
            if parent.children:
                parent.children.append(child)
            else:
                parent.children = [child]
            child.pending += 1

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
        self._add_edge(parent, child)

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
        task.children = ()
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
        stores and the nodes' output handles, and the graph holds the
        tasks — a reference cycle that would keep a finished (or failed)
        job's intermediate partitions resident until the cyclic
        collector runs.  The compiled job's ``close()`` calls this once
        ``run_graph`` is over; the result tasks the scheduler still
        holds keep only their ``result``.
        """
        for task in self._tasks.values():
            task.fn = task.on_complete = None
            task.children = ()
        self._tasks = {}
        self._fresh = []

    # -- introspection (numpywren-style) --------------------------------

    def find_parents(self, key: tuple) -> list[tuple]:
        return list(self._tasks[key].parent_keys)

    def find_children(self, key: tuple) -> list[tuple]:
        return [t.key for t in self._tasks.values() if key in t.parent_keys]

    def starters(self) -> list[tuple]:
        return [t.key for t in self._tasks.values() if not t.parent_keys]

    def terminators(self) -> list[tuple]:
        parents = {key for t in self._tasks.values() for key in t.parent_keys}
        return [key for key in self._tasks if key not in parents]


class _WideBuild:
    """Compilation record of one wide node a graph is producing.

    ``output`` is the block manager's handle the node's partitions land
    in (it becomes the node's ``_output`` when the last one has);
    ``out_tasks[split]`` is the task whose completion guarantees
    partition ``split`` is readable from it; ``stats_task`` completes
    once the node's map-output statistics are final; ``stats()`` reads
    them (``None`` when the node never crossed the shuffle machinery).
    ``has_stats`` is False when the accessor is known at compile time to
    return ``None``, so downstream skew planning need not wait on
    ``stats_task``.
    """

    def __init__(
        self,
        node,
        output: Any,
        out_tasks: list[Task],
        stats_task: Task,
        stats: Callable[[], Any],
        has_stats: bool = True,
    ):
        self.node = node
        self.output = output
        self.out_tasks = out_tasks
        self.stats_task = stats_task
        self.stats = stats
        self.has_stats = has_stats

    def read(self, split: int) -> list:
        """Partition ``split``, for a task of the job that is producing it.

        A read before the partition landed means the graph is missing a
        dependency edge (or the reader is not part of this job), which
        must fail loudly rather than re-run the shuffle.
        """
        if not self.out_tasks[split].done:
            raise RuntimeError(
                f"read of partition {split} of rdd {self.node.id} before "
                f"it landed (missing task-graph dependency edge)"
            )
        return self.output[split]


def compile_job_graph(
    rdd, func, task_seconds, metrics, runner, adaptive
) -> "_JobCompiler":
    """Compile one job into a task graph.

    Returns the compiled job: its ``graph``, the ``("result", split)``
    tasks in partition order as ``result_tasks`` (their ``result``
    fields hold the job's answers after execution), and ``close()``,
    which the caller must run once the graph has — whether it succeeded
    or not.  ``func=None`` compiles the lazy materialization of the wide
    node ``rdd`` itself: that one node, no result tasks.
    """
    compiler = _JobCompiler(metrics, runner, adaptive)
    try:
        if func is None:
            compiler._build_wide(rdd)
        else:
            compiler.compile(rdd, func, task_seconds)
    except BaseException:
        compiler.close()
        raise
    return compiler


class _JobCompiler:
    def __init__(self, metrics, runner, adaptive):
        self._metrics = metrics
        self._runner = runner
        self._adaptive = adaptive
        self.graph = TaskGraph()
        self.result_tasks: list[Task] = []
        #: id(wide node) -> _WideBuild for nodes this graph produces.
        self.builds: dict[int, _WideBuild] = {}
        #: id(node) of cached, fully resident nodes the lineage walk
        #: stopped at (decided once per compile).
        self._leaves: set[int] = set()
        self._deps: dict[tuple[int, int], tuple] = {}
        #: id(node) -> node for wide nodes whose materialize lock this
        #: job holds (until the node is finished, or the job is).
        self._claimed: dict[int, Any] = {}
        #: owner -> (blocks, handle) of outputs begun and not finished.
        self._open: dict[str, tuple] = {}
        self._shuffles: list[Shuffle] = []

    def compile(self, rdd, func, task_seconds) -> None:
        wide: list = []
        self._collect(rdd, set(), wide)
        # Another job (or a lazy reader) may be producing one of these
        # nodes right now: wait for it.  Locks are taken downstream
        # first, the order a lazy materialization pulls its parents in.
        for node in sorted(wide, key=lambda node: node.id, reverse=True):
            node._materialize_lock.acquire()
            self._claimed[id(node)] = node
        for node in wide:
            if node._output is None:
                self._build_wide(node)
            if id(node) not in self.builds:
                self._release(node)  # materialized meanwhile, or reused
        metrics = self._metrics
        runner = self._runner

        def make_fn(split):
            def fn():
                with metrics.task_timer() as timer:
                    runner.fault_point("result", split)
                    result = func(rdd.iterator(split))
                task_seconds[split] = timer.own_seconds
                return result

            return fn

        self.result_tasks = [
            self.graph.add_task(
                ("result", split), fn=make_fn(split),
                deps=self.narrow_deps(rdd, split),
            )
            for split in range(rdd.num_partitions)
        ]

    # -- lineage walk ---------------------------------------------------

    def _collect(self, node, seen: set[int], wide: list) -> None:
        """Unmaterialized wide nodes of ``node``'s lineage, in postorder.

        Materialized wide nodes and fully cached RDDs stop the walk:
        their partitions replay from the block manager without touching
        parents (exactly what lazy evaluation would do).
        """
        if id(node) in seen:
            return
        seen.add(id(node))
        is_wide = isinstance(node, (ShuffledRDD, CoGroupedRDD))
        if is_wide and node._output is not None:
            return
        if node._cached and node.ctx.block_manager.contains_all(
            node.id, node.num_partitions
        ):
            self._leaves.add(id(node))
            return
        for dep in node.dependencies:
            self._collect(dep, seen, wide)
        if is_wide:
            wide.append(node)

    def _build_wide(self, node) -> None:
        if isinstance(node, CoGroupedRDD):
            self._build_cogroup(node)
            return
        # Fresh per materialization (a lineage-fallback re-run included).
        node._map_stats = None
        if node._parent.partitioner == node.partitioner:
            self._build_local_combine(node)
            return
        blocks = node.ctx.block_manager
        opt_in = node._reuse_opt_in or node._parent._reuse_opt_in
        reused = blocks.lookup_shuffle(
            node._parent.id, node.partitioner, node._aggregator
        ) if opt_in else None
        if reused is not None:
            # Compile-time shuffle reuse: the node is a materialized leaf.
            node._map_stats = getattr(reused, "stats", None)
            node._output = reused
            return
        self._build_shuffle(node, opt_in)

    # -- output handles and node state ----------------------------------

    def _new_output(self, blocks, owner: str, count: int) -> Any:
        """A handle this job must finish (:meth:`_keep`) or will drop."""
        output = blocks.new_output(owner, count)
        self._open[owner] = (blocks, output)
        return output

    def _node_output(self, node, count: int) -> Any:
        """The handle ``node``'s own partitions land in (see :meth:`_finish`)."""
        return self._new_output(node.ctx.block_manager, f"out/{node.id}", count)

    def _keep(self, owner: str) -> Any:
        """Every partition of ``owner``'s handle landed: it outlives the job."""
        blocks, output = self._open.pop(owner)
        # The next reader takes the partitions from split 0 up; restore
        # the early (spilled-first) ones ahead of it.
        blocks.prefetch_namespace(output.owner)
        return output

    def _drop(self, owner: str) -> None:
        """Nobody will read ``owner``'s handle again: free its partitions."""
        blocks, output = self._open.pop(owner)
        if output.owner is not None:
            blocks.drop_managed(output.owner)

    def _begin(self, node, build: _WideBuild) -> None:
        """Register ``node`` as being produced by this graph.

        A node the job claimed is published: the job's tasks read it
        through ``node._inflight``.  A lazily materialized node is read
        by no task of its own graph, so it stays unpublished and
        concurrent readers wait on its lock instead.
        """
        self.builds[id(node)] = build
        if id(node) in self._claimed:
            node._inflight = build

    def _finish(self, node) -> None:
        """The last partition of ``node`` landed: it is materialized."""
        node._output = self._keep(f"out/{node.id}")
        node._inflight = None
        self._release(node)

    def _release(self, node) -> None:
        if self._claimed.pop(id(node), None) is not None:
            node._materialize_lock.release()

    def _new_shuffle(self, blocks, partitioner, aggregator, label: str) -> Shuffle:
        shuffle = Shuffle(
            self._metrics, self._runner, partitioner, aggregator,
            stage_label=label, blocks=blocks,
        )
        self._shuffles.append(shuffle)
        return shuffle

    def close(self) -> None:
        """Release what the job held; drop what it did not finish.

        After a successful run there is nothing left to drop.  After a
        failure the unfinished nodes stay unmaterialized — their partial
        outputs, scratch handles and unread map buckets leave the block
        manager and the spill store — so a later job rebuilds them from
        scratch.  Either way the task table goes (see
        :meth:`TaskGraph.discard`).
        """
        for build in self.builds.values():
            build.node._inflight = None
        for node in list(self._claimed.values()):
            self._release(node)
        for owner in list(self._open):
            self._drop(owner)
        for shuffle in self._shuffles:
            shuffle.discard()
        self.graph.discard()

    # -- wide node builders ---------------------------------------------

    def _build_local_combine(self, node) -> None:
        """Co-partitioned ShuffledRDD: one combine task per partition."""
        graph = self.graph
        count = node._parent.num_partitions
        output = self._node_output(node, count)
        seconds = [0.0] * count

        def make_fn(split):
            def fn():
                combined, seconds[split] = node._combine_partition(split)
                output.put(split, combined)

            return fn

        combine_tasks = [
            graph.add_task(
                ("combine", node.id, split),
                fn=make_fn(split),
                deps=self.narrow_deps(node._parent, split),
            )
            for split in range(count)
        ]

        def finalize():
            self._metrics.record_stage(count, list(seconds))
            self._finish(node)

        done = graph.add_task(
            ("combined", node.id), deps=combine_tasks, on_complete=finalize
        )
        self._begin(node, _WideBuild(
            node, output, combine_tasks, done, lambda: None, has_stats=False
        ))

    def _build_shuffle(self, node, opt_in: bool) -> None:
        """ShuffledRDD whose data really crosses the shuffle machinery."""
        graph = self.graph
        metrics = self._metrics
        adaptive = self._adaptive
        parent = node._parent
        blocks = node.ctx.block_manager
        num_reducers = node.num_partitions
        output = self._node_output(node, num_reducers)
        shuffle = self._new_shuffle(
            blocks, node.partitioner, node._aggregator, str(node.id)
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

        def finish():
            self._finish(node)
            # Registered once complete, so registry reuse never serves a
            # half-filled handle.
            if opt_in:
                blocks.register_shuffle(
                    parent.id, node.partitioner, node._aggregator, output
                )

        def maps_done_hook():
            stats = shuffle.finish_map_phase()
            node._map_stats = output.stats = stats
            if node._aggregator is None:
                for r in range(num_reducers):
                    output.put(r, shuffle.read_bucket(r))
                finish()
                for r in range(num_reducers):
                    graph.release(out_tasks[r])
                return
            reduce_seconds = [0.0] * num_reducers
            reduce_tasks = []
            for r in range(num_reducers):

                def fn(r=r):
                    merged, reduce_seconds[r] = shuffle.run_reduce(r)
                    output.put(r, merged)

                reduce_tasks.append(
                    graph.add_task(
                        ("reduce", node.id, r),
                        fn=fn,
                        deps=[maps_done],
                        on_complete=lambda r=r: graph.release(out_tasks[r]),
                    )
                )

            def reduces_done_hook():
                metrics.record_stage(num_reducers, list(reduce_seconds))
                finish()

            graph.add_task(
                ("reduces-done", node.id),
                deps=reduce_tasks,
                on_complete=reduces_done_hook,
            )

        # Map-phase planning.  When the parent reads a wide stage through
        # element-wise ops (the skew source), the source's hot partitions
        # fan out over chunked map tasks.  A source already materialized
        # is planned now (reading its statistics materializes it); one
        # still in flight in this very graph is planned behind its
        # statistics task — which costs nothing, because every map
        # task's data dependency (the source's output partitions)
        # already covers the stats barrier.
        chain = source_node = source_build = None
        source = adaptive.find_skew_source(parent)
        if source is not None:
            chain, source_node = source
            source_build = self.builds.get(id(source_node))
            if source_build is not None and not source_build.has_stats:
                source = source_build = None
        splittable = getattr(source_node, "_splittable_values", False)

        def hot_map_tasks(m, stats, splits, records, deps):
            """Hot partition ``m``'s map tasks: its ``records`` in chunks,
            or one ordinary task when they are too few to slice."""
            chunks = adaptive.plan_partition_chunks(
                stats, splits, m, records, splittable
            )
            if chunks is None:
                return [normal_map_task(m, deps)]
            return chunk_map_tasks(m, chunks, chain)

        if source_build is None:
            splits: dict[int, int] = {}
            stats = base_output = None
            if source is not None:
                stats = source_node.output_statistics()
                splits = adaptive.plan_skew_splits(
                    stats, source_node.num_partitions
                )
                if splits:
                    base_output = source_node._materialize()
            map_tasks = []
            for m in range(parent.num_partitions):
                deps = self.narrow_deps(parent, m)
                if m in splits:
                    map_tasks.extend(
                        hot_map_tasks(m, stats, splits, base_output[m], deps)
                    )
                else:
                    map_tasks.append(normal_map_task(m, deps))
            maps_done = graph.add_task(
                ("maps-done", node.id),
                deps=map_tasks,
                on_complete=maps_done_hook,
            )
        else:
            # Chunk each hot partition as soon as that partition lands.
            def plan_hook():
                stats = source_build.stats()
                splits = adaptive.plan_skew_splits(
                    stats, source_node.num_partitions
                )
                for m in range(parent.num_partitions):
                    if m not in splits:
                        graph.add_dependency(
                            maps_done,
                            normal_map_task(m, self.narrow_deps(parent, m)),
                        )
                        continue

                    def chunk_hook(m=m, stats=stats, splits=splits):
                        for task in hot_map_tasks(
                            m, stats, splits, source_build.output[m], ()
                        ):
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

        self._begin(node, _WideBuild(
            node, output, out_tasks, maps_done, lambda: shuffle.stats
        ))

    def _build_cogroup(self, node) -> None:
        """CoGroupedRDD: per-parent bucket tasks, then one merge per split.

        A merge task folds the parents' buckets for its split in parent
        order, so each key's value lists keep parent order and only that
        split's table is being built at a time — under a memory cap the
        buckets restore from the spill tier as they are read and the
        finished table goes straight under the budget.  Different splits
        still pipeline independently.
        """
        graph = self.graph
        metrics = self._metrics
        runner = self._runner
        parents = node._parents
        arity = len(parents)
        num_parts = node.num_partitions
        blocks = node.ctx.block_manager
        output = self._node_output(node, num_parts)
        # Fresh per materialization: a lineage-fallback re-run (lost
        # spill) must not see stale per-parent histograms.
        node._parent_stats = [None] * arity

        #: Per parent: the handle its buckets land in, and per split the
        #: task that lands it (``None``: a retained shuffle, already there).
        parent_buckets: list = []
        bucket_tasks: list = []
        stats_deps: list[Task] = []
        #: Owners of bucket handles only this node's merges read.
        scratch: list[str] = []
        any_local = False

        for index, parent in enumerate(parents):
            if parent.partitioner == node.partitioner:
                # Already co-partitioned: drain parent partitions in
                # place into a scratch handle.
                any_local = True
                count = parent.num_partitions
                scratch_owner = f"scratch/{node.id}.{index}"
                scratch.append(scratch_owner)
                drained = self._new_output(blocks, scratch_owner, count)
                drain_seconds = [0.0] * count

                def make_drain(p, index=index, parent=parent, drained=drained,
                               drain_seconds=drain_seconds):
                    def fn():
                        records, drain_seconds[p] = node._drain_partition(
                            parent, index, p
                        )
                        drained.put(p, records)

                    return fn

                drain_tasks = [
                    graph.add_task(
                        ("drain", node.id, index, p),
                        fn=make_drain(p),
                        deps=self.narrow_deps(parent, p),
                    )
                    for p in range(count)
                ]

                def drained_hook(
                    count=count, drain_seconds=drain_seconds, drained=drained
                ):
                    metrics.record_stage(count, list(drain_seconds))
                    blocks.prefetch_namespace(drained.owner)

                stats_deps.append(
                    graph.add_task(
                        ("drained", node.id, index),
                        deps=drain_tasks,
                        on_complete=drained_hook,
                    )
                )
                parent_buckets.append(drained)
                bucket_tasks.append(drain_tasks)
                continue
            opt_in = node._reuse_opt_in or parent._reuse_opt_in
            reused = blocks.lookup_shuffle(
                parent.id, node.partitioner, None
            ) if opt_in else None
            if reused is not None:
                node._parent_stats[index] = getattr(reused, "stats", None)
                blocks.prefetch_namespace(reused.owner)
                parent_buckets.append(reused)
                bucket_tasks.append(None)
                continue
            label = f"{node.id}.{index}"
            pshuffle = self._new_shuffle(blocks, node.partitioner, None, label)
            buckets = self._new_output(blocks, f"out/{label}", num_parts)

            def make_map(m, pshuffle=pshuffle, parent=parent):
                def fn():
                    pshuffle.run_map_slot((m, 0), parent.iterator(m), m)

                return fn

            map_tasks = [
                graph.add_task(
                    ("map", node.id, index, m),
                    fn=make_map(m),
                    deps=self.narrow_deps(parent, m),
                )
                for m in range(parent.num_partitions)
            ]

            def shuffled_hook(
                pshuffle=pshuffle, index=index, parent=parent,
                opt_in=opt_in, buckets=buckets, label=label,
            ):
                stats = pshuffle.finish_map_phase()
                node._parent_stats[index] = buckets.stats = stats
                for r in range(num_parts):
                    buckets.put(r, pshuffle.read_bucket(r))
                if opt_in:
                    blocks.register_shuffle(
                        parent.id, node.partitioner, None, buckets
                    )
                    self._keep(f"out/{label}")
                else:
                    scratch.append(f"out/{label}")
                    blocks.prefetch_namespace(buckets.owner)

            maps_done = graph.add_task(
                ("maps-done", node.id, index),
                deps=map_tasks,
                on_complete=shuffled_hook,
            )
            stats_deps.append(maps_done)
            parent_buckets.append(buckets)
            # A reduce bucket concatenates every map slot, so one
            # barrier task guards all of this parent's buckets.
            bucket_tasks.append([maps_done] * num_parts)

        merge_seconds = [0.0] * num_parts

        def make_merge(p):
            def fn():
                with metrics.task_timer() as timer:
                    table: dict[Any, tuple[list, ...]] = {}
                    for index in range(arity):
                        runner.fault_point(f"merge:{node.id}", p)
                        merge_cogroup_bucket(
                            table, parent_buckets[index][p], index, arity
                        )
                output.put(p, list(table.items()))
                merge_seconds[p] = timer.own_seconds

            return fn

        merges = [
            graph.add_task(
                ("merge", node.id, p),
                fn=make_merge(p),
                deps=[tasks[p] for tasks in bucket_tasks if tasks is not None],
            )
            for p in range(num_parts)
        ]

        def merges_done_hook():
            metrics.record_stage(num_parts, list(merge_seconds))
            for scratch_owner in scratch:
                self._drop(scratch_owner)
            self._finish(node)

        graph.add_task(
            ("merges-done", node.id), deps=merges, on_complete=merges_done_hook
        )
        stats_task = graph.add_task(("stats", node.id), deps=stats_deps)
        self._begin(node, _WideBuild(
            node, output, merges, stats_task, node._combined_statistics,
            has_stats=not any_local,
        ))

    # -- narrow dependency resolution -----------------------------------

    def narrow_deps(self, node, split: int) -> tuple:
        """Tasks that must land before partition ``split`` of ``node``
        can be computed, following the same per-partition wiring the
        narrow ``compute`` methods use.

        Nothing in flight means nothing to wait for, whatever the
        lineage looks like; otherwise each ``(node, split)`` is resolved
        once per compile, however many consumers share the chain.
        """
        if not self.builds:
            return ()
        key = (id(node), split)
        deps = self._deps.get(key)
        if deps is None:
            deps = self._deps[key] = self._resolve_deps(node, split)
        return deps

    def _resolve_deps(self, node, split: int) -> tuple:
        build = self.builds.get(id(node))
        if build is not None:
            return (build.out_tasks[split],)
        if id(node) in self._leaves or isinstance(
            node, (ShuffledRDD, CoGroupedRDD)
        ):
            return ()  # cached, materialized or reused: a leaf
        if isinstance(node, MapPartitionsRDD):
            return self.narrow_deps(node._parent, split)
        if isinstance(node, UnionRDD):
            for parent in node._parents:
                if split < parent.num_partitions:
                    return self.narrow_deps(parent, split)
                split -= parent.num_partitions
            return ()
        if isinstance(node, CartesianRDD):
            left_split, right_split = divmod(
                split, node._right.num_partitions
            )
            return (
                self.narrow_deps(node._left, left_split)
                + self.narrow_deps(node._right, right_split)
            )
        # Unknown narrow subclass: the partition mapping is opaque, so
        # depend conservatively on every output partition of every
        # in-flight wide node beneath it (a source has none).
        acc: list = []
        self._all_wide_deps(node, acc, set())
        return tuple(acc)

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
