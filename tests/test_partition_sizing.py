"""Partitions are sized by bytes, not by the simulated cores.

Every storage builder without an explicit count, and
``EngineContext.parallelize``, asks ``ClusterSpec.partitions_for``: one
partition per ``ClusterSpec.partition_bytes``, at least one and at most
one per block or record.  These tests pin the rule, the
``smooth_small_tiles`` shape it was written for, that an explicit count
or the session's hint wins, that SAC and the MLlib baseline cut one
array alike, and that nothing in it depends on the task runner.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import PlannerOptions, SacSession
from repro.engine import PAPER_CLUSTER, EngineContext
from repro.mllib import BlockMatrix
from repro.storage import SparseTiledMatrix, TiledMatrix, TiledVector

SMOOTH = "tiled(n,m)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- X ]"
MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
RNG = np.random.default_rng(28)
#: ``smooth_small_tiles``' matrix: 480² doubles, 1.8 MB in 14 400 tiles.
X_480 = RNG.random((480, 480))
#: Integer-valued, so the product is exact on any plan.
INT_400 = RNG.integers(-3, 4, size=(400, 400)).astype(float)
MB = 2**20


@pytest.fixture()
def engine():
    with EngineContext(cluster=PAPER_CLUSTER) as ctx:
        yield ctx


def test_rule_is_bytes_over_the_target_clamped(engine):
    assert engine.cluster.partition_bytes == MB
    assert engine.cluster.partitions_for(0, 0) == 1
    assert engine.cluster.partitions_for(1, 10) == 1
    assert engine.cluster.partitions_for(MB, 10) == 1
    assert engine.cluster.partitions_for(MB + 1, 10) == 2
    # At most one partition per block ...
    assert engine.cluster.partitions_for(100 * MB, 3) == 3
    # ... and as many as the bytes ask for, whatever cores the
    # simulated cluster has.
    assert engine.cluster.total_cores == 88
    assert engine.cluster.partitions_for(1000 * MB, 10_000) == 1000


def test_smooth_small_tiles_is_two_partitions_and_ten_tasks():
    with SacSession(tile_size=4, runner="serial") as session:
        x = session.tiled(X_480).materialize()
        assert x.tiles.num_partitions == 2
        snapshot = session.metrics_snapshot()
        for _step in range(4):
            x = session.run(SMOOTH, X=x, n=480, m=480).materialize()
        out = x.to_numpy()
        delta = session.metrics_delta(snapshot)
    expected = X_480
    for _step in range(4):
        expected = 0.5 * expected + 0.1 * expected * expected
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    # Four steps and the collect: five jobs of two tasks.
    assert (delta.stages, delta.tasks, delta.shuffles) == (5, 10, 0)


def test_every_builder_sizes_by_bytes(engine):
    # 3 MB of tiles: three partitions, whichever builder cuts them.
    a = RNG.random((640, 600))
    items = [((i, j), a[i, j]) for i in range(0, 640, 7) for j in range(0, 600, 5)]
    rdds = {
        "TiledMatrix.from_numpy": TiledMatrix.from_numpy(engine, a, 40).tiles,
        "BlockMatrix.from_numpy": BlockMatrix.from_numpy(engine, a, 40).blocks,
        "TiledMatrix.from_items":
            TiledMatrix.from_items(engine, 640, 600, 40, items).tiles,
        "TiledVector.from_numpy":
            TiledVector.from_numpy(engine, a.ravel(), 4000).blocks,
    }
    counts = {name: rdd.num_partitions for name, rdd in rdds.items()}
    assert counts == dict.fromkeys(rdds, 3)
    # Sparse tiles are priced on their stored CSC arrays: a block
    # diagonal of 16 stored tiles is far under 1 MB, whatever its shape.
    band = np.zeros((640, 640))
    for b in range(16):
        band[b * 40 : (b + 1) * 40, b * 40 : (b + 1) * 40] = 1.0
    sparse = SparseTiledMatrix.from_numpy(engine, band, 40)
    assert sparse.tiles.count() == 16
    assert sparse.tiles.num_partitions == 1


def test_explicit_count_wins():
    with SacSession(tile_size=4) as session:
        assert session.tiled(X_480, num_partitions=7).tiles.num_partitions == 7
        assert session.tiled_vector(
            X_480[0], num_partitions=3
        ).blocks.num_partitions == 3
        assert session.sparse_tiled(
            X_480[:40, :40], num_partitions=5
        ).tiles.num_partitions == 5


@pytest.mark.parametrize("shape,tile", [((480, 480), 4), ((250, 130), 40)])
def test_sac_and_the_baseline_cut_one_array_alike(engine, shape, tile):
    """Fig. 4 compares the two systems on one layout."""
    a = RNG.random(shape)
    sac = TiledMatrix.from_numpy(engine, a, tile).tiles
    mllib = BlockMatrix.from_numpy(engine, a, tile).blocks
    assert sac.num_partitions == mllib.num_partitions
    assert [
        [key for key, _tile in part] for part in sac.ctx.run_job(sac, list)
    ] == [[key for key, _block in part] for part in mllib.ctx.run_job(mllib, list)]


def _sized_run(runner):
    """Partition counts, counters and results of a chain and a multiply."""
    parts = []
    with SacSession(tile_size=4, runner=runner) as session:
        x = session.tiled(X_480).materialize()
        for _step in range(2):
            parts.append(x.tiles.num_partitions)
            x = session.run(SMOOTH, X=x, n=480, m=480).materialize()
        smoothed = x.to_numpy()
        chain = session.engine.metrics.total
    with SacSession(tile_size=40, runner=runner) as session:
        a = session.tiled(INT_400)
        parts.append(a.tiles.num_partitions)
        product = session.run(MULTIPLY, A=a, B=a, n=400, m=400).to_numpy()
        multiply = session.engine.metrics.total
    counters = [
        (t.stages, t.tasks, t.shuffles, t.shuffle_records, t.shuffle_bytes)
        for t in (chain, multiply)
    ]
    return parts, counters, smoothed, product


def test_counts_do_not_depend_on_the_runner():
    serial = _sized_run("serial")
    threads = _sized_run("threads")
    assert serial[0] == threads[0] == [2, 2, 2]
    assert serial[1] == threads[1]
    assert serial[1][1][2] > 0  # the multiply shuffles
    assert serial[2].tobytes() == threads[2].tobytes()
    expected = (INT_400 @ INT_400).tobytes()
    assert serial[3].tobytes() == threads[3].tobytes() == expected


#: The simulated cluster's fields: they price plans and nothing else.
SIMULATED_FIELDS = {
    "num_nodes", "executors_per_node", "cores_per_executor", "num_executors",
    "total_cores", "network_bandwidth", "spill_bandwidth",
    "task_launch_overhead", "compute_scale",
}
#: Where they may be read: the spec itself, the cost model, and two
#: functions — the simulated clock and the adaptive re-costing.
SIMULATED_READERS = {
    "engine/cluster.py": None,
    "planner/cost.py": None,
    "engine/metrics.py": "simulated_time",
    "planner/groupby_join.py": "reconsider_join_strategy",
}


def _simulated_reads(tree):
    """``(enclosing function, field)`` of every read of a simulated field."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in SIMULATED_FIELDS:
            reads.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads


def test_only_pricing_reads_the_simulated_fields():
    root = Path(repro.__file__).parent
    stray = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        allowed = SIMULATED_READERS.get(name, False)
        for function, field in _simulated_reads(ast.parse(path.read_text())):
            if allowed is None or allowed == function:
                continue
            stray.append(f"{name}:{function}: .{field}")
    assert stray == []
    # The walk sees the reads it allows.
    metrics = (root / "engine/metrics.py").read_text()
    assert ("simulated_time", "total_cores") in _simulated_reads(ast.parse(metrics))


def test_parallelize_sizes_by_the_records_bytes(engine):
    # 10⁵ (int, int) pairs account 26 bytes each: 2.6 MB, 3 partitions.
    pairs = [(i, i % 7) for i in range(10**5)]
    assert engine.parallelize(pairs).num_partitions == 3
    assert engine.parallelize(range(10)).num_partitions == 1
    assert engine.parallelize([]).num_partitions == 1
    assert engine.parallelize(pairs, 5).num_partitions == 5


def test_reduce_sides_follow_their_plans_not_the_cores():
    """SUMMA reduces into one partition per grid cell, a broadcast join
    into the partitions its result's bytes ask for, the coordinate rule
    at the width its rows' bytes ask for, and the MLlib baseline into
    its inputs' partition counts (Spark's rule)."""
    a = RNG.random((400, 400))
    with SacSession(tile_size=40, runner="serial") as session:
        A = session.tiled(a)
        summa = session.compile(MULTIPLY, A=A, B=A, n=400, m=400)
        assert summa.plan.details["strategy"] == "gbj-replicate"
        p_r, p_c = summa.plan.estimate.grid
        assert summa.plan.estimate.reduce_partitions == p_r * p_c
        assert summa.execute().tiles.num_partitions == p_r * p_c
    with SacSession(
        tile_size=40, runner="serial",
        options=PlannerOptions(strategy="gbj-broadcast-right"),
    ) as session:
        A = session.tiled(a)
        broadcast = session.compile(MULTIPLY, A=A, B=A, n=400, m=400)
        # 1.28 MB of result over 100 tiles: two partitions, not 88.
        assert broadcast.plan.estimate.reduce_partitions == 2
        assert broadcast.execute().tiles.num_partitions == 2
    with SacSession(
        tile_size=40, runner="serial",
        options=PlannerOptions(strategy="coordinate"),
    ) as session:
        A = session.tiled(a)
        records = session.compile(
            MULTIPLY, A=A, B=A, n=400, m=400
        ).plan.details["records"]
        width = int(re.search(r"shuffle width (\d+)", records)[1])
    # The cost model prices the coordinate candidate at that width.
    assert summa.plan.candidates["coordinate"].reduce_partitions == width == 8
    with EngineContext(cluster=PAPER_CLUSTER) as engine:
        left = BlockMatrix.from_numpy(engine, a, 40, num_partitions=3)
        right = BlockMatrix.from_numpy(engine, a, 40, num_partitions=5)
        assert left.add(right).blocks.num_partitions == 3
        product = left.multiply(right)
        assert product.blocks.num_partitions == 5
        np.testing.assert_allclose(product.to_numpy(), a @ a)
