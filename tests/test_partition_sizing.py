"""Storage partitions are sized by bytes, not by the simulated cores.

Every storage builder without an explicit count asks
``EngineContext.partitions_for``: one partition per
``ClusterSpec.partition_bytes``, at least one, at most one per block and
at most ``default_parallelism``.  These tests pin the rule, the
``smooth_small_tiles`` shape it was written for, that an explicit count
or the session's hint wins, that SAC and the MLlib baseline cut one
array alike, and that nothing in it depends on the task runner.
"""

import numpy as np
import pytest

from repro import SacSession
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
    assert engine.default_parallelism == 88
    assert engine.partitions_for(0, 0) == 1
    assert engine.partitions_for(1, 10) == 1
    assert engine.partitions_for(MB, 10) == 1
    assert engine.partitions_for(MB + 1, 10) == 2
    # At most one partition per block ...
    assert engine.partitions_for(100 * MB, 3) == 3
    # ... and never more than the cluster's cores.
    assert engine.partitions_for(1000 * MB, 10_000) == 88


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
