"""Tile batches: a partition of same-shaped tiles held as two arrays.

``TiledMatrix.from_numpy`` stores a run of full tiles as one
:class:`~repro.engine.batch.TileBatch`; every consumer either reads it as
the records it stands for or reads its arrays whole.  These tests pin
that the two readings cost and compute the same: byte accounting, pickling,
``count``, the skew splitter's replay, and every tile consumer a batch
source reaches.
"""

import pickle

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.core import ops
from repro.engine import TINY_CLUSTER
from repro.engine.adaptive import AdaptiveManager
from repro.engine.batch import TileBatch
from repro.engine.serialization import RecordSizeAccountant
from repro.mllib import BlockMatrix
from repro.planner import RULE_TILED_SHUFFLE
from repro.storage.tiled import TiledMatrix

TILE = 3
RNG = np.random.default_rng(31)
# Integer-valued, so every sum is exact in any order.
A_NP = RNG.integers(-9, 10, size=(12, 9)).astype(np.float64)
B_NP = RNG.integers(-9, 10, size=(12, 9)).astype(np.float64)
C_NP = RNG.integers(-9, 10, size=(9, 6)).astype(np.float64)

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),c) <- C,"
    " kk == k, let v = a*c, group by (i,j) ]"
)
ADD = (
    "tiled(n,m)[ ((i,j),2.0*a-b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j ]"
)
SMOOTH = "tiled(n,m)[ ((i,j),0.5*a+0.1*a*a) | ((i,j),a) <- A ]"


def make_session(options=None):
    return SacSession(cluster=TINY_CLUSTER, tile_size=TILE, options=options)


def as_records(matrix):
    """The same tiles in the same partitions, as record lists."""
    tiles = matrix.tiles
    records = tiles.ctx.parallelize(tiles.collect(), tiles.num_partitions)
    return TiledMatrix(matrix.rows, matrix.cols, matrix.tile_size, records)


def batches(matrix):
    return [part for part in matrix.tiles._slices if type(part) is TileBatch]


def test_batch_size_is_the_per_record_walk():
    session = make_session()
    source = session.tiled(A_NP)
    assert batches(source)
    for batch in batches(source):
        assert RecordSizeAccountant().batch_size(batch) == (
            RecordSizeAccountant().batch_size(list(batch))
        )


def test_pickle_restores_the_arrays_without_the_record_cache():
    batch = batches(make_session().tiled(A_NP))[0]
    keys = [key for key, _ in batch]  # builds the cache
    back = pickle.loads(pickle.dumps(batch))
    assert type(back) is TileBatch and back._records is None
    assert back.coords.tobytes() == batch.coords.tobytes()
    assert back.values.tobytes() == batch.values.tobytes()
    assert [key for key, _ in back] == keys
    assert all(type(i) is int for key in keys for i in key)


@pytest.mark.parametrize("rows", [12, 11])
def test_count_is_the_number_of_tiles(rows):
    source = make_session().tiled(np.ones((rows, 9)), num_partitions=4)
    assert source.tiles.num_partitions == 4
    assert source.num_tiles() == source.grid_rows * source.grid_cols == 12
    # Four partitions of one tile row each; a ragged row stays a list.
    assert len(batches(source)) == (3 if rows % TILE else 4)


def test_skew_splitter_replays_the_kernel_over_a_sliced_batch():
    session = make_session()
    source = session.tiled(A_NP)
    result = session.run(SMOOTH, A=source, n=12, m=9)
    whole = result.tiles.ctx.run_job(result.tiles, lambda part: part)
    batch = source.tiles._slices[0]
    replayed = AdaptiveManager.rebuild_chain([result.tiles], 0, batch[1:3])
    assert type(whole[0]) is TileBatch and type(replayed) is TileBatch
    assert [key for key, _ in replayed] == [key for key, _ in batch][1:3]
    assert replayed.values.tobytes() == whole[0].values[1:3].tobytes()


def _both(options, consume):
    """``consume(session, A, B, C)`` over batch sources, then over the
    same tiles as record lists; both results."""
    results = []
    for batched in (True, False):
        session = make_session(options)
        sources = [session.tiled(x) for x in (A_NP, B_NP, C_NP)]
        assert all(type(part) is TileBatch for part in sources[0].tiles._slices)
        if not batched:
            sources = [as_records(source) for source in sources]
        results.append(consume(session, *sources))
    return results


#: name -> (planner options, query, dimensions, what ``explain`` shows)
QUERIES = {
    "5.1 fused scan": (None, SMOOTH, dict(n=12, m=9), "fused kernel"),
    "5.1 fused join": (None, ADD, dict(n=12, m=9), "fused kernel"),
    "5.1 unfused": (PlannerOptions(fusion=False), ADD, dict(n=12, m=9), "preserve-tiling"),
    "5.2 tiled shuffle": (
        None, "tiled(n,m)[ (((i+1)%n, j), a) | ((i,j),a) <- A ]",
        dict(n=12, m=9), RULE_TILED_SHUFFLE,
    ),
    "5.3 tiled reduce": (
        PlannerOptions(strategy="tiled-reduce"), MULTIPLY, dict(n=12, m=6),
        "tiled-reduce",
    ),
    "5.4 SUMMA": (
        PlannerOptions(strategy="gbj-replicate"), MULTIPLY, dict(n=12, m=6),
        "SUMMA",
    ),
    "broadcast join": (
        PlannerOptions(strategy="gbj-broadcast-right"), MULTIPLY,
        dict(n=12, m=6), "broadcast",
    ),
    "coordinate rule": (
        PlannerOptions(strategy="coordinate"),
        "tiled_vector(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
        dict(n=12), "column batches",
    ),
}


@pytest.mark.parametrize("name", list(QUERIES))
def test_every_rule_reads_a_batch_as_its_records(name):
    options, query, dims, shown = QUERIES[name]

    def consume(session, a, b, c):
        env = dict(A=a, B=b, C=c, **dims)
        assert shown in session.explain(query, env)
        return session.run(query, env).to_numpy()

    batched, records = _both(options, consume)
    assert batched.tobytes() == records.tobytes()


def _mllib(session, a, b, c):
    def block(m):
        return BlockMatrix(m.tiles, TILE, TILE, m.rows, m.cols, profile=None)

    return block(a).multiply(block(c)).to_numpy(), block(a).add(block(b)).to_numpy()


def test_mllib_core_ops_and_save_read_a_batch_as_its_records(tmp_path):
    def consume(session, a, b, c):
        path = str(tmp_path / "a.npz")
        a.save(path)
        return [
            *_mllib(session, a, b, c),
            ops.add(session, a, b).to_numpy(),
            TiledMatrix.load(session.engine, path).to_numpy(),
        ]

    batched, records = _both(None, consume)
    for got, want in zip(batched, records):
        assert got.tobytes() == want.tobytes()
