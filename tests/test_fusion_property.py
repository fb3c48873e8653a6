"""Rule 5.1's generated kernel against a NumPy oracle.

A preserve-tiling query runs as one generated NumPy kernel per
partition, once per batch of same-shaped tiles — a tile batch partition
as it is stored, a record list grouped first.  The contract is *byte
identity* with the oracle: the head evaluated by ``compile_vectorized``
over the whole dense operands (not allclose — the kernel emits the same
ufunc calls, and an elementwise ufunc is exact per element however its
input is batched).  These tests fuzz that contract over random heads,
guards and declared extents on both partition kinds, pin it across the
serial/threaded runners, and cover the batch boundaries (ragged groups,
dropped and trimmed tiles, chunk budget, record order, spill), a head
with no vectorized form, the kernel cache counters, the explain()
surfacing, and the vectorized ``partition_batch`` fast path.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SacSession
from repro.comprehension.parser import parse
from repro.engine import TINY_CLUSTER
from repro.engine.batch import TileBatch
from repro.engine.partitioner import GridPartitioner, HashPartitioner
from repro.planner import RULE_COORDINATE, RULE_PRESERVE_TILING
from repro.planner.kernels import compile_vectorized
from repro.storage.tiled import TiledMatrix

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

dims = st.integers(min_value=1, max_value=23)
tile_sizes = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def make_session(tile_size, runner=None, **session_args):
    return SacSession(
        cluster=TINY_CLUSTER, tile_size=tile_size, runner=runner, **session_args,
    )


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).uniform(-5, 5, size=(rows, cols))


def oracle(head, shape, guards=(), **operands):
    """``head`` over whole dense ``operands`` of ``shape``, with
    ``np.indices`` grids bound to ``i`` (and ``j``); each guard zeroes
    the elements it rejects."""
    env = dict(zip("ij", np.indices(shape)), **operands)
    value = np.asarray(compile_vectorized(parse(head))(env), dtype=np.float64)
    if value.shape != shape:
        value = np.broadcast_to(value, shape).copy()
    for guard in guards:
        mask = np.asarray(compile_vectorized(parse(guard))(env), dtype=bool)
        value = np.where(mask, value, 0.0)
    return value


def fit(array, declared):
    """``array`` cut or zero-filled to the declared extent."""
    out = np.zeros(declared)
    region = tuple(slice(min(a, d)) for a, d in zip(array.shape, declared))
    out[region] = array[region]
    return out


def guards_of(guard):
    """``", i != j, i + j > 3"`` as its guard expressions."""
    return [part.strip() for part in guard.split(",") if part.strip()]


def _run_fused(query, env_of, tile, runner=None, **session_args):
    """``query``'s result as an ndarray, after checking it took rule 5.1."""
    session = make_session(tile, runner=runner, **session_args)
    env = env_of(session)
    _assert_fused(session, query, env)
    result = session.run(query, env).to_numpy()
    session.engine.close()
    return result


def _assert_fused(session, query, env):
    """The compile must actually run the generated kernel (guards the
    fuzz against silently testing another rule)."""
    plan = session.compile(query, env).plan
    assert plan.rule == RULE_PRESERVE_TILING, plan.rule
    assert len(plan.fused_kernels()) == 1


def tiled_source(session, data, source):
    """``data`` as a tiled matrix: ``from_numpy`` (tile batches, a ragged
    edge's partitions record lists) or ``from_items`` (record lists)."""
    if source == "batches":
        return session.tiled(data)
    rows, cols = data.shape
    items = [((i, j), float(data[i, j])) for i in range(rows) for j in range(cols)]
    return TiledMatrix.from_items(
        session.engine, rows, cols, session.tile_size, items,
    )


# ----------------------------------------------------------------------
# Differential fuzz: random chains, fused vs the NumPy oracle, byte-identical
# ----------------------------------------------------------------------

SINGLE_HEADS = [
    "2.0*v", "v+1.0", "v*v", "v-0.5", "0.5*v+2.0*v*v", "v/4.0", "0.0-v",
    # index grids; a scalar head (the broadcast_to(...).copy() branch)
    "v+2.0*i-j", "3.5",
]
DOUBLE_HEADS = ["a+b", "a*b", "2.0*a-b", "a-b+1.0", "a+i*1.0"]
# i == j would be a join *equality* (it unifies the index classes and
# changes the plan shape), so only order/inequality guards appear here.
GUARDS = ["", ", i != j", ", i < j", ", i > j"]
SOURCES = ["batches", "records"]
#: Declared extent = traversed minus this: 0 keeps every tile, more
#: drops whole tiles and trims the one the declared edge cuts.
cuts = st.integers(min_value=0, max_value=5)


@SETTINGS
@given(
    n=dims, m=dims, tile=tile_sizes, seed=seeds,
    head=st.sampled_from(SINGLE_HEADS),
    guard=st.sampled_from(GUARDS),
    transpose=st.booleans(),
    source=st.sampled_from(SOURCES),
    cut_n=cuts, cut_m=cuts,
)
def test_single_generator_chain_byte_identical(
    n, m, tile, seed, head, guard, transpose, source, cut_n, cut_m
):
    data = random_matrix(n, m, seed)
    dn, dm = max(1, n - cut_n), max(1, m - cut_m)
    want = oracle(head, (n, m), guards_of(guard), v=data)
    if transpose:
        query = f"tiled(dm,dn)[ ((j,i),{head}) | ((i,j),v) <- M{guard} ]"
        want = fit(want.T, (dm, dn))
    else:
        query = f"tiled(dn,dm)[ ((i,j),{head}) | ((i,j),v) <- M{guard} ]"
        want = fit(want, (dn, dm))

    def env_of(session):
        return dict(M=tiled_source(session, data, source), dn=dn, dm=dm)

    assert _run_fused(query, env_of, tile).tobytes() == want.tobytes()
    # Every partition enters the kernel as what it is stored as.
    session = make_session(tile)
    env = env_of(session)
    stored = env["M"].tiles._slices
    session.run(query, env).materialize()
    total = session.engine.metrics.total
    assert total.kernel_batch_inputs == sum(type(p) is TileBatch for p in stored)
    assert total.kernel_batch_inputs + total.kernel_record_inputs == len(stored)


@SETTINGS
@given(
    n=dims, m=dims, tile=tile_sizes, seed=seeds,
    head=st.sampled_from(DOUBLE_HEADS),
    guard=st.sampled_from(GUARDS),
    source=st.sampled_from(SOURCES),
    cut_n=cuts,
)
def test_two_generator_chain_byte_identical(
    n, m, tile, seed, head, guard, source, cut_n
):
    left = random_matrix(n, m, seed)
    right = random_matrix(n, m, seed + 1)
    dn = max(1, n - cut_n)
    query = (
        f"tiled(dn,m)[ ((i,j),{head}) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
        f" ii == i, jj == j{guard} ]"
    )
    want = oracle(head, (n, m), guards_of(guard), a=left, b=right)

    def env_of(session):
        return dict(
            A=tiled_source(session, left, source),
            B=tiled_source(session, right, source), dn=dn, m=m,
        )

    fused = _run_fused(query, env_of, tile)
    assert fused.tobytes() == fit(want, (dn, m)).tobytes()


@SETTINGS
@given(n=dims, tile=tile_sizes, seed=seeds, head=st.sampled_from(
    ["2.0*x+1.0", "x*x", "x/3.0"]
))
def test_vector_chain_byte_identical(n, tile, seed, head):
    data = np.random.default_rng(seed).uniform(-5, 5, size=n)
    query = f"tiled_vector(n)[ (i,{head}) | (i,x) <- V ]"

    def env_of(session):
        return dict(V=session.tiled_vector(data), n=n)

    fused = _run_fused(query, env_of, tile)
    assert fused.tobytes() == oracle(head, (n,), x=data).tobytes()


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=20), seed=seeds,
    head=st.sampled_from(SINGLE_HEADS), source=st.sampled_from(SOURCES),
)
def test_chain_under_a_memory_cap_byte_identical(n, seed, head, source):
    """Spilled and restored partitions (a batch pickles as its two
    arrays) feed the kernel as they were stored."""
    data = random_matrix(n, n, seed)
    query = f"tiled(n,n)[ ((i,j),{head}) | ((i,j),v) <- M ]"
    want = oracle(head, (n, n), v=data).tobytes()
    for limit in (None, 2048):
        def env_of(session):
            return dict(M=tiled_source(session, data, source).materialize(), n=n)

        fused = _run_fused(query, env_of, 2, memory_limit=limit)
        assert fused.tobytes() == want


# ----------------------------------------------------------------------
# Scalar bindings become literals in the kernel text: every float64 value
# must survive the rendering, the non-finite ones included
# ----------------------------------------------------------------------


@pytest.mark.parametrize("c", [
    float("inf"), float("-inf"), float("nan"), -0.0, 1e-320,
    np.float64(0.1), np.float64("-inf"), np.int64(3),
], ids=repr)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0
def test_scalar_binding_literals_match_interpreter(c):
    query = "tiled(n,m)[ ((i,j), c*x + c) | ((i,j),x) <- A ]"
    data = random_matrix(4, 4, 11)
    data[0, 0] = 0.0  # inf * 0 -> nan, -0.0 * 0 keeps its sign
    session = make_session(2)
    env = dict(A=session.tiled(data), n=4, m=4, c=c)
    if not isinstance(c, np.integer):  # not a planner constant: coordinate rule
        _assert_fused(session, query, env)
    result = session.run(query, env).to_numpy()
    assert result.tobytes() == oracle("c*x + c", (4, 4), x=data, c=c).tobytes()
    assert np.array_equal(result, c * data + c, equal_nan=True)


def test_non_finite_literals_keep_distinct_fingerprints():
    from repro.planner.kernels import literal_source

    values = [float("inf"), float("-inf"), float("nan"), np.float64("inf")]
    texts = [literal_source(v) for v in values]
    assert len(set(texts)) == len(texts)
    for value, text in zip(values, texts):
        back = eval(text, {"np": np})
        assert type(back) is type(value)
        assert np.array([back]).tobytes() == np.array([value]).tobytes()


# ----------------------------------------------------------------------
# Runner matrix: serial/threaded
# ----------------------------------------------------------------------

RUNNER_MATRIX = [None, "threads"]

#: query -> its oracle over the two operands ``M`` and ``N2``.
MATRIX_QUERIES = {
    "tiled(n,m)[ ((i,j),2.0*v+1.0) | ((i,j),v) <- M, i != j ]": (
        lambda left, right: oracle("2.0*v+1.0", left.shape, ["i != j"], v=left)
    ),
    "tiled(m,n)[ ((j,i),v*v) | ((i,j),v) <- M ]": (
        lambda left, right: oracle("v*v", left.shape, v=left).T
    ),
    (
        "tiled(n,m)[ ((i,j),a-2.0*b) | ((i,j),a) <- M, ((ii,jj),b) <- N2,"
        " ii == i, jj == j ]"
    ): lambda left, right: oracle("a-2.0*b", left.shape, a=left, b=right),
}


@pytest.mark.parametrize("query", list(MATRIX_QUERIES))
def test_runner_matrix_byte_identical(query):
    n, m, tile = 23, 17, 6
    left = random_matrix(n, m, 11)
    right = random_matrix(n, m, 12)
    want = MATRIX_QUERIES[query](left, right)

    def env_of(session):
        return dict(
            M=session.tiled(left), N2=session.tiled(right), n=n, m=m
        )

    for runner in RUNNER_MATRIX:
        fused = _run_fused(query, env_of, tile, runner=runner)
        assert fused.tobytes() == want.tobytes(), runner


# ----------------------------------------------------------------------
# Batch boundaries: ragged groups, chunk budget, record order, spill
# ----------------------------------------------------------------------

#: 11x14 at tile 4, all in ONE partition, declared 9x9: full tiles, a
#: right-edge column trimmed to width 1, a bottom-edge row trimmed to
#: height 1, their corner, and tile column 3 wholly outside the
#: declared extent — every group the kernel can form, interleaved: a
#: record list.  12x16 is the same cut through a tile batch.
RAGGED_ROWS, RAGGED_COLS, RAGGED_TILE = 11, 14, 4
FULL_ROWS, FULL_COLS = 12, 16

#: query -> (head, guards, transposed, declared extent) for its oracle.
BOUNDARY_QUERIES = {
    # plain chain; index grids (i and j read); transposed axis map with
    # a grid; scalar-constant head (the broadcast_to(...).copy() branch);
    # guard masks over the batched grids
    "tiled(9,9)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- M ]": (
        "0.5*v+0.1*v*v", (), False, (9, 9)),
    "tiled(9,9)[ ((i,j),v+2.0*i-j) | ((i,j),v) <- M ]": (
        "v+2.0*i-j", (), False, (9, 9)),
    "tiled(9,9)[ ((j,i),v*v+i) | ((i,j),v) <- M ]": (
        "v*v+i", (), True, (9, 9)),
    "tiled(9,9)[ ((i,j),3.5) | ((i,j),v) <- M ]": ("3.5", (), False, (9, 9)),
    "tiled(9,9)[ ((i,j),v-1.0) | ((i,j),v) <- M, i != j, i + j > 3 ]": (
        "v-1.0", ("i != j", "i + j > 3"), False, (9, 9)),
    # declared beyond the input on one axis, inside it on the other
    "tiled(20,9)[ ((i,j),v+1.0) | ((i,j),v) <- M ]": (
        "v+1.0", (), False, (20, 9)),
}


def _fused_kernel(session, query, env):
    """The compiled per-partition callable of ``query``'s fused chain."""
    from repro.planner.codegen import get_fused_kernel

    (entry,) = session.compile(query, env).plan.fused_kernels()
    return get_fused_kernel(entry["fingerprint"], entry["source"])


@pytest.mark.parametrize("query", list(BOUNDARY_QUERIES))
def test_ragged_partition_tiles_and_order_match_interpreter(query):
    head, guards, transposed, declared = BOUNDARY_QUERIES[query]
    n = RAGGED_TILE
    for shape, batched in (((RAGGED_ROWS, RAGGED_COLS), 0), ((FULL_ROWS, FULL_COLS), 1)):
        data = random_matrix(*shape, 21)
        session = make_session(n)
        source = session.tiled(data, num_partitions=1)
        _assert_fused(session, query, dict(M=source))
        tiles = session.run(query, M=source).tiles.collect()
        # The partition entered the kernel as stored.
        assert session.engine.metrics.total.kernel_batch_inputs == batched
        want = oracle(head, shape, guards, v=data)
        if transposed:
            want = want.T
        # Tiles end at the traversed extent: cut, never zero-filled.
        want = want[tuple(slice(d) for d in declared)]
        # Input record order, less the tiles wholly outside the output.
        keys = [key[::-1] if transposed else key for key, _ in source.tiles.collect()]
        assert [key for key, _ in tiles] == [
            key for key in keys
            if all(c * n < extent for c, extent in zip(key, want.shape))
        ]
        for (r, c), got in tiles:
            block = want[r * n:(r + 1) * n, c * n:(c + 1) * n]
            assert got.dtype == block.dtype and got.shape == block.shape
            assert got.tobytes() == block.tobytes()


def test_output_order_is_input_record_order():
    """Groups interleave in a shuffled partition; outputs must not."""
    session = make_session(RAGGED_TILE)
    query = list(BOUNDARY_QUERIES)[1]
    source = session.tiled(
        random_matrix(RAGGED_ROWS, RAGGED_COLS, 22), num_partitions=1
    )
    kernel = _fused_kernel(session, query, dict(M=source))
    records = source.tiles.collect()
    np.random.default_rng(5).shuffle(records)
    batched = kernel(records)
    # One record at a time is the unbatched kernel: a chunk of one.
    single = [out for record in records for out in kernel([record])]
    assert [key for key, _ in batched] == [key for key, _ in single]
    assert [key for key, _ in batched] == [
        key for key, _ in records if key[1] * RAGGED_TILE < 9
    ]
    for (_, got), (_, want) in zip(batched, single):
        assert got.tobytes() == want.tobytes()
    # A batch cut by the declared extent comes back as its records.
    full = session.tiled(random_matrix(FULL_ROWS, FULL_COLS, 22), num_partitions=1)
    (batch,) = full.tiles._slices
    kernel = _fused_kernel(session, query, dict(M=full))
    from_batch, from_records = kernel(batch), kernel(list(batch))
    assert type(from_batch) is list
    assert [key for key, _ in from_batch] == [key for key, _ in from_records]
    for (_, got), (_, want) in zip(from_batch, from_records):
        assert got.tobytes() == want.tobytes()


def _mixed_records(with_list):
    rng = np.random.default_rng(23)
    ints = [rng.integers(-50, 50, size=(4, 4)) for _ in range(3)]
    return [
        ((0, 0), rng.uniform(-5, 5, size=(4, 4))),
        ((0, 1), ints[0]),
        ((1, 0), rng.uniform(-5, 5, size=(4, 4)).astype(np.float32)),
        ((1, 1), ints[1].tolist() if with_list else ints[1]),
        ((2, 0), rng.uniform(-5, 5, size=(4, 4))),
        ((2, 1), ints[2]),
    ]


@pytest.mark.parametrize("head,with_list", [
    # ``v/4`` floors on integer tiles and divides on float ones, so a
    # stack that mixed the dtypes would change the answer.
    ("v/4", False),
    # A nested-list tile (NumPy ufuncs accept one).
    ("2.0*v+1.0", True),
])
def test_mixed_dtype_and_non_ndarray_tiles_take_their_own_groups(
    head, with_list
):
    query = f"tiled(12,8)[ ((i,j),{head}) | ((i,j),v) <- M ]"
    session = make_session(4)
    source = TiledMatrix(
        12, 8, 4, session.engine.parallelize(_mixed_records(with_list), 1)
    )
    _assert_fused(session, query, dict(M=source))
    fused = session.run(query, M=source).to_numpy()
    # Each tile is its block's whole operand, in its own dtype.
    want = np.zeros((12, 8))
    for (r, c), tile in _mixed_records(with_list):
        want[r * 4:(r + 1) * 4, c * 4:(c + 1) * 4] = oracle(head, (4, 4), v=tile)
    assert fused.tobytes() == want.tobytes()


def test_tiles_over_the_chunk_budget_do_not_share_memory():
    from repro.planner.codegen import _CHUNK_BYTES

    query = "tiled(n,m)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- M ]"
    big = int((_CHUNK_BYTES // 8) ** 0.5)  # one tile > half the budget
    for tile, shared in ((4, True), (big, False)):
        session = make_session(tile)
        n = 3 * tile
        source = session.tiled(random_matrix(n, n, 24), num_partitions=1)
        kernel = _fused_kernel(session, query, dict(M=source, n=n, m=n))
        outputs = [value for _, value in kernel(source.tiles.collect())]
        assert len(outputs) == 9
        pairs = [
            np.shares_memory(a.base, b.base)
            for k, a in enumerate(outputs) for b in outputs[k + 1:]
        ]
        # Small tiles are views of one stacked chunk (so nothing may
        # mutate a tile in place); a big tile is a chunk of its own.
        assert all(pairs) if shared else not any(pairs)
        if shared:  # a spilled view must not drag its chunk along
            view = outputs[0]
            assert len(pickle.dumps(view)) < len(pickle.dumps(view.base)) / 4
        # The batch entry runs the same slices and hands back one batch.
        (batch,) = source.tiles._slices
        out = kernel(batch)
        assert type(out) is TileBatch and out.coords is batch.coords
        assert out.values.tobytes() == b"".join(v.tobytes() for v in outputs)


def test_fused_small_tile_chain_under_memory_limit_restores_identical():
    """Each output partition is a tile batch: a spill pickles its two
    arrays, a restore hands the kernel a batch again, and unpersist
    gives back every byte the chain's results held (only the input's
    partitions remain)."""
    query = "tiled(n,m)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- M ]"
    n, tile = 30, 3  # 10 partitions of ~1.2 kB against a 4 kB cap
    data = random_matrix(n, n, 25)
    outputs = {}
    for limit in (None, 4096):
        session = SacSession(
            cluster=TINY_CLUSTER, tile_size=tile, memory_limit=limit,
        )
        manager = session.engine.block_manager
        def held():  # resident or parked in the spill tier
            return manager.cached_bytes + manager.spilled_bytes_held

        x = session.tiled(data, num_partitions=10).materialize()
        before = held()
        steps = []
        for _ in range(3):
            x = session.run(query, M=x, n=n, m=n).materialize()
            steps.append(x)
        outputs[limit] = [
            (key, value.tobytes()) for key, value in sorted(x.tiles.collect())
        ]
        if limit is not None:
            total = session.engine.metrics.total
            assert total.spilled_bytes > 0 and total.spill_restores > 0
            assert total.kernel_cache_hits + total.kernel_cache_misses == 3
            assert (total.kernel_batch_inputs, total.kernel_record_inputs) == (30, 0)
        for step in steps:
            step.tiles.unpersist()
        assert held() == before
        session.engine.close()
    assert outputs[4096] == outputs[None]


# ----------------------------------------------------------------------
# A head with no vectorized form is not rule 5.1's
# ----------------------------------------------------------------------


def test_head_without_a_source_form_takes_the_coordinate_rule():
    """A Python function bound in the environment renders to no kernel
    text, so 5.1 does not apply; the coordinate rule runs it per row."""
    query = "tiled(n,m)[ ((i,j),f(v)) | ((i,j),v) <- M ]"
    data = random_matrix(13, 9, 3)
    session = make_session(5)
    env = dict(M=session.tiled(data), n=13, m=9, f=lambda x: x * x + 1.0)
    plan = session.compile(query, env).plan
    assert plan.rule == RULE_COORDINATE and plan.fused_kernels() == []
    notes = [e.summary() for e in plan.trace if e.name == "strategy-selection"]
    assert notes == ["strategy-selection: rule coordinate [rewrote plan]"]
    assert np.array_equal(session.run(query, env).to_numpy(), data * data + 1.0)


# ----------------------------------------------------------------------
# Kernel cache: compile-time hit/miss counters in JobMetrics
# ----------------------------------------------------------------------


def test_kernel_cache_counters():
    # A constant no other test uses keeps the process-wide cache cold
    # for the first session and warm for the second.
    query = "tiled(n,m)[ ((i,j),7.5309*v) | ((i,j),v) <- M ]"
    data = random_matrix(13, 11, 5)

    first = make_session(5)
    first.run(query, M=first.tiled(data), n=13, m=11)
    cold = first.engine.metrics.total
    assert cold.kernel_cache_misses == 1
    assert cold.kernel_cache_hits == 0

    second = make_session(5)
    second.run(query, M=second.tiled(data), n=13, m=11)
    warm = second.engine.metrics.total
    assert warm.kernel_cache_misses == 0
    assert warm.kernel_cache_hits >= 1


def test_kernel_cache_lru_eviction():
    from repro.planner.codegen import KernelCache

    cache = KernelCache(maxsize=2)
    src = "def _fused_partition(_part):\n    return _part\n"
    for fp in ("a", "b", "c"):
        cache.get(fp, src)
    stats = cache.stats()
    assert stats["misses"] == 3
    assert stats["evictions"] == 1
    cache.get("c", src)
    assert cache.stats()["hits"] == 1


# ----------------------------------------------------------------------
# Surfacing: explain(), to_dict(), and the CLI's metrics line
# ----------------------------------------------------------------------


def test_explain_and_to_dict_surface_fused_source():
    session = make_session(5)
    query = "tiled(n,m)[ ((i,j),v*v) | ((i,j),v) <- M, i != j ]"
    env = dict(M=session.tiled(random_matrix(13, 9, 4)), n=13, m=9)

    report = session.explain(query, env)
    assert "fused kernel" in report
    assert "_fused_partition" in report

    out = session.compile(query, env).plan.to_dict()
    assert "fused_kernels" in out
    (entry,) = out["fused_kernels"]
    assert entry["mode"] == "tiles"
    assert entry["nodes"]
    assert len(entry["fingerprint"]) == 16
    assert "def _fused_partition(_part):" in entry["source"]


def test_cli_reports_fused_kernels(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "x.npy"
    np.save(path, random_matrix(12, 12, 6))
    # A constant no other test uses: the first lookup is a compile.
    argv = [
        "tiled(n,m)[ ((i,j),3.1907*v) | ((i,j),v) <- X ]",
        "--bind", f"X={path}", "--define", "n=12", "--define", "m=12",
        "--tile-size", "5", "--metrics",
    ]
    assert main(argv) == 0
    assert "fused kernels: 1 compiled" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Vectorized partitioning: partition_batch must equal partition()
# ----------------------------------------------------------------------

coords = st.integers(min_value=0, max_value=2**60)


@SETTINGS
@given(
    keys=st.lists(
        st.tuples(coords, coords), min_size=1, max_size=200
    ),
    parts=st.integers(min_value=1, max_value=17),
)
def test_hash_partition_batch_matches_scalar_tuples(keys, parts):
    partitioner = HashPartitioner(parts)
    batch = partitioner.partition_batch(keys)
    assert batch is not None
    assert list(batch) == [partitioner.partition(k) for k in keys]


@SETTINGS
@given(
    keys=st.lists(coords, min_size=1, max_size=200),
    parts=st.integers(min_value=1, max_value=17),
)
def test_hash_partition_batch_matches_scalar_ints(keys, parts):
    partitioner = HashPartitioner(parts)
    batch = partitioner.partition_batch(keys)
    assert batch is not None
    assert list(batch) == [partitioner.partition(k) for k in keys]


@SETTINGS
@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    parts=st.integers(min_value=1, max_value=9),
    keys=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1, max_size=100,
    ),
)
def test_grid_partition_batch_matches_scalar(rows, cols, parts, keys):
    partitioner = GridPartitioner(rows, cols, parts)
    batch = partitioner.partition_batch(keys)
    assert batch is not None
    assert list(batch) == [partitioner.partition(k) for k in keys]


@pytest.mark.parametrize("keys", [
    [(0.5, 1)],                 # float component
    ["row"],                    # non-numeric
    [(1, 2), (3,)],             # ragged tuples
    [(-1, 2)],                  # negative breaks hash(v) == v identity
    [(2**61 - 1, 0)],           # at/above the CPython identity cap
    [],                         # empty batch
])
def test_partition_batch_rejects_unsafe_keys(keys):
    partitioner = HashPartitioner(4)
    assert partitioner.partition_batch(keys) is None
