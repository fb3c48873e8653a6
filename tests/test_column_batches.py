"""The coordinate rule's two record types give one answer.

``_lower_coordinate`` runs Rules 13/14 over column batches when every
source and expression is numeric and over one record per element
otherwise; these tests call the two internal builders side by side,
check both against the reference interpreter, pin each fallback reason,
the shuffle-width rule, and what a batch costs on the wire.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import PlannerOptions, SacSession
from repro.engine import ClusterSpec, TINY_CLUSTER, ThreadedTaskRunner
from repro.engine.batch import ColumnBatch, group_reduce, merge_join, scatter
from repro.engine.scheduler import SerialTaskRunner
from repro.engine.serialization import (
    RECORD_OVERHEAD, RecordSizeAccountant, estimate_record_size,
)
from repro.planner import KernelUnsupported, RULE_COORDINATE, lower, plan_state
from repro.planner.ir import OP_COORDINATE
from repro.storage import (
    CooMatrix, CooVector, CsrMatrix, DenseMatrix, DenseVector,
)

RNG = np.random.default_rng(24)
TILE = 4
FORCED = PlannerOptions(strategy="coordinate")


@pytest.fixture()
def session():
    with SacSession(cluster=TINY_CLUSTER, tile_size=TILE, options=FORCED) as s:
        yield s


def coordinate_root(session, query, **env):
    """The planned ``Coordinate`` node of a query, its sources, the state."""
    compiled = session.compile(query, **env)
    assert compiled.plan.rule == RULE_COORDINATE
    state = plan_state(
        compiled.normalized, env, session.engine, session.build_context,
        session.options,
    )
    root = state.physical
    assert root.op == OP_COORDINATE
    return root, [scan.records() for scan in root.children], state


def lowerings(session, query, **env):
    """``(batch program, record program, width)`` of a coordinate query."""
    root, sources, state = coordinate_root(session, query, **env)
    batch, width = lower._batch_program(root, sources, state)
    record = lower._record_program(root, [s.pairs() for s in sources], state)
    return batch, record, width


def as_comparable(result):
    """A built result as something ``==`` / ``allclose`` can compare:
    storages densify, element RDDs become their sorted item list."""
    if hasattr(result, "to_numpy"):
        return result.to_numpy()
    if hasattr(result, "collect"):
        result = result.collect()
    if isinstance(result, list):
        return sorted(result, key=lambda item: (
            item if isinstance(item, tuple) else (item,)
        ))
    return result


def assert_same(left, right, exact):
    left, right = as_comparable(left), as_comparable(right)
    if isinstance(left, np.ndarray):
        if exact:
            np.testing.assert_array_equal(left, right)
        else:
            np.testing.assert_allclose(left, right, rtol=1e-9)
        return
    if not isinstance(left, list):  # a total reduction's scalar
        left, right = [left], [right]
    assert len(left) == len(right)
    for a, b in zip(left, right):
        if isinstance(a, tuple):
            assert a[0] == b[0]  # identical keys
            a, b = a[1], b[1]
        assert a == b if exact else a == pytest.approx(b, rel=1e-9)


# ----------------------------------------------------------------------
# (a) the suite's coordinate queries through both lowerings
# ----------------------------------------------------------------------


def _inputs(integer: bool):
    draw = (
        (lambda *shape: RNG.integers(0, 9, size=shape).astype(float))
        if integer else (lambda *shape: RNG.uniform(0, 9, size=shape))
    )
    return draw


QUERIES = [
    # tests/test_coordinate_paths.py
    ("composite keys",
     "tiled(n,m)[ ((i,j), x + y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
     " ii == i, jj == j ]",
     lambda s, d: dict(A=s.tiled(d(10, 8)), B=s.tiled(d(10, 8)), n=10, m=8)),
    ("computed keys",
     "rdd[ ((i,j), x + y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
     " ii == i, jj == j + 1 ]",
     lambda s, d: dict(A=s.tiled(d(6, 6)), B=s.tiled(d(6, 6)))),
    ("three-way chain",
     "rdd[ (i, x + y + z) | ((i,j),x) <- A, ((i2,j2),y) <- A,"
     " i2 == i, j2 == j, ((i3,j3),z) <- A, i3 == i, j3 == j ]",
     lambda s, d: dict(A=s.tiled(d(5, 5)))),
    ("coo and tiled",
     "rdd[ ((i,j), s * d) | ((i,j),s) <- S, ((ii,jj),d) <- D,"
     " ii == i, jj == j ]",
     lambda s, d: dict(
         S=CooMatrix.from_items(6, 6, [((1, 2), 5.0), ((4, 0), 3.0)]),
         D=s.tiled(d(6, 6)),
     )),
    ("residual function",
     "tiled_vector(n)[ (i, (+/v) / count/v) | ((i,j),v) <- A, group by i ]",
     lambda s, d: dict(A=s.tiled(d(8, 8) + 1.0), n=8)),
    ("filters",
     "+/[ v | ((i,j),v) <- A, v > 5.0, i != j ]",
     lambda s, d: dict(A=s.tiled(d(7, 7)))),
    # tests/test_paper_examples.py
    ("row sums",
     "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
     lambda s, d: dict(M=s.tiled(d(9, 7)), n=9)),
    ("sortedness",
     "&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]",
     lambda s, d: dict(V=s.tiled_vector(d(11)))),
    ("multiply",
     "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
     " kk == k, let v = a*b, group by (i,j) ]",
     lambda s, d: dict(A=s.tiled(d(6, 5)), B=s.tiled(d(5, 7)), n=6, m=7)),
    ("bare comprehension",
     "[ (i, v*2.0) | (i,v) <- V ]",
     lambda s, d: dict(V=s.tiled_vector(d(9)))),
    # tests/test_sparse_tiled.py
    ("min over stored",
     "tiled_vector(n)[ (i, min/v) | ((i,j),v) <- A, group by i ]",
     lambda s, d: dict(A=s.sparse_tiled(d(9, 9) * (d(9, 9) > 6)), n=9)),
    ("sparse elementwise",
     "tiled(n,m)[ ((i,j), v + 1.0) | ((i,j),v) <- A ]",
     lambda s, d: dict(A=s.sparse_tiled(d(9, 6) * (d(9, 6) > 6)), n=9, m=6)),
    ("sparse builder",
     "sparse_tiled(n,m)[ ((i,j), v) | ((i,j),v) <- A, v > 2.0 ]",
     lambda s, d: dict(A=s.sparse_tiled(d(9, 6) * (d(9, 6) > 4)), n=9, m=6)),
]


@pytest.mark.parametrize("integer", [True, False], ids=["ints", "floats"])
@pytest.mark.parametrize(
    "query,make_env", [(q, e) for _name, q, e in QUERIES],
    ids=[name for name, _q, _e in QUERIES],
)
def test_both_record_types_agree(session, query, make_env, integer):
    env = make_env(session, _inputs(integer))
    batch, record, _width = lowerings(session, query, **env)
    assert_same(batch(), record(), exact=integer)
    # ... and the session runs one of them to the interpreter's answer.
    assert_same(
        session.run(query, **env), session.interpret(query, **env), exact=integer
    )


#: A head key computed from the group key keys the output, not the group
#: key itself.
REKEYED = {
    "rdd": "rdd[ (i+2, +/b) | ((i,j),b) <- A, group by i ]",
    "tiled_vector": "tiled_vector(6)[ (i+2, +/b) | ((i,j),b) <- A, group by i ]",
    "tiled": "tiled(6,4)[ ((i+2,0), +/b) | ((i,j),b) <- A, group by i ]",
}


@pytest.mark.parametrize("builder", list(REKEYED))
def test_a_head_key_over_the_group_key_keys_the_output(session, builder):
    query = REKEYED[builder]
    env = dict(A=session.tiled(np.arange(16.0).reshape(4, 4)))
    want = session.interpret(query, **env)
    batch, record, _width = lowerings(session, query, **env)
    assert_same(batch(), want, exact=True)
    assert_same(record(), want, exact=True)
    assert ".map((key, aggs) => (" in session.explain(query, **env)


# ----------------------------------------------------------------------
# (b) random operands against the reference interpreter
# ----------------------------------------------------------------------

STORAGES = ("coo", "tiled", "sparse")


def _matrix(session, kind, array):
    if kind == "coo":
        return CooMatrix.from_numpy(array)
    if kind == "tiled":
        return session.tiled(array)
    return session.sparse_tiled(array)


@st.composite
def operands(draw):
    """Two small integer-valued matrices — often empty, one row, with
    repeated join keys — and how each is stored."""
    def matrix():
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        values = draw(st.lists(
            st.integers(-3, 4), min_size=rows * cols, max_size=rows * cols,
        ))
        return np.array(values, dtype=float).reshape(rows, cols)

    kinds = (draw(st.sampled_from(STORAGES)), draw(st.sampled_from(STORAGES)))
    assume(kinds != ("coo", "coo"))  # a driver-side query plans locally
    return matrix(), matrix(), kinds


FUZZ_QUERIES = [
    # duplicate join keys on both sides, composite and computed keys
    "rdd[ ((i,l), a*b) | ((i,j),a) <- A, ((jj,l),b) <- B, jj == j ]",
    "rdd[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
    "rdd[ ((i,j), a-b) | ((i,j),a) <- A, ((ii,jj),b) <- B, i+1 == ii, jj == j ]",
    # the monoids, a residual over two slots, keys outside the builder's range
    "tiled(n,m)[ ((i,l),+/c) | ((i,j),a) <- A, ((jj,l),b) <- B, jj == j,"
    " let c = a*b, group by (i,l) ]",
    "tiled_vector(n)[ (i, min/a) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j, group by i ]",
    "tiled_vector(n)[ (i, max/b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j, group by i ]",
    "rdd[ (j, */a) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j,"
    " group by j ]",
    "rdd[ (i, &&/c) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j,"
    " let c = a < b, group by i ]",
    "rdd[ (i, (+/a) / count/b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i,"
    " jj == j, group by i ]",
    "tiled(n,m)[ ((i-1,j+1), a) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i,"
    " jj == j, a != b ]",
]


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=operands(), query=st.sampled_from(FUZZ_QUERIES))
def test_batches_match_the_interpreter(session, data, query):
    a, b, (kind_a, kind_b) = data
    env = dict(
        A=_matrix(session, kind_a, a), B=_matrix(session, kind_b, b),
        n=a.shape[0], m=b.shape[1],
    )
    batch, _record, _width = lowerings(session, query, **env)
    expected = session.interpret(query, **env)
    assert_same(batch(), expected, exact=True)


def test_ragged_tiles_and_wide_shuffles():
    """More reducers than tiles, ragged edge tiles, every width agrees."""
    a = RNG.integers(0, 5, size=(13, 11)).astype(float)
    x = RNG.integers(0, 5, size=11).astype(float)
    query = (
        "tiled_vector(n)[ (i,+/v) | ((i,j),a) <- A, (jj,x) <- X, jj == j,"
        " let v = a*x, group by i ]"
    )
    # A partition target of a few rows forces one reducer per core.
    cluster = ClusterSpec(
        num_nodes=1, executors_per_node=1, cores_per_executor=5,
        partition_bytes=64,
    )
    with SacSession(cluster=cluster, tile_size=TILE, options=FORCED) as wide:
        env = dict(A=wide.tiled(a), X=wide.tiled_vector(x), n=13)
        batch, record, width = lowerings(wide, query, **env)
        assert width == 5
        np.testing.assert_array_equal(batch().to_numpy(), a @ x)
        np.testing.assert_array_equal(record().to_numpy(), a @ x)


# ----------------------------------------------------------------------
# (c) every fallback reason reaches the record path, and explain() says so
# ----------------------------------------------------------------------

FALLBACKS = [
    ("a bystander indexed as W[i]",  # (an *array* bystander desugars to a join)
     "tiled(n,m)[ ((i,j), a + W[i]) | ((i,j),a) <- A ]",
     lambda s: dict(A=s.tiled(np.ones((5, 5))), W={i: 2.0 * i for i in range(5)},
                    n=5, m=5),
     "'W' is neither a bound column nor a scalar"),
    ("a string value",
     'rdd[ (i, "x") | ((i,j),a) <- A ]',
     lambda s: dict(A=s.tiled(np.ones((5, 5)))),
     "a str value"),
    ("a tuple value",
     "rdd[ (i, (a, j)) | ((i,j),a) <- A ]",
     lambda s: dict(A=s.tiled(np.ones((5, 5)))),
     "a tuple value"),
    ("an RDD of arbitrary objects",
     "rdd[ (i, +/v) | ((i,j),v) <- P, group by i ]",
     lambda s: dict(P=s.rdd([((0, 0), 1.0), ((0, 1), 2.0), ((1, 0), 3.0)])),
     "RDD source has no columns"),
    ("a cartesian step",
     "tiled(n,m)[ ((i,j), x * y) | (i,x) <- U, (j,y) <- V ]",
     lambda s: dict(U=s.tiled_vector(np.ones(3)), V=s.tiled_vector(np.ones(4)),
                    n=3, m=4),
     "a cartesian step"),
    ("values beyond the three dtypes",
     "rdd[ (i, a) | ((i,j),a) <- A, (jj,x) <- X, jj == j ]",
     lambda s: dict(A=np.ones((3, 3), dtype=complex), X=s.tiled_vector(np.ones(3))),
     "dtype complex128"),
    ("integers Python would not wrap",
     "rdd[ (i, a * x) | ((i,j),a) <- A, (jj,x) <- X, jj == j ]",
     lambda s: dict(A=CooMatrix(3, 3, {(0, 0): 2**62 + 1}),
                    X=s.tiled_vector(np.ones(3))),
     "beyond ±2**62"),
    ("a partial operator behind a condition",
     "rdd[ (i, if (a > 0.0) 1.0 / a else 0.0) | ((i,j),a) <- A ]",
     lambda s: dict(A=s.tiled(np.ones((5, 5)))),
     "a partial operator behind a condition"),
    ("arithmetic on a boolean",
     "rdd[ (i, (a > 0.0) + (a > 1.0)) | ((i,j),a) <- A ]",
     lambda s: dict(A=s.tiled(np.ones((5, 5)))),
     "arithmetic on a boolean"),
]


@pytest.mark.parametrize(
    "query,make_env,reason", [(q, e, r) for _n, q, e, r in FALLBACKS],
    ids=[name for name, _q, _e, _r in FALLBACKS],
)
def test_fallback_reason_is_reported_and_the_record_path_runs(
    session, query, make_env, reason
):
    env = make_env(session)
    compiled = session.compile(query, **env)
    assert compiled.plan.rule == RULE_COORDINATE
    records = compiled.plan.details["records"]
    assert records.startswith("one per element (")
    assert reason in records
    assert f"records: {records}" in compiled.explain()
    assert_same(compiled.execute(), session.interpret(query, **env), exact=True)


def test_a_monoid_without_a_ufunc_is_a_fallback_reason(session):
    """``++`` has no spelling in the text syntax; a front end that builds
    the AST (DIABLO) can still ask for it."""
    root, sources, state = coordinate_root(
        session, "rdd[ (i, +/a) | ((i,j),a) <- A, group by i ]",
        A=session.tiled(np.ones((5, 5))),
    )
    root.info.slots[0].monoid = "++"
    with pytest.raises(KernelUnsupported, match="monoid '\\+\\+' has no ufunc"):
        lower._batch_program(root, sources, state)


def test_batchable_plan_says_so(session):
    report = session.explain(
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
        M=session.tiled(np.ones((5, 5))), n=5,
    )
    assert "records: column batches (shuffle width 1)" in report


# ----------------------------------------------------------------------
# (d) runners and the adaptive layer see a batch as one record
# ----------------------------------------------------------------------

SPMV = (
    "tiled_vector(n)[ (i,+/v) | ((i,j),a) <- A, (jj,x) <- X, jj == j,"
    " let v = a*x, group by i ]"
)


def _spmv(runner, adaptive):
    rng = np.random.default_rng(3)
    a = rng.random((120, 90)) * (rng.random((120, 90)) < 0.2)
    x = rng.random(90)
    # Small partition / skew thresholds: a per-element stream of this
    # size would be split as skewed.  The static arm never splits.
    cluster = ClusterSpec(
        num_nodes=1, executors_per_node=1, cores_per_executor=4,
        partition_bytes=4096, adaptive_skew_min_bytes=1024,
    )
    if not adaptive:
        cluster = dataclasses.replace(cluster, adaptive_skew_factor=math.inf)
    with SacSession(cluster=cluster, tile_size=16, runner=runner) as s:
        result = s.run(
            SPMV, A=CooMatrix.from_numpy(a), X=s.tiled_vector(x), n=120
        ).to_numpy()
        total = s.engine.metrics.total
        return result, (total.shuffles, total.shuffle_records, total.shuffle_bytes)


def test_runners_and_adaptive_arms_are_bit_equal():
    base, counters = _spmv(SerialTaskRunner(), adaptive=False)
    for runner, adaptive in [
        (SerialTaskRunner(), True),
        (ThreadedTaskRunner(max_workers=4), False),
        (ThreadedTaskRunner(max_workers=4), True),
    ]:
        result, other = _spmv(runner, adaptive)
        assert result.tobytes() == base.tobytes()
        assert other == counters
    assert counters[0] == 4 and counters[1] <= 4 * 4 * 4


# ----------------------------------------------------------------------
# (e) the shuffle width follows the rows, not the cores
# ----------------------------------------------------------------------


def _width(session, a_rows):
    """Width of SPMV over an ``a_rows``-row COO matrix (never built:
    only its row count is read)."""
    class Rows(CooMatrix):
        def __init__(self):
            self._init_sorted(
                a_rows, 4, np.broadcast_to(np.int64(0), a_rows),
                np.broadcast_to(np.int64(0), a_rows),
                np.broadcast_to(np.float64(1.0), a_rows),
            )

    x = session.tiled_vector(np.ones(4))
    root, sources, state = coordinate_root(session, SPMV, A=Rows(), X=x, n=a_rows)
    return lower._batch_program(root, sources, state)[1]


def test_width_rule():
    with SacSession(cluster=ClusterSpec(), tile_size=100) as s:
        cores = s.engine.default_parallelism
        assert cores == 88
        assert _width(s, 40_000) <= 4          # 40 k rows x 3 columns ~ 1 MB
        assert _width(s, 1) == 1
        # 88 MB of columns and beyond: the cluster's cores, never more.
        assert _width(s, math.ceil(88 * 2**20 / 24)) == cores
        assert _width(s, 10 * 88 * 2**20 // 24) == cores
        # The rule itself, from ClusterSpec.partition_bytes.
        rows = 300_000
        assert _width(s, rows) == math.ceil(
            (rows * 24 + 4 * 16) / s.engine.cluster.partition_bytes
        )


# ----------------------------------------------------------------------
# (f) what a batch costs
# ----------------------------------------------------------------------


def test_batch_record_is_priced_by_the_documented_formula():
    batch = ColumnBatch({
        "i": np.arange(10), "a": np.ones(10), "ok": np.ones(10, dtype=bool),
    })
    columns = 10 * 8 + 10 * 8 + 10 * 1
    expected = (columns + 16 * 3 + 8) + 2 + 8 + RECORD_OVERHEAD
    assert batch.wire_bytes() == columns + 16 * 3 + 8
    assert estimate_record_size((3, batch)) == expected
    assert RecordSizeAccountant().batch_size([(3, batch), (0, batch)]) == 2 * expected
    # ... in O(columns): a slice of a big column is its own size.
    big = ColumnBatch({"a": np.ones(10**6)})
    assert big.take(slice(0, 5)).wire_bytes() == 5 * 8 + 16 + 8


def test_tile_stream_prices_as_before():
    """``((i, j), ndarray)`` totals as recorded at c5f1937."""
    records = [((i, j), np.zeros((3, 4))) for i in range(2) for j in range(3)]
    records += [(k, np.zeros(5)) for k in range(4)]
    assert RecordSizeAccountant().batch_size(records) == 6 * 140 + 4 * 74 == 1136
    # ... and a binding dict of the per-element join, now by the full walk.
    binding = ((7,), {"i": 6, "j": 7, "a": 0.25})
    assert RecordSizeAccountant().batch_size([binding] * 3) == 3 * 67


# ----------------------------------------------------------------------
# The three passes, directly
# ----------------------------------------------------------------------


def test_scatter_keeps_row_order_and_slices():
    batch = ColumnBatch({"k": np.array([5, -2, 9, 5, 2**61 + 7, -2]),
                         "v": np.arange(6.0)})
    pieces = scatter(batch, [batch.columns["k"]], 3)
    assert [r for r, _ in pieces] == sorted(r for r, _ in pieces)
    seen = {}
    for reducer, piece in pieces:
        assert piece.columns["v"].base is not None  # a slice, not a copy
        assert list(piece.columns["v"]) == sorted(piece.columns["v"])
        for key in piece.columns["k"].tolist():
            assert seen.setdefault(key, reducer) == reducer
    assert sum(piece.rows for _, piece in pieces) == 6
    assert scatter(batch.take(slice(0, 0)), [batch.columns["k"][:0]], 3) == []


def test_merge_join_orders_rows_left_then_right():
    left = ColumnBatch({"k": np.array([2, 1, 2, 7]), "l": np.arange(4)})
    right = ColumnBatch({"kk": np.array([2.0, 1.0, 2.0, 3.0]), "r": np.arange(4)})
    joined = merge_join(left, right, [left.columns["k"]], [right.columns["kk"]])
    assert joined.columns["l"].tolist() == [0, 0, 1, 2, 2]
    assert joined.columns["r"].tolist() == [0, 2, 1, 0, 2]
    both = merge_join(
        left, right,
        [left.columns["k"], left.columns["l"] % 3],
        [right.columns["kk"], right.columns["r"] % 2],
    )
    assert both.columns["l"].tolist() == [0, 0, 1]
    assert both.columns["r"].tolist() == [0, 2, 1]
    assert merge_join(left.take(slice(0, 0)), right, [left.columns["k"][:0]],
                      [right.columns["kk"]]).rows == 0


def test_group_reduce_folds_in_row_order():
    keys = [np.array([1, 0, 1, 0, 1]), np.array([5, 5, 5, 6, 5])]
    out_keys, (total, lowest) = group_reduce(
        keys, [np.array([1.0, 2.0, 4.0, 8.0, 16.0])] * 2, [np.add, np.minimum]
    )
    assert [k.tolist() for k in out_keys] == [[0, 0, 1], [5, 6, 5]]
    assert total.tolist() == [2.0, 8.0, 21.0]
    assert lowest.tolist() == [2.0, 8.0, 1.0]


# ----------------------------------------------------------------------
# Every source kind yields the columns its sparsifier yields
# ----------------------------------------------------------------------


def test_every_source_kind_reads_as_columns(session):
    a = np.arange(35.0).reshape(7, 5) * (np.arange(35).reshape(7, 5) % 3 > 0)
    v = np.arange(7.0)
    x = session.tiled_vector(np.ones(5))
    matrices = [
        CooMatrix.from_numpy(a), CsrMatrix.from_numpy(a), DenseMatrix.from_numpy(a),
        a, a.astype(np.int32), a > 0, session.tiled(a), session.sparse_tiled(a),
    ]
    query = "rdd[ ((i,j), a * x) | ((i,j),a) <- A, (jj,x) <- X, jj == j ]"
    for matrix in matrices:
        batch, record, _ = lowerings(session, query, A=matrix, X=x)
        assert_same(batch(), record(), exact=True)
    query = "rdd[ (i, a * x) | (i,a) <- V, (ii,x) <- X, ii == i ]"
    x = session.tiled_vector(np.arange(7.0))
    for vector in [
        CooVector.from_items(7, enumerate(v)), DenseVector(v), v,
        session.tiled_vector(v),
    ]:
        batch, record, _ = lowerings(session, query, V=vector, X=x)
        assert_same(batch(), record(), exact=True)


# ----------------------------------------------------------------------
# Errors are the record path's errors (run under ``-W error`` in CI)
# ----------------------------------------------------------------------

ERRORS = [
    ("float division", "rdd[ (i, 1.0 / a) | ((i,j),a) <- A ]", ZeroDivisionError),
    ("integer division", "rdd[ (i, 7 / (i - 1)) | ((i,j),a) <- A ]", ZeroDivisionError),
    ("modulo", "rdd[ (i, j % (i - 1)) | ((i,j),a) <- A ]", ZeroDivisionError),
    ("float modulo", "rdd[ (i, 2.5 % a) | ((i,j),a) <- A ]", ZeroDivisionError),
    ("residual", "rdd[ (i, (+/a) / (+/a)) | ((i,j),a) <- A, group by i ]",
     ZeroDivisionError),
    ("log", "rdd[ (i, log(a)) | ((i,j),a) <- A ]", ValueError),
    ("sqrt", "rdd[ (i, sqrt(a - 1.0)) | ((i,j),a) <- A ]", ValueError),
    ("exp", "rdd[ (i, exp(a * 800.0)) | ((i,j),a) <- A ]", OverflowError),
]


@pytest.mark.parametrize(
    "query,error", [(q, e) for _n, q, e in ERRORS], ids=[n for n, _q, _e in ERRORS]
)
def test_a_failing_row_raises_what_the_interpreter_raises(session, query, error):
    a = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 4.0]])
    env = dict(A=session.tiled(a))
    batch, record, _ = lowerings(session, query, **env)
    with pytest.raises(error):
        record().collect()
    with pytest.raises(error):
        batch().collect()
    with pytest.raises(error):
        session.interpret(query, **env)


def test_what_python_floats_do_silently_stays_silent(session):
    """Overflow to inf and inf - inf warn in NumPy; not in a batch."""
    a = np.array([[1e308, 3.0], [2.0, 1e308]])
    query = "rdd[ ((i,j), (a * 10.0) - (a * 10.0) + a / 1e-308) | ((i,j),a) <- A ]"
    batch, record, _ = lowerings(session, query, A=session.tiled(a))
    got, want = dict(batch().collect()), dict(record().collect())
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key] or (
            math.isnan(got[key]) and math.isnan(want[key])
        )
