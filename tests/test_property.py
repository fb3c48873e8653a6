"""Property-based tests (hypothesis): invariants and differential checks.

The key property: for every query family, the distributed planner, the
reference interpreter, and NumPy agree — over random shapes, tile sizes,
and data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SacSession
from repro.comprehension.monoids import MONOIDS
from repro.engine import EngineContext, TINY_CLUSTER
from repro.storage import CooMatrix, CsrMatrix, DenseMatrix, TiledMatrix

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

dims = st.integers(min_value=1, max_value=23)
tile_sizes = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def make_session(tile_size):
    return SacSession(cluster=TINY_CLUSTER, tile_size=tile_size)


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).uniform(-5, 5, size=(rows, cols))


# ----------------------------------------------------------------------
# Planner vs NumPy vs interpreter
# ----------------------------------------------------------------------


@SETTINGS
@given(n=dims, m=dims, tile=tile_sizes, seed=seeds)
def test_addition_differential(n, m, tile, seed):
    a, b = random_matrix(n, m, seed), random_matrix(n, m, seed + 1)
    session = make_session(tile)
    query = (
        "tiled(n,m)[ ((i,j),x+y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j ]"
    )
    env = dict(A=session.tiled(a), B=session.tiled(b), n=n, m=m)
    planned = session.run(query, env).to_numpy()
    interpreted = session.interpret(query, env).to_numpy()
    np.testing.assert_allclose(planned, a + b, rtol=1e-9)
    np.testing.assert_allclose(interpreted, a + b, rtol=1e-9)


@SETTINGS
@given(n=dims, k=dims, m=dims, tile=tile_sizes, seed=seeds)
def test_multiplication_differential(n, k, m, tile, seed):
    a, b = random_matrix(n, k, seed), random_matrix(k, m, seed + 1)
    session = make_session(tile)
    query = (
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
        " kk == k, let v = x*y, group by (i,j) ]"
    )
    result = session.run(
        query, A=session.tiled(a), B=session.tiled(b), n=n, m=m
    ).to_numpy()
    np.testing.assert_allclose(result, a @ b, rtol=1e-8, atol=1e-10)


@SETTINGS
@given(n=dims, m=dims, tile=tile_sizes, seed=seeds)
def test_transpose_differential(n, m, tile, seed):
    a = random_matrix(n, m, seed)
    session = make_session(tile)
    result = session.run(
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]",
        A=session.tiled(a), n=n, m=m,
    ).to_numpy()
    np.testing.assert_allclose(result, a.T)


@SETTINGS
@given(n=dims, m=dims, tile=tile_sizes, seed=seeds)
def test_row_sums_differential(n, m, tile, seed):
    a = random_matrix(n, m, seed)
    session = make_session(tile)
    result = session.run(
        "tiled_vector(n)[ (i,+/v) | ((i,j),v) <- A, group by i ]",
        A=session.tiled(a), n=n,
    ).to_numpy()
    np.testing.assert_allclose(result, a.sum(axis=1), rtol=1e-9)


@SETTINGS
@given(n=dims, m=dims, tile=tile_sizes, seed=seeds)
def test_rotation_differential(n, m, tile, seed):
    a = random_matrix(n, m, seed)
    session = make_session(tile)
    result = session.run(
        "tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- A ]",
        A=session.tiled(a), n=n, m=m,
    ).to_numpy()
    np.testing.assert_allclose(result, np.roll(a, 1, axis=0))


@SETTINGS
@given(n=dims, m=dims, tile=tile_sizes, seed=seeds, threshold=st.floats(-5, 5))
def test_filter_differential(n, m, tile, seed, threshold):
    a = random_matrix(n, m, seed)
    session = make_session(tile)
    result = session.run(
        "tiled(n,m)[ ((i,j),v) | ((i,j),v) <- A, v > t ]",
        A=session.tiled(a), n=n, m=m, t=threshold,
    ).to_numpy()
    np.testing.assert_allclose(result, np.where(a > threshold, a, 0.0))


@SETTINGS
@given(n=dims, tile=tile_sizes, seed=seeds)
def test_total_sum_differential(n, tile, seed):
    a = random_matrix(n, n, seed)
    session = make_session(tile)
    total = session.run("+/[ v | ((i,j),v) <- A ]", A=session.tiled(a))
    assert np.isclose(total, a.sum(), rtol=1e-9)


@SETTINGS
@given(n=dims, m=dims, seed=seeds)
def test_local_matrix_query_matches_numpy(n, m, seed):
    a = random_matrix(n, m, seed)
    session = make_session(4)
    result = session.run(
        "matrix(n,m)[ ((i,j), 2.0*v) | ((i,j),v) <- A ]",
        A=DenseMatrix.from_numpy(a), n=n, m=m,
    )
    np.testing.assert_allclose(result.data, 2 * a)


# ----------------------------------------------------------------------
# Storage invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(n=dims, m=dims, tile=tile_sizes, seed=seeds)
def test_tiled_roundtrip(n, m, tile, seed):
    a = random_matrix(n, m, seed)
    engine = EngineContext(cluster=TINY_CLUSTER)
    t = TiledMatrix.from_numpy(engine, a, tile)
    np.testing.assert_allclose(t.to_numpy(), a)
    # Sparsify covers exactly the full index space.
    items = dict(t.sparsify())
    assert len(items) == n * m


@SETTINGS
@given(n=dims, m=dims, seed=seeds)
def test_sparsify_builder_inverse(n, m, seed):
    """builder(sparsify(x)) == x for every registered matrix storage."""
    a = np.round(random_matrix(n, m, seed), 3)
    dense = DenseMatrix.from_numpy(a)
    np.testing.assert_allclose(
        DenseMatrix.from_items(n, m, dense.sparsify()).data, a
    )
    coo = CooMatrix.from_numpy(a)
    np.testing.assert_allclose(
        CooMatrix.from_items(n, m, coo.sparsify()).to_numpy(), coo.to_numpy()
    )
    csr = CsrMatrix.from_numpy(a)
    np.testing.assert_allclose(
        CsrMatrix.from_items(n, m, csr.sparsify()).to_numpy(), csr.to_numpy()
    )


# ----------------------------------------------------------------------
# Engine invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-100, 100)), max_size=60
    ),
    partitions=st.integers(1, 7),
)
def test_reduce_by_key_matches_group_by_key(pairs, partitions):
    engine = EngineContext(cluster=TINY_CLUSTER)
    rdd = engine.parallelize(pairs, partitions)
    reduced = dict(rdd.reduce_by_key(lambda a, b: a + b).collect())
    grouped = {k: sum(vs) for k, vs in rdd.group_by_key().collect()}
    assert reduced == grouped


@SETTINGS
@given(
    items=st.lists(st.integers(-1000, 1000), max_size=80),
    partitions=st.integers(1, 9),
)
def test_collect_is_partition_invariant(items, partitions):
    engine = EngineContext(cluster=TINY_CLUSTER)
    assert engine.parallelize(items, partitions).collect() == items


@SETTINGS
@given(
    left=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=30),
    right=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=30),
)
def test_join_matches_nested_loop(left, right):
    engine = EngineContext(cluster=TINY_CLUSTER)
    joined = sorted(
        engine.parallelize(left, 3).join(engine.parallelize(right, 2)).collect()
    )
    expected = sorted(
        (k, (lv, rv)) for k, lv in left for k2, rv in right if k == k2
    )
    assert joined == expected


# ----------------------------------------------------------------------
# Monoid laws
# ----------------------------------------------------------------------


@SETTINGS
@given(
    name=st.sampled_from(["+", "*", "min", "max", "&&", "||"]),
    values=st.lists(st.integers(-50, 50), min_size=0, max_size=20),
)
def test_monoid_identity_and_fold(name, values):
    mon = MONOIDS[name]
    typed = [bool(v > 0) for v in values] if name in ("&&", "||") else values
    folded = mon.fold(typed)
    # Folding with an extra identity on either side changes nothing.
    assert mon.combine(mon.zero, folded) == folded
    assert mon.combine(folded, mon.zero) == folded


@SETTINGS
@given(
    name=st.sampled_from(["+", "min", "max", "&&", "||"]),
    a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(-50, 50),
)
def test_monoid_associativity(name, a, b, c):
    mon = MONOIDS[name]
    if name in ("&&", "||"):
        a, b, c = a > 0, b > 0, c > 0
    assert mon.combine(mon.combine(a, b), c) == mon.combine(a, mon.combine(b, c))


# ----------------------------------------------------------------------
# DSL semantics invariants
# ----------------------------------------------------------------------


@SETTINGS
@given(i=st.integers(-100, 100), n=st.integers(1, 50))
def test_dsl_integer_division_matches_tile_arithmetic(i, n):
    """``i/N`` and ``i%N`` must agree with Python's // and % — tile
    placement depends on it."""
    session = make_session(4)
    assert session.run("i / n", i=i, n=n) == i // n
    assert session.run("i % n", i=i, n=n) == i % n


@SETTINGS
@given(values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=20))
def test_sortedness_query_matches_python(values):
    session = make_session(3)
    v = session.tiled_vector(np.array(values))
    result = session.run(
        "&&/[ x <= y | (i,x) <- V, (j,y) <- V, j == i+1 ]", V=v
    )
    assert result == (sorted(values) == values)
