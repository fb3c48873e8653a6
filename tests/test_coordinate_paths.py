"""Focused tests for the coordinate translation (Rules 13/14)."""

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.engine import TINY_CLUSTER
from repro.planner import RULE_COORDINATE

RNG = np.random.default_rng(17)


@pytest.fixture()
def session():
    return SacSession(
        cluster=TINY_CLUSTER, tile_size=8,
        options=PlannerOptions(strategy="coordinate"),
    )


def test_composite_join_keys(session):
    """Two equality conditions between the same pair of generators form
    one composite-key join (Rule 14)."""
    a = RNG.uniform(0, 9, size=(10, 8))
    b = RNG.uniform(0, 9, size=(10, 8))
    A, B = session.tiled(a), session.tiled(b)
    compiled = session.compile(
        "tiled(n,m)[ ((i,j), x + y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j ]",
        A=A, B=B, n=10, m=8,
    )
    assert compiled.plan.rule == RULE_COORDINATE
    np.testing.assert_allclose(compiled.execute().to_numpy(), a + b, rtol=1e-10)


def test_computed_join_keys(session):
    """Join keys may be expressions, not just variables."""
    a = RNG.uniform(0, 9, size=(6, 6))
    A = session.tiled(a)
    B = session.tiled(a)
    # Pair each element with the one one column to its right.
    result = session.run(
        "rdd[ ((i,j), x + y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j + 1 ]",
        A=A, B=B,
    ).collect()
    expected = {
        (i, j): a[i, j] + a[i, j + 1]
        for i in range(6) for j in range(5)
    }
    assert dict(result) == pytest.approx(expected)


def test_cartesian_when_no_join_condition(session):
    u = session.tiled_vector(np.array([1.0, 2.0]))
    v = session.tiled_vector(np.array([10.0, 20.0, 30.0]))
    compiled = session.compile(
        "tiled(n,m)[ ((i,j), x * y) | (i,x) <- U, (j,y) <- V ]",
        U=u, V=v, n=2, m=3,
    )
    assert compiled.plan.rule == RULE_COORDINATE
    np.testing.assert_allclose(
        compiled.execute().to_numpy(), np.outer([1, 2], [10, 20, 30])
    )


def test_three_way_join_chain(session):
    a = RNG.uniform(0, 9, size=(5, 5))
    A = session.tiled(a)
    result = dict(session.run(
        "rdd[ (i, x + y + z) | ((i,j),x) <- A, ((i2,j2),y) <- A,"
        " i2 == i, j2 == j, ((i3,j3),z) <- A, i3 == i, j3 == j ]",
        A=A,
    ).collect())
    # Every element joined with itself twice: 3x per (i, j); keyed by i,
    # later duplicates win but all values for a given i come from row i.
    for i, value in result.items():
        assert any(np.isclose(value, 3 * a[i, j]) for j in range(5))


def test_mixed_coo_and_tiled_sources(session):
    from repro.storage import CooMatrix

    dense = RNG.uniform(1, 2, size=(6, 6))
    sparse = CooMatrix.from_items(6, 6, [((1, 2), 5.0), ((4, 0), 3.0)])
    D = session.tiled(dense)
    result = session.run(
        "rdd[ ((i,j), s * d) | ((i,j),s) <- S, ((ii,jj),d) <- D,"
        " ii == i, jj == j ]",
        S=sparse, D=D,
    ).collect()
    assert dict(result) == pytest.approx({
        (1, 2): 5.0 * dense[1, 2],
        (4, 0): 3.0 * dense[4, 0],
    })


def test_group_by_with_residual_function(session):
    """Rule 13's mapValues(f) stage: a non-identity residual."""
    a = RNG.uniform(1, 9, size=(8, 8))
    A = session.tiled(a)
    result = session.run(
        "tiled_vector(n)[ (i, (+/v) / count/v) | ((i,j),v) <- A, group by i ]",
        A=A, n=8,
    )
    np.testing.assert_allclose(result.to_numpy(), a.mean(axis=1), rtol=1e-10)


def test_coordinate_filters(session):
    a = RNG.uniform(0, 9, size=(7, 7))
    A = session.tiled(a)
    total = session.run(
        "+/[ v | ((i,j),v) <- A, v > 5.0, i != j ]", A=A
    )
    mask = (a > 5.0) & ~np.eye(7, dtype=bool)
    assert np.isclose(total, a[mask].sum())
