"""Ablation E4 — coordinate format vs tiled blocks (Section 4 vs 5).

The paper (and its DIABLO predecessor) motivates block arrays by the
cost of the coordinate format: every element is a keyed record, so joins
and group-bys shuffle every element individually, while tiled arrays
move whole dense blocks with indices computed, not stored.  This ablation
runs the same multiplication comprehension pinned to
``strategy="coordinate"`` (Rules 13/14 over element pairs) against the
tiled GBJ plan.

Sizes are small: the coordinate plan is quadratically heavier by design.
The coordinate plan runs over column batches (one record per partition,
a column per bound variable), so what it pays for is what the format
itself costs — a join output of n³ rows and every index stored — not
interpreter seconds per element.
"""

import pytest

from repro import PlannerOptions, SacSession
from repro.workloads import dense_uniform

TILE = 16
SIZES = [16, 32, 48]
ROUNDS = 2

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


def _setup(n, strategy):
    a = dense_uniform(n, n, seed=n)
    b = dense_uniform(n, n, seed=n + 1)
    session = SacSession(
        tile_size=TILE,
        options=PlannerOptions(strategy=strategy),
    )
    A = session.tiled(a).materialize()
    B = session.tiled(b).materialize()
    return session, A, B


@pytest.mark.parametrize("n", SIZES)
def test_multiply_tiled(benchmark, measure, n):
    record, run_measured = measure
    session, A, B = _setup(n, None)

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-coordinate", "tiled (block arrays)", n, wall, sim, shuffled, counters)


@pytest.mark.parametrize("n", SIZES)
def test_multiply_coordinate(benchmark, measure, n):
    record, run_measured = measure
    session, A, B = _setup(n, "coordinate")

    def run():
        session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-coordinate", "coordinate (Rules 13/14)", n, wall, sim, shuffled, counters)


def test_coordinate_slower_than_tiled_simulated(measure):
    """Section 4 -> 5: the coordinate plan costs more simulated seconds
    *and* more shuffled bytes than the tiled plan, at every size.

    Measured over five sessions each at the largest size: 0.132-0.138 s
    against 0.0171-0.0174 s (7.6-8.0x — the n³-row join and group-by run
    as one task per stage at the width 48² elements earn) and exactly
    222 664 against 113 508 bytes; the 3x asserted there leaves the
    simulated-compute noise of a shared host more than a factor of two.
    The smallest size measured 2.2x (0.037 s against 0.0166 s).
    """
    _record, run_measured = measure
    for n in SIZES:
        measured = {}
        for strategy in (None, "coordinate"):
            session, A, B = _setup(n, strategy)

            def run():
                session.run(MULTIPLY, A=A, B=B, n=n, m=n).tiles.count()

            _wall, sim, shuffled, _counters = run_measured(session.engine, run)
            measured[strategy] = (sim, shuffled)
        (tiled_sim, tiled_bytes), (coord_sim, coord_bytes) = (
            measured[None], measured["coordinate"]
        )
        assert coord_sim > (3 if n == SIZES[-1] else 1) * tiled_sim, n
        assert coord_bytes > tiled_bytes, n


def test_coordinate_and_tiled_agree():
    import numpy as np

    n = SIZES[0]
    s1, A1, B1 = _setup(n, None)
    s2, A2, B2 = _setup(n, "coordinate")
    r1 = s1.run(MULTIPLY, A=A1, B=B1, n=n, m=n).to_numpy()
    r2 = s2.run(MULTIPLY, A=A2, B=B2, n=n, m=n).to_numpy()
    np.testing.assert_allclose(r1, r2, rtol=1e-10)
