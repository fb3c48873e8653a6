"""Ablation E11 — common-subplan (shuffle) reuse on iterative workloads.

Iterative algorithms (gradient descent, power iteration) re-submit the
same comprehension every step over the *same* operands.  Without reuse
every step replicates and shuffles the operand tiles from scratch; with
``PlannerOptions(cse=True)`` the planner fingerprints the plan, the
session hands each step the same lowered Plan, and the engine's
BlockManager serves the retained replicate map outputs — so only the
first step pays the shuffle.

Both arms run the identical ``STEPS``-iteration loop and report the
cumulative measured shuffle volume; the CSE arm's counters also show
the ``shuffle_reuses`` the BlockManager answered.
"""

import pytest

from repro import PlannerOptions, SacSession
from repro.engine import BENCH_CLUSTER
from repro.workloads import dense_uniform

TILE = 90
ROUNDS = 2
STEPS = 4
SIZES = [360, 540]

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)

ARMS = {"cse off": False, "cse on": True}


def _setup(n, cse):
    session = SacSession(
        cluster=BENCH_CLUSTER, tile_size=TILE,
        options=PlannerOptions(strategy="gbj-replicate", cse=cse),
    )
    env = {
        "A": session.tiled(dense_uniform(n, n, seed=5)).materialize(),
        "B": session.tiled(dense_uniform(n, n, seed=6)).materialize(),
        "n": n, "m": n,
    }
    return session, env


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_repeated_multiply_steps(benchmark, measure, n, arm):
    record, run_measured = measure
    session, env = _setup(n, ARMS[arm])

    def run():
        for _ in range(STEPS):
            session.run(MULTIPLY, env).materialize()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    record("ablation-cse", arm, n, wall, sim, shuffled, counters)
