"""Ablation — cost-based strategy selection across matrix shapes.

The planner's cost model (``repro.planner.cost``) chooses among SUMMA
replication (5.4), broadcasting one side, and the naive join+group-by
(5.3) per query.  This ablation sweeps shape regimes where the best
strategy differs:

* **square** — both sides large: replicating row/column bands (SUMMA)
  beats broadcasting a whole side and the skew-bound naive join;
* **tall-skinny** — a one-tile-wide right side: shipping the small side
  to every executor halves the shuffle volume, so the model flips to
  the broadcast join;
* **tiny-x-large** — the mirrored case flips to broadcasting the left.

Each cost-based choice is benchmarked against the forced alternatives,
so the report shows the measured shuffle volume the model's decision
saved; per-arm estimated-vs-measured bytes validate the model itself.
"""

import pytest

from conftest import plan_report
from repro import PlannerOptions, SacSession
from repro.engine import BENCH_CLUSTER
from repro.workloads import dense_uniform

TILE = 90
ROUNDS = 2

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)

#: (case, A shape, B shape, strategy the cost model must choose)
CASES = [
    ("square", (540, 540), (540, 540), "gbj-replicate"),
    ("tall-skinny", (720, 720), (720, 90), "gbj-broadcast-right"),
    ("tiny-x-large", (90, 720), (720, 720), "gbj-broadcast-left"),
]

#: Forced-strategy arms the chosen plan is compared against.
ARMS = {
    "cost-based": None,
    "forced replicate": PlannerOptions(strategy="gbj-replicate"),
    "forced join+group-by": PlannerOptions(strategy="tiled-reduce"),
}


def _setup(shape_a, shape_b, options):
    # One partition per core: a broadcast contracts on the large side's
    # partitions, and the few its bytes alone ask for would price every
    # flip away.
    session = SacSession(
        cluster=BENCH_CLUSTER, tile_size=TILE, options=options,
        num_partitions=BENCH_CLUSTER.default_parallelism(),
    )
    env = {
        "A": session.tiled(dense_uniform(*shape_a, seed=3)).materialize(),
        "B": session.tiled(dense_uniform(*shape_b, seed=4)).materialize(),
        "n": shape_a[0],
        "m": shape_b[1],
    }
    compiled = session.compile(MULTIPLY, env)
    return session, compiled, env


@pytest.mark.parametrize("case,shape_a,shape_b,expected", CASES)
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_costmodel_strategies(benchmark, measure, case, shape_a, shape_b,
                              expected, arm):
    record, run_measured = measure
    session, compiled, env = _setup(shape_a, shape_b, ARMS[arm])
    if arm == "cost-based":
        assert compiled.plan.details["strategy"] == expected

    def run():
        session.run(MULTIPLY, env).tiles.count()

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    wall, sim, shuffled, counters = run_measured(session.engine, run)
    counters.update(plan_report(compiled, session))
    size = max(*shape_a, *shape_b)
    record(f"ablation-costmodel-{case}", f"SAC {arm}", size, wall, sim,
           shuffled, counters)

    estimate = compiled.plan.estimate
    if estimate is not None and shuffled:
        # The model's shuffle-byte prediction must land within 2x of the
        # measured volume for every strategy it can choose between.
        assert 0.5 <= estimate.shuffle_bytes / shuffled <= 2.0


@pytest.mark.parametrize("case,shape_a,shape_b,expected", CASES)
def test_costmodel_flip_saves_shuffle(measure, case, shape_a, shape_b,
                                      expected):
    """Where the model flips away from SUMMA, the flip must pay off."""
    _, run_measured = measure
    session, compiled, _env = _setup(shape_a, shape_b, None)
    forced_session, forced, _fenv = _setup(
        shape_a, shape_b, PlannerOptions(strategy="gbj-replicate")
    )

    def measure_bytes(sess, plan):
        return run_measured(
            sess.engine, lambda: plan.execute().tiles.count(), repeats=1
        )[2]

    chosen_bytes = measure_bytes(session, compiled)
    forced_bytes = measure_bytes(forced_session, forced)
    if expected.startswith("gbj-broadcast"):
        assert chosen_bytes < forced_bytes
    else:
        assert compiled.plan.details["strategy"] == "gbj-replicate"
        assert chosen_bytes == forced_bytes
