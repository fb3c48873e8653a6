"""Ablation E13 — the out-of-core spill tier under memory pressure.

A Fig 4.C-style tiled multiply runs with its working set several times
larger than the configured ``memory_limit``: evicted partitions and
retained shuffle outputs are serialized to the local-disk object store
and restored on demand (or ahead of demand by the async prefetcher).
Three arms:

* **uncapped** — the baseline: everything stays resident;
* **capped + prefetch** — the spill tier with stage-dispatch prefetch
  restoring soon-to-be-read partitions into budget headroom;
* **capped, no prefetch** — every restore happens on the demand path,
  so its latency lands in ``restore_stall_seconds``.

The capped arms must reproduce the uncapped result byte-for-byte and
each other's shuffle counters exactly — the tier only moves bytes
between memory and disk.  What the cap may change is the *plan*: it is
a cost-model input, so under pressure SUMMA replicates to a coarser
processor grid and ships less (the inputs are integer-valued, where
every grid sums to the same bits).  The report records spilled/restored
bytes, prefetch hits, and demand-restore stalls so the prefetch win is
visible next to the figures.
"""

import numpy as np
import pytest

from repro import PlannerOptions, SacSession
from repro.engine import PAPER_CLUSTER, EngineContext
from repro.workloads import dense_uniform

TILE = 30
N = 240
#: Memory cap for the capped arms; the multiply's working set (inputs,
#: shuffle buckets, partial products, output) runs well past 4x this.
CAP = 128 * 1024

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)

ARMS = {
    "uncapped": (None, True),
    "capped-prefetch": (CAP, True),
    "capped-no-prefetch": (CAP, False),
}


def _run_arm(limit, prefetch):
    engine = EngineContext(
        cluster=PAPER_CLUSTER, memory_limit=limit, spill_prefetch=prefetch,
    )
    session = SacSession(
        engine=engine, tile_size=TILE,
        options=PlannerOptions(strategy="gbj-replicate"),
    )
    try:
        a = np.floor(8 * dense_uniform(N, N, seed=N))
        b = np.floor(8 * dense_uniform(N, N, seed=N + 1))
        import time

        # One partition per simulated core, as on the paper's cluster:
        # prefetch restores the partitions the next tasks read, and 0.5 MB
        # operands sized by their bytes are one partition each, with
        # nothing to restore ahead of a reader.
        parts = engine.cluster.total_cores
        start = time.perf_counter()
        A = session.tiled(a, num_partitions=parts)
        B = session.tiled(b, num_partitions=parts)
        result = session.run(MULTIPLY, A=A, B=B, n=N, m=N).to_numpy()
        wall = time.perf_counter() - start
        total = session.engine.metrics.total
        counters = {
            "stages": total.stages,
            "tasks": total.tasks,
            "shuffles": total.shuffles,
            "shuffle_records": total.shuffle_records,
            "shuffle_bytes": total.shuffle_bytes,
            "spilled_bytes": total.spilled_bytes,
            "restored_bytes": total.restored_bytes,
            "spill_restores": total.spill_restores,
            "prefetch_hits": total.prefetch_hits,
            "restore_stall_seconds": round(total.restore_stall_seconds, 4),
        }
        sim = total.simulated_time(engine.cluster)
        return result, wall, sim, total.shuffle_bytes, counters
    finally:
        session.engine.close()


@pytest.mark.parametrize("arm", list(ARMS), ids=list(ARMS))
def test_spill_arms(measure, arm):
    """E13: record each arm's counters for the report."""
    record, _run_measured = measure
    limit, prefetch = ARMS[arm]
    _result, wall, sim, shuffled, counters = _run_arm(limit, prefetch)
    record("ablation-spill", arm, N, wall, sim, shuffled, counters)


def test_capped_arms_match_uncapped_and_prefetch_hides_restores(measure):
    """Byte-identity under the cap, and prefetch serving some reads."""
    record, _run_measured = measure
    base_result, base_wall, base_sim, base_shuffled, base = _run_arm(
        None, True
    )
    pf_result, pf_wall, pf_sim, pf_shuffled, with_pf = _run_arm(CAP, True)
    np_result, np_wall, np_sim, np_shuffled, without_pf = _run_arm(CAP, False)
    record("ablation-spill", "uncapped (A/B)", N, base_wall, base_sim,
           base_shuffled, base)
    record("ablation-spill", "capped-prefetch (A/B)", N, pf_wall, pf_sim,
           pf_shuffled, with_pf)
    record("ablation-spill", "capped-no-prefetch (A/B)", N, np_wall, np_sim,
           np_shuffled, without_pf)

    np.testing.assert_array_equal(pf_result, base_result)
    np.testing.assert_array_equal(np_result, base_result)
    exact = ("stages", "tasks", "shuffles", "shuffle_records",
             "shuffle_bytes")
    assert {k: with_pf[k] for k in exact} == {k: without_pf[k] for k in exact}
    # The cap re-prices the plan, never its shape: same stages and
    # shuffles, and no more bytes than the uncapped grid ships.
    assert (with_pf["stages"], with_pf["shuffles"]) == (
        base["stages"], base["shuffles"]
    )
    assert with_pf["shuffle_bytes"] <= base["shuffle_bytes"]

    # The uncapped arm never touches the tier; the capped arms must.
    assert base["spilled_bytes"] == 0
    assert with_pf["spilled_bytes"] > 0
    assert without_pf["spilled_bytes"] > 0
    assert with_pf["restored_bytes"] <= with_pf["spilled_bytes"]
    assert without_pf["restored_bytes"] <= without_pf["spilled_bytes"]

    # Prefetch moves restores off the demand path: with it on, some
    # reads land on already-restored blocks; with it off, none can.
    assert with_pf["prefetch_hits"] > 0
    assert without_pf["prefetch_hits"] == 0
    # How many restores that leaves on the demand path depends on how
    # the prefetch pool's threads interleave with the reader (a
    # prefetched block may be evicted again before it is read), so the
    # two counts are reported, not compared.
    demand_with = with_pf["spill_restores"] - with_pf["prefetch_hits"]
    demand_without = without_pf["spill_restores"]
    print(
        f"\nspill: {with_pf['spilled_bytes'] / 1e6:.2f}MB spilled; "
        f"demand restores {demand_with} (prefetch on, "
        f"{with_pf['restore_stall_seconds']}s stall) vs {demand_without} "
        f"(prefetch off, {without_pf['restore_stall_seconds']}s stall)"
    )
