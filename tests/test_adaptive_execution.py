"""Adaptive query execution: re-optimization from measured statistics.

Covers the two mechanisms end to end — skew splitting and the runtime
broadcast downgrade — plus the pure planning helpers and the invariant
that a cluster whose thresholds never fire, under a strategy pin, takes
no action.  Result equality between the adaptive arm and the static one
(the skew factor set to infinity) is asserted everywhere:
re-optimization may re-associate floating-point reductions but must
never change what is computed (`assert_allclose` where association
changes, exact equality where the execution is untouched).
"""

import dataclasses
import math

import numpy as np

from repro import PlannerOptions, SacSession
from repro.engine import PAPER_CLUSTER
from repro.engine.adaptive import _expand_cartesian_records, _lower_median
from repro.workloads import dense_uniform, zipf_block_rows

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


def _makespan(delta) -> float:
    """Simulated critical path: the longest task of every stage, chained."""
    return sum(sc.longest_task_seconds for sc in delta.stage_costs)


# ----------------------------------------------------------------------
# Pure planning helpers
# ----------------------------------------------------------------------


def test_lower_median_ignores_empty_buckets_and_hot_tail():
    assert _lower_median([0, 10, 0, 1000]) == 10
    assert _lower_median([5, 10, 1000]) == 10
    assert _lower_median([0, 0]) == 0


def test_expand_cartesian_records_preserves_pair_multiset():
    records = [(7, (list(range(6)), list("abcd"))), (8, ([1], ["z"]))]

    def pairs(recs):
        return sorted(
            (key, l, r) for key, (ls, rs) in recs for l in ls for r in rs
        )

    expanded = _expand_cartesian_records(list(records), 9)
    assert len(expanded) >= 9
    assert pairs(expanded) == pairs(records)
    # Unsplittable shapes are returned unchanged rather than looping.
    odd = [(1, "not-a-pair")]
    assert _expand_cartesian_records(list(odd), 4) == odd


# ----------------------------------------------------------------------
# Skew splitting (the Section 5.3 hot join key)
# ----------------------------------------------------------------------

#: Paper cluster with the skew floor lowered so the unit-test-sized
#: workload (45x45 tiles, ~16KB each) crosses the detection threshold.
_SKEW_CLUSTER = dataclasses.replace(
    PAPER_CLUSTER, adaptive_skew_min_bytes=64 * 2**10
)


def _skewed_arrays(n=360, tile=45, alpha=2.5, seed=7):
    skewed = zipf_block_rows(n, n, tile, alpha=alpha, seed=seed)
    return skewed.T.copy(), skewed


def _skew_run(adaptive, n=360, tile=45):
    """The skewed multiply; the static arm's skew factor never fires."""
    a, b = _skewed_arrays(n, tile)
    cluster = _SKEW_CLUSTER
    if not adaptive:
        cluster = dataclasses.replace(cluster, adaptive_skew_factor=math.inf)
    with SacSession(
        cluster=cluster, tile_size=tile,
        options=PlannerOptions(strategy="tiled-reduce"),
        runner="serial",
    ) as session:
        # The skew is spread over the cluster's cores, not over the few
        # partitions the operands' bytes would ask for.
        parts = session.engine.cluster.total_cores
        A = session.sparse_tiled(a, num_partitions=parts)
        B = session.sparse_tiled(b, num_partitions=parts)
        assert A.tiles.num_partitions > 1 and B.tiles.num_partitions > 1
        snapshot = session.metrics_snapshot()
        out = session.run(MULTIPLY, A=A, B=B, n=n, m=n).to_numpy()
        delta = session.metrics_delta(snapshot)
    return out, delta, a, b


def test_skew_split_fires_and_preserves_results():
    off_out, off_delta, a, b = _skew_run(False)
    on_out, on_delta, _, _ = _skew_run(True)
    assert off_delta.adaptive_decisions == []
    split_decisions = [
        d for d in on_delta.adaptive_decisions if d.kind == "skew-split"
    ]
    assert split_decisions, "hot join partition was not split"
    decision = split_decisions[0]
    assert decision.measured["splits"] >= 2
    assert decision.measured["partition_bytes"] > (
        _SKEW_CLUSTER.adaptive_skew_factor * decision.measured["median_bytes"]
    )
    # The hot partition fanned out over extra map tasks; shuffle volume is
    # measured identically (the same records cross, in more groups).
    assert on_delta.tasks > off_delta.tasks
    assert on_delta.shuffle_bytes == off_delta.shuffle_bytes
    # Splitting re-associates the += of partial tiles: allclose, not equal.
    np.testing.assert_allclose(on_out, off_out, rtol=1e-12)
    np.testing.assert_allclose(on_out, a @ b)


def test_skew_split_decision_reaches_job_metrics():
    _, delta, _, _ = _skew_run(True)
    kinds = {d.kind for d in delta.adaptive_decisions}
    assert "skew-split" in kinds
    summary = [d for d in delta.adaptive_decisions if d.kind == "skew-split"][0].summary()
    assert "skew-split" in summary and "median" in summary


# ----------------------------------------------------------------------
# Runtime broadcast downgrade (planner level)
# ----------------------------------------------------------------------


def _downgrade_session(tile=90, n=720):
    """A multiply whose right side is tiny but whose statistics were
    stripped, so the compile-time cost model prices it as dense."""
    a = dense_uniform(n, n, seed=1)
    b = np.zeros((n, n))
    b[:tile, :] = dense_uniform(tile, n, seed=2)
    session = SacSession(tile_size=tile, runner="serial")
    A = session.tiled(a)
    B = session.sparse_tiled(b)
    B._recorded_nnz = None
    B._recorded_tiles = None
    assert B.stats.block_density == 1.0  # stats really are gone
    return session, A, B, a, b, n


def test_broadcast_downgrade_recovers_cheap_plan_mid_job():
    session, A, B, a, b, n = _downgrade_session()
    with session:
        compiled = session.compile(MULTIPLY, A=A, B=B, n=n, m=n)
        # Dense pricing picks a non-broadcast strategy at compile time.
        assert compiled.plan.details["strategy"] != "gbj-broadcast-right"
        out = compiled.execute()
        assert compiled.plan.details["adaptive_strategy"] == "gbj-broadcast-right"
        downgrades = [
            d for d in compiled.plan.adaptive_decisions
            if d.kind == "broadcast-downgrade"
        ]
        assert len(downgrades) == 1
        decision = downgrades[0]
        # The decision report carries measurement and contradicted estimate.
        assert decision.measured["side"] == "right"
        assert decision.measured["side_bytes"] < decision.estimate["shuffle_bytes"]
        explained = compiled.plan.explain()
        assert "adaptive decisions:" in explained
        assert "broadcast-downgrade" in explained
        np.testing.assert_allclose(out.to_numpy(), a @ b)


def test_downgrade_lowers_an_emit_broadcast_tree(monkeypatch):
    """The replacement is IR: the tree ``emit_broadcast`` returns, lowered
    through the same ``lower_node`` as the compile-time plan."""
    from repro.planner import lower as lower_module

    assert not hasattr(lower_module, "build_broadcast_thunk")
    roots = []
    real_lower_node = lower_module.lower_node

    def spy(node, state):
        if node.op == "Assemble":
            roots.append(node)
        return real_lower_node(node, state)

    session, A, B, a, b, n = _downgrade_session()
    with session:
        compiled = session.compile(MULTIPLY, A=A, B=B, n=n, m=n)
        monkeypatch.setattr(lower_module, "lower_node", spy)
        out = compiled.execute()
        (replacement,) = roots  # nothing else is lowered at execute time
        assert replacement is not compiled.plan.physical
        assert replacement.attrs["strategy"] == "gbj-broadcast-right"
        assert replacement.render() == (
            "Assemble(GroupByJoin[broadcast]"
            "(Scan[i,k], Broadcast[right](Scan[kk,j])))"
        )
        np.testing.assert_allclose(out.to_numpy(), a @ b)


def test_measured_sizes_feed_later_compiles():
    session, A, B, a, b, n = _downgrade_session()
    with session:
        first = session.compile(MULTIPLY, A=A, B=B, n=n, m=n)
        assert first.plan.details["strategy"] != "gbj-broadcast-right"
        first.execute()
        # The downgrade's measurements persist: recompiling the same query
        # now prices with facts and picks broadcast up front.
        second = session.compile(MULTIPLY, A=A, B=B, n=n, m=n, cache=False)
        assert second.plan.details["strategy"] == "gbj-broadcast-right"
        np.testing.assert_allclose(second.execute().to_numpy(), a @ b)


def test_downgrade_respects_explicit_strategy_overrides():
    session, A, B, a, b, n = _downgrade_session()
    session.options = PlannerOptions(strategy="gbj-replicate")  # pinned by user
    with session:
        compiled = session.compile(MULTIPLY, A=A, B=B, n=n, m=n)
        assert compiled.plan.details["strategy"] == "gbj-replicate"
        out = compiled.execute()
        # A pinned strategy is never second-guessed.
        assert "adaptive_strategy" not in compiled.plan.details
        assert all(
            d.kind != "broadcast-downgrade"
            for d in session.engine.adaptive.decisions
        )
        np.testing.assert_allclose(out.to_numpy(), a @ b)


def test_adaptive_disabled_session_takes_no_actions():
    """Thresholds that never fire and a strategy pin leave the always
    armed adaptive layer idle."""
    static = dataclasses.replace(PAPER_CLUSTER, adaptive_skew_factor=math.inf)
    session = SacSession(
        cluster=static, tile_size=45, runner="serial",
        options=PlannerOptions(strategy="tiled-reduce"),
    )
    a, b = _skewed_arrays()
    with session:
        A = session.sparse_tiled(a)
        B = session.sparse_tiled(b)
        out = session.run(MULTIPLY, A=A, B=B, n=360, m=360).to_numpy()
        assert session.engine.adaptive.decisions == []
        assert session.engine.adaptive.measured_sizes == {}
        np.testing.assert_allclose(out, a @ b)
