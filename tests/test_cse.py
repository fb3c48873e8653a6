"""Common-subplan (shuffle) reuse: the CSE pass end to end.

With ``PlannerOptions(cse=True)`` the planner
fingerprints reusable plans, the session hands an identical recompile
the *same* Plan object, lowering marks the plan's replicated shuffle
inputs, and the :class:`~repro.engine.block_manager.BlockManager`
serves their retained map outputs to later executions.  These tests
pin the acceptance bar (>= 1.5x less measured shuffle on a repeated
workload), result parity, the off-by-default gate, and the dedup
machinery itself.
"""

import numpy as np
import pytest

from repro import SacSession
from repro.engine import TINY_CLUSTER
from repro.planner import PlannerOptions
from repro.planner.ir import IRNode, dedupe_dag

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
STEPS = 4


def _run_steps(cse: bool, steps: int = STEPS):
    """Re-run the same multiply ``steps`` times (an iterative workload).

    Replication is forced so the plan is the SUMMA group-by-join whose
    shuffle inputs the CSE pass marks; the cost model's choice is
    shape-dependent and beside the point here.
    """
    rng = np.random.default_rng(7)
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(group_by_join=True, cse=cse),
    )
    A = session.tiled(rng.uniform(size=(40, 30)))
    B = session.tiled(rng.uniform(size=(30, 40)))
    result = None
    for _ in range(steps):
        result = session.run(MULTIPLY, A=A, B=B, n=40, m=40).to_numpy()
    total = session.engine.metrics.total
    return result, total


def test_cse_preserves_results():
    off_result, _ = _run_steps(cse=False)
    on_result, _ = _run_steps(cse=True)
    np.testing.assert_allclose(on_result, off_result, rtol=1e-10)


def test_cse_reduces_measured_shuffle_1_5x():
    """Acceptance bar: >= 1.5x less measured shuffle with CSE on."""
    _, off = _run_steps(cse=False)
    _, on = _run_steps(cse=True)
    assert off.shuffle_bytes >= 1.5 * on.shuffle_bytes, (
        f"CSE shuffle reduction only "
        f"{off.shuffle_bytes / max(on.shuffle_bytes, 1):.2f}x "
        f"({off.shuffle_bytes} vs {on.shuffle_bytes} bytes)"
    )
    assert off.shuffle_records >= 1.5 * on.shuffle_records
    assert on.shuffle_reuses > 0
    assert off.shuffle_reuses == 0


def test_cse_off_keeps_engine_reuse_off():
    """Without CSE nothing opts in: every step re-shuffles in full."""
    _, off = _run_steps(cse=False, steps=2)
    assert off.shuffle_reuses == 0
    assert off.shuffles == 2 * (off.shuffles // 2)  # all real, none reused


def test_cse_annotations_and_trace():
    rng = np.random.default_rng(3)
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(group_by_join=True, cse=True),
    )
    A = session.tiled(rng.uniform(size=(30, 20)))
    B = session.tiled(rng.uniform(size=(20, 30)))
    plan = session.compile(MULTIPLY, A=A, B=B, n=30, m=30).plan
    assert plan.physical.attrs["cse"] is True
    assert plan.fingerprint  # only fingerprinted when CSE is on
    cse_entry = next(e for e in plan.trace if e.name == "cse")
    assert "marked for cross-query reuse" in cse_entry.note


def test_cse_disabled_by_default():
    rng = np.random.default_rng(3)
    session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    A = session.tiled(rng.uniform(size=(30, 20)))
    B = session.tiled(rng.uniform(size=(20, 30)))
    plan = session.compile(MULTIPLY, A=A, B=B, n=30, m=30).plan
    assert "cse" not in plan.physical.attrs
    assert plan.fingerprint is None
    cse_entry = next(e for e in plan.trace if e.name == "cse")
    assert "disabled" in cse_entry.note


def test_dedupe_dag_merges_identical_subtrees():
    storage = object()
    shared_sig = (("rows", 10),)

    def leaf():
        return IRNode("Scan", sig=shared_sig, identity=(id(storage),))

    root = IRNode("Join", children=(leaf(), leaf()))
    deduped, merged = dedupe_dag(root)
    assert merged == 1
    assert deduped.children[0] is deduped.children[1]


def test_dedupe_dag_keeps_distinct_identities_apart():
    """Equal shape over *different* storages must not merge."""
    a, b = object(), object()
    root = IRNode("Join", children=(
        IRNode("Scan", sig=(("rows", 10),), identity=(id(a),)),
        IRNode("Scan", sig=(("rows", 10),), identity=(id(b),)),
    ))
    deduped, merged = dedupe_dag(root)
    assert merged == 0
    assert deduped.children[0] is not deduped.children[1]
