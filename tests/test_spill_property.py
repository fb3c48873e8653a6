"""Property-based fuzzing of the out-of-core spill tier.

Hypothesis drives random chains of matrix operations (add, multiply,
transpose, hadamard) over dense and block-sparse inputs, executed under
a randomly drawn memory cap.  Every capped run must match the uncapped
oracle byte-for-byte, and the spill counters must stay internally
consistent: each restore consumes a spill object (``restored_bytes <=
spilled_bytes``), resident bytes never go negative, and with no cap the
tier does not exist at all.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro import SacSession  # noqa: E402
from repro.engine import TINY_CLUSTER  # noqa: E402

N = 20  # square matrices keep every op in the chain shape-compatible
TILE = 10

QUERIES = {
    "add": (
        "tiled(n,m)[ ((i,j), a + b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
        " ii == i, jj == j ]"
    ),
    "multiply": (
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
        " kk == k, let v = a*b, group by (i,j) ]"
    ),
    "transpose": "tiled(m,n)[ ((j,i), a) | ((i,j),a) <- A ]",
    "hadamard": (
        "tiled(n,m)[ ((i,j), a * b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
        " ii == i, jj == j ]"
    ),
}


def _make_input(seed: int, sparse: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(size=(N, N))
    if sparse:
        # Zero out a block pattern so the sparse builder actually drops
        # tiles (block sparsity, the engine's unit of skipping).
        for bi in range(0, N, TILE):
            for bj in range(0, N, TILE):
                if rng.random() < 0.5:
                    matrix[bi:bi + TILE, bj:bj + TILE] = 0.0
    return matrix


def _run_chain(matrix: np.ndarray, ops, sparse: bool, memory_limit):
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=TILE,
        memory_limit=memory_limit,
    )
    try:
        bind = session.sparse_tiled if sparse else session.tiled
        base = bind(matrix)
        current = base
        for op in ops:
            current = session.run(QUERIES[op], A=current, B=base, n=N, m=N)
        result = np.asarray(current.to_numpy())
        total = session.engine.metrics.total
        resident = session.engine.block_manager.cached_bytes
        return result, total, resident
    finally:
        session.engine.close()


@given(
    ops=st.lists(
        st.sampled_from(sorted(QUERIES)), min_size=1, max_size=3
    ),
    cap=st.integers(min_value=1024, max_value=16384),
    sparse=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_random_chains_under_random_caps_match_uncapped_oracle(
    ops, cap, sparse, seed
):
    matrix = _make_input(seed, sparse)
    capped_result, capped, capped_resident = _run_chain(
        matrix, ops, sparse, memory_limit=cap
    )
    oracle_result, oracle, _ = _run_chain(
        matrix, ops, sparse, memory_limit=None
    )

    np.testing.assert_array_equal(capped_result, oracle_result)
    # The cap may only move bytes between tiers, never change the work.
    assert capped.stages == oracle.stages
    assert capped.tasks == oracle.tasks
    assert capped.shuffles == oracle.shuffles
    assert capped.shuffle_records == oracle.shuffle_records
    assert capped.shuffle_bytes == oracle.shuffle_bytes

    # Internal consistency of the spill accounting.
    assert capped.restored_bytes <= capped.spilled_bytes
    assert capped.spilled_bytes >= 0
    assert capped.spill_restores >= 0
    assert capped.prefetch_hits <= capped.spill_restores
    assert capped.restore_stall_seconds >= 0.0
    assert 0.0 <= capped.spill_hit_rate() <= 1.0
    assert capped_resident >= 0  # no negative budgets, ever

    # The uncapped oracle has no spill machinery at all.
    assert oracle.spilled_bytes == 0
    assert oracle.restored_bytes == 0
    assert oracle.spill_restores == 0
    assert oracle.prefetch_hits == 0
