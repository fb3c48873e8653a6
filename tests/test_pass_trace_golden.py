"""Golden pass-trace snapshots for the paper's worked examples.

Every compile now records a :class:`~repro.planner.ir.PassTraceEntry`
per pass — name, note, and the physical IR rendered before/after.  These
tests pin the full trace (and the final physical DAG shape) for the
paper's flagship queries, so any change to the pipeline's decisions
shows up as a reviewable golden diff rather than a silent behavior
change.

Shapes and the cluster are fixed (TINY_CLUSTER, 10×10 tiles, dense
arange data), making every strategy choice deterministic.  The operands
are a few KB, so each is one partition; the two multiplies chose a
broadcast of the left side while every storage was cut into the
cluster's four partitions, and choose SUMMA replication since storages
are sized by their bytes.
"""

import numpy as np
import pytest

from repro import SacSession
from repro.engine import TINY_CLUSTER

TILE = 10


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=TILE)


def _mat(session, rows, cols):
    data = np.arange(float(rows * cols)).reshape(rows, cols) / (rows * cols)
    return session.tiled(data)


def trace_of(session, query, env):
    plan = session.compile(query, env).plan
    return [entry.summary() for entry in plan.trace], (
        plan.trace[-1].after if plan.trace else ""
    )


PASS_NAMES = [
    "normalize-bridge", "tiling-resolution", "strategy-selection",
    "cse",
]


def test_add_trace(session):
    """Query (8): matrix addition via an equality join -> preserve-tiling."""
    summaries, final = trace_of(
        session,
        "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- M, ((ii,jj),b) <- N2,"
        " ii == i, jj == j ]",
        {"M": _mat(session, 30, 20), "N2": _mat(session, 30, 20),
         "n": 30, "m": 20},
    )
    assert summaries == [
        "normalize-bridge: builder 'tiled'; 2 generator(s) analyzed",
        "tiling-resolution: resolved 2 generator(s); index classes [0, 1],"
        " tile size 10",
        "strategy-selection: rule preserve-tiling; kernel 4c67ee27291e082c"
        " (mode joined) [rewrote plan]",
        "cse: disabled (enable with PlannerOptions(cse=True))",
    ]
    assert final == (
        "Assemble[tiled](FusedKernel[fused kernel]"
        "(Scan[i,j], Scan[ii,jj]))"
    )


def test_multiply_trace(session):
    """Query (9): group-by matrix multiply -> cost-chosen group-by-join."""
    summaries, final = trace_of(
        session,
        "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- M, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]",
        {"M": _mat(session, 30, 20), "C": _mat(session, 20, 30),
         "n": 30, "m": 30},
    )
    assert summaries == [
        "normalize-bridge: builder 'tiled'; 2 generator(s) analyzed",
        "tiling-resolution: resolved 2 generator(s); index classes"
        " [0, 1, 2], tile size 10",
        "strategy-selection: rule group-by-join (strategy"
        " gbj-replicate) [rewrote plan]",
        "cse: disabled (enable with PlannerOptions(cse=True))",
    ]
    assert final == (
        "Assemble(GroupByJoin[summa]"
        "(Replicate[rows](Scan[i,k]), Replicate[cols](Scan[kk,j])))"
    )


def test_transpose_trace(session):
    """Section 5.1 transpose -> preserve-tiling over one scan."""
    summaries, final = trace_of(
        session,
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- M ]",
        {"M": _mat(session, 30, 20), "n": 30, "m": 20},
    )
    assert summaries == [
        "normalize-bridge: builder 'tiled'; 1 generator(s) analyzed",
        "tiling-resolution: resolved 1 generator(s); index classes [0, 1],"
        " tile size 10",
        "strategy-selection: rule preserve-tiling; kernel 74ea951f8d96ae7b"
        " (mode tiles) [rewrote plan]",
        "cse: disabled (enable with PlannerOptions(cse=True))",
    ]
    assert final == "Assemble[tiled](FusedKernel[fused kernel](Scan[i,j]))"


def test_smoothing_trace(session):
    """Section 3 smoothing: range generators -> local interpreter fallback."""
    summaries, final = trace_of(
        session,
        "tiled(n,m)[ ((ii,jj),(+/a) / count/a) | ((i,j),a) <- M,"
        " ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),"
        " ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]",
        {"M": _mat(session, 9, 8), "n": 9, "m": 8},
    )
    assert summaries == [
        "normalize-bridge: builder 'tiled'; 1 generator(s) analyzed",
        "tiling-resolution: generators did not resolve to tiled storages",
        "strategy-selection: no distributed rule applies -> local fallback",
        "cse: skipped (local plan)",
    ]
    assert final == ""


def test_factorization_step_trace(session):
    """Figure 4(c): the factorization step's X @ Y^T group-by multiply."""
    summaries, final = trace_of(
        session,
        "tiled(n, m)[ ((i,j), +/v) | ((i,k),x) <- P, ((j,kk),y) <- Q,"
        " kk == k, let v = x*y, group by (i,j) ]",
        {"P": _mat(session, 30, 20), "Q": _mat(session, 30, 20),
         "n": 30, "m": 30},
    )
    assert summaries == [
        "normalize-bridge: builder 'tiled'; 2 generator(s) analyzed",
        "tiling-resolution: resolved 2 generator(s); index classes"
        " [0, 1, 2], tile size 10",
        "strategy-selection: rule group-by-join (strategy"
        " gbj-replicate) [rewrote plan]",
        "cse: disabled (enable with PlannerOptions(cse=True))",
    ]
    assert final == (
        "Assemble(GroupByJoin[summa]"
        "(Replicate[rows](Scan[i,k]), Replicate[cols](Scan[j,kk])))"
    )


def test_trace_appears_in_explain(session):
    """``explain()`` lists the pass trace between candidates and pseudocode."""
    report = session.explain(
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- M ]",
        {"M": _mat(session, 30, 20), "n": 30, "m": 20},
    )
    assert "passes:" in report
    for name in PASS_NAMES:
        assert name in report


# ----------------------------------------------------------------------
# Strategy-selection goldens: the seven query shapes, default options
# ----------------------------------------------------------------------


#: (shape, query, expected strategy-selection note).  Single-generator
#: 5.1 queries run their kernel over the raw tiles ("tiles"),
#: multi-generator ones after the tile join ("joined"); guards ride in
#: the same kernel; the group-by / shuffle / local shapes name their rule.
SELECTION_SHAPES = [
    ("add", (
        "tiled(n,m)[ ((i,j),a+b) | ((i,j),a) <- M, ((ii,jj),b) <- N2,"
        " ii == i, jj == j ]"
    ), "rule preserve-tiling; kernel 4c67ee27291e082c (mode joined)"),
    ("scale", "tiled(n,m)[ ((i,j),2.0*v) | ((i,j),v) <- M ]",
     "rule preserve-tiling; kernel cbe507dcaeba7663 (mode tiles)"),
    ("transpose", "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- M ]",
     "rule preserve-tiling; kernel 74ea951f8d96ae7b (mode tiles)"),
    ("guarded", "tiled(n,m)[ ((i,j),v*v) | ((i,j),v) <- M, i != j ]",
     "rule preserve-tiling; kernel 9b7e20ca5575904a (mode tiles)"),
    ("multiply", (
        "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- M, ((kk,j),b) <- C,"
        " kk == k, let v = a*b, group by (i,j) ]"
    ), "rule group-by-join (strategy gbj-replicate)"),
    ("shift", "tiled(n,m)[ ((i+1,j),v) | ((i,j),v) <- M, i+1 < n ]",
     "rule tiled-shuffle"),
    ("smoothing", (
        "tiled(n,m)[ ((ii,jj),(+/a) / count/a) | ((i,j),a) <- M,"
        " ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),"
        " ii >= 0, ii < n, jj >= 0, jj < m, group by (ii,jj) ]"
    ), "no distributed rule applies -> local fallback"),
]


@pytest.mark.parametrize(
    "shape,query,note", SELECTION_SHAPES, ids=[s[0] for s in SELECTION_SHAPES]
)
def test_fusion_note_per_shape(session, shape, query, note):
    """The strategy-selection note is pinned for every query shape: a
    5.1 query names its kernel's fingerprint and mode."""
    env = {"M": _mat(session, 30, 20), "N2": _mat(session, 30, 20),
           "C": _mat(session, 20, 30), "n": 30, "m": 20}
    summaries, _final = trace_of(session, query, env)
    (selection,) = [
        s for s in summaries if s.startswith("strategy-selection:")
    ]
    assert selection.removesuffix(" [rewrote plan]") == (
        f"strategy-selection: {note}"
    )
