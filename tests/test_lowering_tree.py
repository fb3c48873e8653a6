"""The physical tree is what runs: lowering goes node by node.

Each test rewrites a pass-pipeline result's tree by hand — no root
attribute touched — lowers it, and sees the program follow the tree;
the guard pins the operator → lowerer registry the composition rests on.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import repro
from repro import SacSession
from repro.comprehension.errors import SacPlanError
from repro.engine import TINY_CLUSTER
from repro.planner import PlannerOptions, ir, plan_state
from repro.planner import lower as lower_module
from repro.planner.lower import lower, lower_node

SRC = pathlib.Path(repro.__file__).parent
RNG = np.random.default_rng(22)

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B,"
    " kk == k, let v = x*y, group by (i,j) ]"
)


def _state(session, query, env):
    """The pass-pipeline result ``session.compile`` would lower."""
    normalized = session.compile(query, cache=False, **env).normalized
    return plan_state(
        normalized, env, session.engine, session.build_context, session.options
    )


def test_a_spliced_fused_kernel_node_runs_without_any_root_attribute():
    session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    a, b = RNG.uniform(size=(30, 20)), RNG.uniform(size=(30, 20))
    query = (
        "tiled(n,m)[ ((i,j),x+c*y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
        " ii == i, jj == j ]"
    )
    env = dict(A=session.tiled(a), B=session.tiled(b), n=30, m=20, c=0.22731)
    state = _state(session, query, env)
    root = state.physical
    (kernel,) = root.children
    assert kernel.op == ir.OP_FUSED_KERNEL
    annotations = dict(root.attrs)
    # The same query closed over another constant: another kernel text.
    other = _state(session, query, dict(env, c=0.51093)).physical.children[0]
    assert other.kernel.fingerprint != kernel.kernel.fingerprint

    root.children = (other,)
    root._render_memo = None
    plan = lower(state)

    assert root.attrs == annotations
    assert [entry["fingerprint"] for entry in plan.fused_kernels()] == [
        other.kernel.fingerprint
    ]
    np.testing.assert_array_equal(plan.execute().to_numpy(), a + 0.51093 * b)


def test_a_swapped_scan_changes_what_the_join_reads():
    session = SacSession(
        cluster=TINY_CLUSTER, tile_size=10,
        options=PlannerOptions(strategy="gbj-replicate"),
    )
    a, other, b = (RNG.uniform(size=(30, 20)) for _ in range(3))
    b = b.T.copy()
    env = dict(A=session.tiled(a), B=session.tiled(b), n=30, m=30)
    state = _state(session, MULTIPLY, env)
    join = state.physical.children[0]
    assert (join.op, join.label) == (ir.OP_GROUP_BY_JOIN, "summa")

    left_band = join.children[0]
    gen = dataclasses.replace(
        state.setup.gens[0], storage=session.tiled(other)
    )
    left_band.children = (ir.scan_gen_node(gen),)
    result = lower(state).execute().to_numpy()
    np.testing.assert_allclose(result, other @ b)


def test_every_physical_operator_has_exactly_one_lowerer():
    node_ops = [
        cls.__dataclass_fields__["op"].default
        for cls in ir.IRNode.__subclasses__()
    ]
    assert len(set(node_ops)) == len(node_ops)
    assert set(node_ops) == set(lower_module._LOWERER_FOR)
    # A dict display keeps the last of two equal keys silently.
    (registry,) = [
        stmt.value
        for stmt in ast.parse((SRC / "planner" / "lower.py").read_text()).body
        if isinstance(stmt, ast.AnnAssign) and stmt.target.id == "_LOWERER_FOR"
    ]
    keys = [key.id for key in registry.keys]
    assert len(set(keys)) == len(keys) == len(node_ops)


def test_unknown_operator_is_a_plan_error_naming_it():
    session = SacSession(cluster=TINY_CLUSTER, tile_size=10)
    env = dict(A=session.tiled(np.ones((10, 10))), n=10, m=10)
    state = _state(session, "tiled(n,m)[ ((i,j),x) | ((i,j),x) <- A ]", env)
    with pytest.raises(SacPlanError, match="'Mystery'"):
        lower_node(ir.IRNode(op="Mystery"), state)


def test_no_payload_attribute_key_left_in_src():
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if '"payload"' in path.read_text() or "'payload'" in path.read_text()
    ]
    assert offenders == []
