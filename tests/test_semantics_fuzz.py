"""Fuzz: random well-scoped comprehensions, two evaluators, one answer.

Hypothesis generates small closed comprehensions over random association
lists and checks that the reference interpreter and the planner's local
plan (Sections 2–3) agree.  The local
plan reads each list rebound as a 1-D int ``ndarray``, so a query with
an array form runs as the coordinate program's column batches.
"""

import numpy as np
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from repro.comprehension import (
    BinOp, Comprehension, Generator, Guard, Interpreter, LetQual, Lit,
    Reduce, TupleExpr, TuplePat, Var, VarPat, to_source, parse,
)
from repro.planner import RULE_LOCAL_BATCH
from repro.planner.lower import lower_local
from repro.storage.registry import BuildContext

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CMP = ["==", "!=", "<", "<=", ">", ">="]
_ARITH = ["+", "-", "*"]


@st.composite
def closed_queries(draw):
    """A comprehension over 1–2 list-valued env names, fully scoped."""
    env: dict = {}
    bound: list[str] = []
    qualifiers = []

    num_gens = draw(st.integers(1, 2))
    for g in range(num_gens):
        source_name = f"SRC{g}"
        length = draw(st.integers(0, 5))
        env[source_name] = [
            (i, draw(st.integers(-9, 9))) for i in range(length)
        ]
        idx, val = f"i{g}", f"v{g}"
        qualifiers.append(
            Generator(TuplePat((VarPat(idx), VarPat(val))), Var(source_name))
        )
        bound += [idx, val]

        if draw(st.booleans()):
            left = Var(draw(st.sampled_from(bound)))
            right_choice = draw(st.integers(0, 1))
            right = (
                Lit(draw(st.integers(-9, 9)))
                if right_choice == 0
                else Var(draw(st.sampled_from(bound)))
            )
            qualifiers.append(Guard(BinOp(draw(st.sampled_from(_CMP)), left, right)))

        if draw(st.booleans()):
            name = f"w{g}"
            expr = BinOp(
                draw(st.sampled_from(_ARITH)),
                Var(draw(st.sampled_from(bound))),
                Lit(draw(st.integers(-3, 3))),
            )
            qualifiers.append(LetQual(VarPat(name), expr))
            bound.append(name)

    head = BinOp(
        draw(st.sampled_from(_ARITH)),
        Var(draw(st.sampled_from(bound))),
        Var(draw(st.sampled_from(bound))),
    )
    return Comprehension(head, tuple(qualifiers)), env


def local_plan(comp, env):
    """The planner's local plan with every list rebound as an array."""
    arrays = {
        name: np.array([value for _, value in pairs], dtype=np.int64)
        for name, pairs in env.items()
    }
    return lower_local(comp, arrays, BuildContext())


@SETTINGS
@given(data=closed_queries())
def test_local_plan_agrees_with_interpreter(data):
    comp, env = data
    reference = Interpreter(env).evaluate(comp)
    assert local_plan(comp, env).execute() == reference, to_source(comp)


def test_fuzzed_queries_run_as_column_batches():
    """The draws reach the batch rule, not only the interpreter."""
    find(
        closed_queries(),
        lambda data: local_plan(*data).rule == RULE_LOCAL_BATCH,
        settings=settings(database=None),
    )


@SETTINGS
@given(data=closed_queries())
def test_query_survives_source_round_trip(data):
    comp, env = data
    reference = Interpreter(env).evaluate(comp)
    reparsed = parse(to_source(comp))
    assert Interpreter(env).evaluate(reparsed) == reference


@SETTINGS
@given(data=closed_queries(), mon=st.sampled_from(["+", "*", "min", "max"]))
def test_reduction_of_fuzzed_query(data, mon):
    comp, env = data
    values = Interpreter(env).evaluate(comp)
    if mon == "*" and len(values) > 8:
        return  # avoid giant products
    reduced = Interpreter(env).evaluate(Reduce(mon, comp))
    from repro.comprehension.monoids import monoid

    assert reduced == monoid(mon).fold(values)
