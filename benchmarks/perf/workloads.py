"""The five workloads: inputs, set-up, one op, and a NumPy oracle each.

Every input comes from ``numpy.random.default_rng(seed)``; the program
under test only ever sees the generated arrays.  Sessions are built with
exactly the arguments listed here — everything else is the program's
default — so a feature promoted to default later shows up as a gain.

Why each workload exists is recorded in ``metrics.WHY`` (and in
BENCHMARK.json and the README).
"""

from __future__ import annotations

import hashlib
import time
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro import CooMatrix, SacSession

MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)
SMOOTH = "tiled(n,m)[ ((i,j),0.5*v+0.1*v*v) | ((i,j),v) <- X ]"
SPMV = (
    "tiled_vector(n)[ (i,+/v) | ((i,j),a) <- A, (jj,x) <- X,"
    " jj == j, let v = a*x, group by i ]"
)

def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def run_op(session, query, env, steps=1, feedback=None, garbage=None):
    """One op as a user writes it: ``run`` per step, then ``to_numpy``.

    With ``feedback`` set, each step's materialized result is re-bound
    under that name for the next step (E14's iterative chain).
    """
    env = dict(env)
    result = None
    for _ in range(steps):
        result = session.run(query, **env)
        if feedback:
            env[feedback] = result.materialize()
            garbage.append(result)
    return result.to_numpy()


def run_op_traced(session, query, env, span, steps=1, feedback=None, garbage=None):
    """The same op, cut at the layer boundaries.

    ``materialize`` forces the job so that ``to_numpy`` afterwards is
    assembly only; that extra caching is part of the tracing overhead
    the traced run reports.
    """
    env = dict(env)
    result = None
    for _ in range(steps):
        with span("core.compile"):
            compiled = session.compile(query, **env)
        with span("core.execute"):
            result = compiled.execute()
        with span("engine.job"):
            result.materialize()
        garbage.append(result)
        if feedback:
            env[feedback] = result
    with span("storage.to_numpy"):
        return result.to_numpy()


def unpersist_all(garbage: list) -> None:
    """Drop what the ops cached (untimed).

    Without it resident memory grows with every op, and peak RSS would
    measure how many ops fit in the slice, not the program.
    """
    for storage in garbage:
        rdd = getattr(storage, "tiles", None)
        if rdd is None:
            rdd = storage.blocks
        rdd.unpersist()
    garbage.clear()


class LibraryWorkload:
    """One in-process workload: a query (chain), its inputs, its oracle."""

    name: str
    query: str
    steps = 1
    feedback: str | None = None
    tile: int
    rtol: float
    #: Matrix-multiply tile GEMMs per op (0: no GEMM in this workload).
    tile_gemms = 0
    #: Single-threaded workloads are pinned, before each op, to the CPU a
    #: neighbour disturbs least (see ``worker.settle_on_quiet_cpu``); the
    #: multiplies keep both CPUs for their BLAS threads.
    pin = False
    session_args: dict

    def make_inputs(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def bind(self, session: SacSession, inputs: dict, timings: dict) -> dict:
        """Distribute the inputs; returns the query's bindings."""
        raise NotImplementedError

    def expected(self, inputs: dict) -> np.ndarray:
        raise NotImplementedError

    def flops(self, inputs: dict) -> float:
        raise NotImplementedError

    def setup(self, inputs: dict) -> SimpleNamespace:
        """Everything a user does before the first op (timed as set-up)."""
        timings: dict[str, float] = {}
        session = SacSession(**self.session_args)
        env = self.bind(session, inputs, timings)
        return SimpleNamespace(
            session=session, env=env, timings=timings, garbage=[]
        )

    def op(self, st: SimpleNamespace) -> np.ndarray:
        return run_op(
            st.session, self.query, st.env, self.steps, self.feedback,
            st.garbage,
        )

    def op_traced(self, st: SimpleNamespace, span: Callable) -> np.ndarray:
        return run_op_traced(
            st.session, self.query, st.env, span, self.steps, self.feedback,
            st.garbage,
        )


class Multiply(LibraryWorkload):
    query = MULTIPLY
    rtol = 1e-9

    def __init__(self, name: str, n: int, tile: int, **session_args: Any):
        self.name = name
        self.n = n
        self.tile = tile
        self.session_args = {"tile_size": tile, **session_args}
        self.tile_gemms = (n // tile) ** 3

    def make_inputs(self, rng):
        return {"A": rng.random((self.n, self.n)), "B": rng.random((self.n, self.n))}

    def bind(self, session, inputs, timings):
        a, timings["distribute_s"] = timed(
            lambda: session.tiled(inputs["A"]).materialize()
        )
        b = session.tiled(inputs["B"]).materialize()
        return {"A": a, "B": b, "n": self.n, "m": self.n}

    def expected(self, inputs):
        return inputs["A"] @ inputs["B"]

    def flops(self, inputs):
        return 2.0 * self.n ** 3


class Smooth(LibraryWorkload):
    name = "smooth_small_tiles"
    pin = True
    query = SMOOTH
    steps = 4
    feedback = "X"
    rtol = 1e-12
    n = 480
    tile = 4
    session_args = {"tile_size": 4}

    def make_inputs(self, rng):
        return {"X": rng.random((self.n, self.n))}

    def bind(self, session, inputs, timings):
        x, timings["distribute_s"] = timed(
            lambda: session.tiled(inputs["X"]).materialize()
        )
        return {"X": x, "n": self.n, "m": self.n}

    def expected(self, inputs):
        x = inputs["X"]
        for _ in range(self.steps):
            x = 0.5 * x + 0.1 * x * x
        return x

    def flops(self, inputs):
        return 4.0 * self.steps * self.n * self.n


class SpMV(LibraryWorkload):
    name = "spmv_coordinate"
    pin = True
    query = SPMV
    rtol = 1e-9
    n = 2000
    density = 0.01
    tile = 100
    session_args = {"tile_size": 100}

    def make_inputs(self, rng):
        n = self.n
        mask = rng.random((n, n)) < self.density
        return {"A": rng.random((n, n)) * mask, "X": rng.random(n)}

    def bind(self, session, inputs, timings):
        a, timings["coo_build_s"] = timed(
            lambda: CooMatrix.from_numpy(inputs["A"])
        )
        x, timings["distribute_s"] = timed(
            lambda: session.tiled_vector(inputs["X"]).materialize()
        )
        return {"A": a, "X": x, "n": self.n}

    def expected(self, inputs):
        return inputs["A"] @ inputs["X"]

    def flops(self, inputs):
        return 2.0 * np.count_nonzero(inputs["A"])


LIBRARY = {
    w.name: w for w in (
        Multiply("multiply_dense", n=2000, tile=200),
        Smooth(),
        Multiply("multiply_spill", n=1000, tile=100, memory_limit="16M"),
        SpMV(),
    )
}

# ----------------------------------------------------------------------
# serve_mixed: the request mix
# ----------------------------------------------------------------------

SERVE_N = 200
SERVE_TILE = 50
COLD_SHARE = 0.2

#: (query template, scalar env, NumPy oracle).  ``{s}`` is the
#: alpha-renaming suffix: empty for the three warm texts, never seen
#: before for a cold request, so every front-end stage runs again.
TEMPLATES = (
    (
        "tiled(n,m)[ ((i{s},j{s}),+/v{s}) | ((i{s},k{s}),a{s}) <- A,"
        " ((kk{s},j{s}),b{s}) <- B, kk{s} == k{s}, let v{s} = a{s}*b{s},"
        " group by (i{s},j{s}) ]",
        {"n": SERVE_N, "m": SERVE_N},
        lambda a, b: a @ b,
    ),
    (
        "tiled(n, m)[ ((i{s},j{s}), a{s} + gamma * b{s})"
        " | ((i{s},j{s}),a{s}) <- A, ((ii{s},jj{s}),b{s}) <- B,"
        " ii{s} == i{s}, jj{s} == j{s} ]",
        {"n": SERVE_N, "m": SERVE_N, "gamma": 0.5},
        lambda a, b: a + 0.5 * b,
    ),
    (
        "tiled_vector(n)[ (i{s}, +/a{s}) | ((i{s},j{s}),a{s}) <- A,"
        " group by i{s} ]",
        {"n": SERVE_N},
        lambda a, b: a.sum(axis=1),
    ),
)


def serve_inputs(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Integer-valued float64 matrices: every sum is exact in any order,
    so response digests can be compared bit for bit."""
    shape = (SERVE_N, SERVE_N)
    return {
        "A": rng.integers(0, 10, size=shape).astype(np.float64),
        "B": rng.integers(0, 10, size=shape).astype(np.float64),
    }


def array_digest(array: np.ndarray) -> str:
    """sha256 over (dtype, shape, C-order bytes), recomputed here so the
    oracle shares no code with ``repro.serve.render_result``."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def request_stream(seed: int, client: int):
    """Endless seeded ``(template index, cold?, query text, env)``.

    A cold text carries the client and sequence number, so one server
    instance never sees it twice.
    """
    rng = np.random.default_rng([seed, client])
    for seq in range(1 << 62):
        index = int(rng.integers(len(TEMPLATES)))
        cold = bool(rng.random() < COLD_SHARE)
        text, env, _ = TEMPLATES[index]
        suffix = f"_{client}_{seq}" if cold else ""
        yield index, cold, text.format(s=suffix), env
