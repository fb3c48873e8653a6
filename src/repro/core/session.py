"""``SacSession``: the front door of the library.

A session ties together the engine (simulated cluster), the tile size,
and planner options, and runs DSL queries end to end::

    from repro import SacSession
    session = SacSession(tile_size=100)
    A = session.tiled(numpy_array)
    B = session.tiled(other_array)
    C = session.run(
        "tiled(n, m)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, "
        "kk == k, let v = a*b, group by (i,j) ]",
        A=A, B=B, n=n, m=m)

Pipeline per query: parse → desugar (indexing, group-by forms) →
normalize (unnesting, guard pushdown, range fusion) → plan (rule
dispatch) → execute.  ``explain`` returns the compilation report without
running anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..comprehension import (
    Expr, FreshNames, Interpreter, desugar, normalize, parse,
)
from ..engine import PAPER_CLUSTER, ClusterSpec, EngineContext, RDD
from ..engine.context import reject_dropped
from ..planner import Plan, PlannerOptions, plan_state
from ..planner.ir import partitioner_signature
from ..planner.lower import lower
from ..planner.codegen import explain as explain_plan
from ..storage import TiledMatrix, TiledVector
from ..storage.registry import REGISTRY, BuildContext


@dataclass
class CompiledQuery:
    """A query carried through the full pipeline, ready to execute."""

    source: str
    parsed: Expr
    normalized: Expr
    plan: Plan

    def execute(self) -> Any:
        return self.plan.execute()

    def explain(self) -> str:
        return explain_plan(self.plan, self.parsed, self.normalized)


def _front_half(parsed: Expr, env: dict[str, Any]) -> Expr:
    """Desugar and normalize a parsed query against its bindings."""
    fresh = FreshNames()

    def is_array(name: str) -> bool:
        value = env.get(name)
        return value is not None and (
            REGISTRY.is_storage(value) or isinstance(value, RDD)
        )

    return normalize(desugar(parsed, is_array=is_array, fresh=fresh), fresh=fresh)


class SacSession:
    """Compiles and runs SAC array comprehensions.

    Args:
        engine: engine context to run distributed plans on; created from
            ``cluster`` when omitted.
        cluster: simulated cluster spec for a fresh engine.
        tile_size: side length N of square tiles for block arrays.
        options: planner rule switches (ablations).
        runner: task execution strategy for a fresh engine — a
            ``TaskRunner``, ``"serial"`` (every job's task graph walked
            one task at a time), or ``"threads"`` (tasks fire on a pool
            as soon as the partitions they read have landed); ``None``
            consults the ``REPRO_RUNNER`` environment variable.  Metrics
            counters are identical under both.
        memory_limit: out-of-core memory cap for a fresh engine — caps
            resident block bytes, and evicted partitions *spill to disk*
            and restore transparently instead of being dropped for
            recompute.  Accepts a byte count or a ``"64M"``-style
            string; ``None`` (default) leaves the tier off
            (byte-identical to the limit-free engine).
        tenant: tenant label for multi-tenant substrates.  ``None``
            (default) inherits the engine view's tenant (empty for a
            private engine).  A labeled session's queries are gated by
            the substrate's admission control and counted in per-tenant
            metrics, and its cached blocks are charged to its quota.
        quota: resident-block byte cap for this session's tenant
            (``"64M"``-style strings accepted); only meaningful with a
            named tenant on a budgeted substrate.

    ``cluster``, ``runner`` and ``memory_limit`` configure a fresh
    engine; passing any of them beside ``engine`` raises ``TypeError``.
    """

    def __init__(
        self,
        engine: Optional[EngineContext] = None,
        cluster: ClusterSpec = PAPER_CLUSTER,
        tile_size: int = 100,
        options: Optional[PlannerOptions] = None,
        runner: Any = None,
        memory_limit: Optional[int | str] = None,
        tenant: Optional[str] = None,
        quota: Optional[int | str] = None,
    ):
        if engine is None:
            engine = EngineContext(
                cluster=cluster, runner=runner, memory_limit=memory_limit,
                tenant=tenant or "", quota=quota,
            )
        else:
            reject_dropped(
                "SacSession(engine=...)", cluster=(cluster, PAPER_CLUSTER),
                runner=(runner, None), memory_limit=(memory_limit, None),
            )
            if tenant is not None or quota is not None:
                # Per-session overrides become a fresh view over the same
                # substrate — never an in-place mutation of the caller's
                # engine, which other sessions may share.  A quota alone
                # re-scopes the engine's own tenant.
                engine = engine.substrate.view(
                    engine.tenant if tenant is None else tenant, quota=quota
                )
        self.engine = engine
        self.tenant = getattr(engine, "tenant", "") or ""
        self.tile_size = tile_size
        self.options = options or PlannerOptions()
        self.build_context = BuildContext(engine=self.engine, tile_size=tile_size)
        # Iterative algorithms re-submit identical query text every step;
        # parsing is pure, so cache the ASTs, and the (parsed,
        # normalized) pair is cached per storage signature of the
        # bindings.  The caches live on the substrate (PlanCacheGroup),
        # so sessions sharing an engine share hits; every key carries
        # this session's build profile (see _plan_cache_key), so
        # differently-shaped sessions can never serve each other stale
        # entries.
        caches = self.engine.substrate.plan_caches
        self._parse_cache = caches.parse
        self._plan_cache = caches.plan
        # Pass-pipeline reuse: the finished PlanState and, under CSE,
        # the Plan lowered from it — keyed by the front-half key *plus*
        # binding identities (see _pass_cache_key).
        self._pass_cache = caches.passes

    def _parse_cached(self, query: str) -> Expr:
        cached = self._parse_cache.get(query)
        if cached is None:
            cached = parse(query)
            self._parse_cache.put(query, cached)
        return cached

    # ------------------------------------------------------------------

    def _binding_signature(self, value: Any) -> Any:
        """Hashable description of one binding for the plan-cache key.

        Captures everything the parse→normalize front half *and* the
        rule dispatch depend on: whether the name is an array, its
        storage class, tile shape, and how its tiles are partitioned.
        Tile *contents* are deliberately excluded — plans are re-derived
        against the live environment on every compile, cached or not.
        """
        if isinstance(value, RDD):
            return ("rdd", value.num_partitions,
                    partitioner_signature(value.partitioner))
        if not REGISTRY.is_storage(value):
            return ("scalar", type(value).__name__)
        sig: tuple = (type(value).__name__,)
        tiles = getattr(value, "tiles", None) or getattr(value, "blocks", None)
        if isinstance(tiles, RDD):
            sig += (tiles.num_partitions,
                    partitioner_signature(tiles.partitioner))
        for attr in ("rows", "cols", "length", "tile_size"):
            dim = getattr(value, attr, None)
            if isinstance(dim, int):
                sig += (attr, dim)
        return sig

    def _plan_cache_key(
        self, query: str, full_env: dict[str, Any]
    ) -> Optional[tuple]:
        """Cache key for the parse→normalize front half and plan reuse.

        Besides the query text and binding signatures, the key carries
        everything else a compile's outcome depends on: the planner
        option switches (strategy pin, CSE) and the session's build
        profile (its tile size) — so toggling any of those
        between compiles, or another same-substrate session with a
        different shape, can never serve a stale cached result.
        """
        try:
            bindings = tuple(
                sorted(
                    (name, self._binding_signature(value))
                    for name, value in full_env.items()
                )
            )
            return (
                query,
                bindings,
                self.options.cache_signature(),
                self.tile_size,
            )
        except TypeError:  # unsortable/unhashable binding: skip the cache
            return None

    def _pass_cache_key(
        self, key: tuple, full_env: dict[str, Any]
    ) -> Optional[tuple]:
        """Identity-level key for reusing a pass-pipeline result.

        The front-half key matches by *shape* (binding signatures
        exclude tile contents), but a finished PlanState closes over
        the live storage objects and scalar values, so reuse demands
        more: the same array objects — compared by ``id()``, which is
        stable here because the cached state keeps the storages alive —
        and equal scalar bindings (typed, so ``1``/``1.0``/``True``
        never alias).  Anything unhashable skips the cache.
        """
        try:
            entries = tuple(sorted(
                (name, ("id", id(value)))
                if REGISTRY.is_storage(value) or isinstance(value, RDD)
                else (name, ("val", type(value).__name__, value))
                for name, value in full_env.items()
            ))
            hash(entries)
        except TypeError:  # unsortable/unhashable binding: skip
            return None
        return (key, entries)

    def compile(
        self,
        query: str,
        env: Optional[dict[str, Any]] = None,
        *,
        cache: bool = True,
        **bindings: Any,
    ) -> CompiledQuery:
        """Run the query through parse → desugar → normalize → plan.

        The parse→normalize front half is cached per (query text,
        binding storage signatures), and the pass-pipeline back half is
        additionally reused when the bindings are the *same objects*
        (see :meth:`_pass_cache_key`); pass ``cache=False`` to bypass
        both.  Without CSE, lowering re-runs on every compile, so each
        one hands back a fresh plan over fresh RDD lineages — a cache
        hit produces a byte-identical execution, just without
        re-deriving the tree.  With CSE, a plan that lowered to a reuse
        fingerprint is kept beside its pass result and handed back
        whole, so repeated steps of an iterative workload (and other
        tenants over the same hosted datasets) share its lowered
        lineages and the shuffle outputs retained under them.
        """
        full_env = {**(env or {}), **bindings}
        key = self._plan_cache_key(query, full_env) if cache else None
        cached = self._plan_cache.get(key) if key is not None else None
        if key is not None and self.tenant:
            self.engine.metrics.record_tenant_plan_cache(
                self.tenant, hit=cached is not None
            )
        if cached is not None:
            parsed, normalized = cached
        else:
            parsed = self._parse_cached(query)
            normalized = _front_half(parsed, full_env)
            if key is not None:
                self._plan_cache.put(key, (parsed, normalized))
        # Back half: reuse the pass-pipeline result when the bindings
        # are identical objects (not merely same-shaped).  The pass key
        # determines the PlanState and so the plan's fingerprint, so a
        # stored plan is the one lowering the state again would equal.
        pass_key = self._pass_cache_key(key, full_env) if key is not None else None
        entry = self._pass_cache.get(pass_key) if pass_key is not None else None
        if entry is None:
            state = plan_state(
                normalized, full_env, self.engine, self.build_context,
                self.options,
            )
            plan = lower(state)
            if pass_key is not None:
                self._pass_cache.put(
                    pass_key, (state, plan if plan.fingerprint else None)
                )
        else:
            state, plan = entry
            if plan is None:
                plan = lower(state)
        return CompiledQuery(query, parsed, normalized, plan)

    def compile_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction counters for the three plan-cache tiers."""
        return self.engine.substrate.plan_caches.stats()

    def run(self, query: str, env: Optional[dict[str, Any]] = None, **bindings: Any) -> Any:
        """Compile and execute a query.

        Execution passes through the substrate's admission gate (a
        no-op unless the substrate bounds concurrent jobs); a labeled
        tenant's query count and latency land in per-tenant metrics.
        """
        start = time.perf_counter()
        try:
            compiled = self.compile(query, env, **bindings)
            with self.engine.substrate.admission.admit(self.tenant):
                if self.tenant:
                    # Attribute driver-thread engine events (reused
                    # shuffles over shared datasets, chiefly) to this
                    # tenant while its query runs.
                    with self.engine.metrics.tenant_scope(self.tenant):
                        result = compiled.execute()
                else:
                    result = compiled.execute()
        except Exception:
            if self.tenant:
                self.engine.metrics.record_tenant_query(
                    self.tenant, time.perf_counter() - start, error=True
                )
            raise
        if self.tenant:
            self.engine.metrics.record_tenant_query(
                self.tenant, time.perf_counter() - start
            )
        return result

    def explain(self, query: str, env: Optional[dict[str, Any]] = None, **bindings: Any) -> str:
        """The compilation report: normalized form, rule, generated program."""
        return self.compile(query, env, **bindings).explain()

    def interpret(self, query: str, env: Optional[dict[str, Any]] = None, **bindings: Any) -> Any:
        """Evaluate with the reference interpreter, bypassing the planner.

        Used by differential tests; also handy for queries the planner
        rejects (it is always correct, just not distributed).
        """
        full_env = {**(env or {}), **bindings}
        expr = _front_half(parse(query), full_env)
        return Interpreter(full_env, build_context=self.build_context).evaluate(expr)

    # ------------------------------------------------------------------
    # Storage constructors
    # ------------------------------------------------------------------

    def tiled(
        self, array: np.ndarray, num_partitions: Optional[int] = None
    ) -> TiledMatrix:
        """Distribute a local 2-D array as a tiled matrix."""
        return TiledMatrix.from_numpy(
            self.engine, array, self.tile_size, num_partitions
        )

    def tiled_vector(
        self, array: np.ndarray, num_partitions: Optional[int] = None
    ) -> TiledVector:
        """Distribute a local 1-D array as a block vector."""
        return TiledVector.from_numpy(
            self.engine, array, self.tile_size, num_partitions
        )

    def sparse_tiled(self, array: np.ndarray, num_partitions: Optional[int] = None):
        """Distribute a local 2-D array as a CSC-tiled sparse matrix.

        All-zero tiles are dropped; within-tile storage is compressed
        sparse column (the paper's Section 8 extension).
        """
        from ..storage.sparse_tiled import SparseTiledMatrix

        return SparseTiledMatrix.from_numpy(
            self.engine, array, self.tile_size, num_partitions
        )

    def rdd(self, items, num_partitions: Optional[int] = None) -> RDD:
        """Distribute a local collection as an engine RDD."""
        return self.engine.parallelize(items, num_partitions)

    def matrix(self, array: np.ndarray):
        """Distribute a local 2-D array as an operator-friendly handle."""
        from .array import SacMatrix

        return SacMatrix(self, self.tiled(array))

    def vector(self, array: np.ndarray):
        """Distribute a local 1-D array as an operator-friendly handle."""
        from .array import SacVector

        return SacVector(self, self.tiled_vector(array))

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the engine's executor pool."""
        self.engine.close()

    def __enter__(self) -> "SacSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def metrics_snapshot(self):
        return self.engine.metrics.snapshot()

    def metrics_delta(self, snapshot):
        return self.engine.metrics.delta_since(snapshot)

    def simulated_time(self) -> float:
        return self.engine.simulated_time()
