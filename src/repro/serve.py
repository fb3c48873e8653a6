"""``repro serve``: the multi-tenant query front door.

One :class:`~repro.engine.substrate.EngineSubstrate` under many
sessions: a :class:`QueryService` hosts shared datasets through a loader
session and lazily attaches one tenant-labeled
:class:`~repro.core.session.SacSession` view per client, so concurrent
clients share the runner pool, the block store, the plan caches, and
(with CSE on, the serve default) retained shuffle outputs — while
admission control keeps one heavy tenant from starving the pool and
per-tenant quotas bound each tenant's resident bytes.

:class:`ServeServer` exposes the service over a minimal asyncio HTTP/1.1
JSON endpoint (stdlib only)::

    POST /query    {"tenant": "alice", "query": "...", "env": {"n": 8}}
    GET  /metrics  per-tenant counters, plan-cache stats, admission stats
    GET  /health

and :func:`replay` drives N concurrent clients through any submit
callable (in-process or HTTP) — the harness behind the cross-tenant
differential tests, the E15 benchmark, and the CI smoke job.

A deployment's bounds are :class:`QueryService` arguments and ``repro
serve`` flags: ``max_concurrent`` / ``--max-concurrent`` (concurrently
running jobs; default unbounded), ``quota`` / ``--quota`` (per-tenant
resident bytes, ``"64M"`` style; default none) and ``memory_limit`` /
``--memory-limit`` (substrate cap with spill-to-disk).

Served queries compile with common-subplan elimination (pass
``options=`` to :class:`QueryService` to change that), so equal
shuffles are answered from retained outputs across tenants.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any, Callable, Optional

import numpy as np

from .comprehension.errors import SacError
from .core.session import SacSession
from .engine import PAPER_CLUSTER, ClusterSpec, EngineContext
from .engine.metrics import _percentile
from .engine.substrate import parse_memory_limit
from .planner import PlannerOptions


def render_result(result: Any, include_values: bool = False) -> dict:
    """A JSON-able description of one query result.

    Arrays are summarized as shape + a sha256 digest of their canonical
    bytes (dtype, shape, C-order data) — enough for byte-identity
    differential checks without shipping the matrix; scalars travel by
    value.  ``include_values`` additionally inlines small arrays.
    """
    to_numpy = getattr(result, "to_numpy", None)
    if to_numpy is not None:
        result = to_numpy()
    if isinstance(result, np.ndarray):
        array = np.ascontiguousarray(result)
        digest = hashlib.sha256()
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
        rendered = {
            "kind": "array",
            "shape": list(array.shape),
            "dtype": str(array.dtype),
            "digest": digest.hexdigest(),
        }
        if include_values and array.size <= 400:
            rendered["values"] = array.tolist()
        return rendered
    if isinstance(result, (bool, int, float, str)) or result is None:
        payload = repr(result).encode()
        return {
            "kind": "scalar",
            "value": result,
            "digest": hashlib.sha256(payload).hexdigest(),
        }
    payload = repr(result).encode()
    return {
        "kind": type(result).__name__,
        "repr": repr(result),
        "digest": hashlib.sha256(payload).hexdigest(),
    }


class QueryService:
    """Many tenant sessions over one shared substrate.

    The service owns the substrate (via a loader
    :class:`~repro.core.session.SacSession` whose view hosts the shared
    datasets) and creates one labeled session per tenant on first use.
    Tenant sessions share the loader's runner, so every lineage over the
    shared datasets executes under one uniform policy — per-tenant
    *data* is still isolated by tenant-labeled block namespaces and
    global RDD ids.  With ``options.cse`` on (the default
    here) the shuffles CSE marks for reuse stay in the shared block
    store, so equal shuffles from other tenants' queries over the hosted
    datasets are answered from it.
    """

    def __init__(
        self,
        cluster: ClusterSpec = PAPER_CLUSTER,
        tile_size: int = 100,
        runner: Any = None,
        options: Optional[PlannerOptions] = None,
        max_concurrent: Optional[int] = None,
        quota: Optional[int | str] = None,
        memory_limit: Optional[int | str] = None,
    ):
        if options is None:
            # Serve defaults CSE on: shared-substrate shuffle reuse
            # across tenants is the point of the front door.
            options = PlannerOptions(cse=True)
        self._quota = parse_memory_limit(quota)
        engine = EngineContext(
            cluster=cluster, runner=runner, memory_limit=memory_limit,
            max_concurrent_jobs=max_concurrent,
        )
        self.loader = SacSession(
            engine=engine, tile_size=tile_size, options=options
        )
        self.substrate = self.loader.engine.substrate
        self.datasets: dict[str, Any] = {}
        self._sessions: dict[str, SacSession] = {}
        self._lock = threading.Lock()

    # -- dataset hosting ------------------------------------------------

    def host(self, name: str, array: np.ndarray, sparse: bool = False) -> Any:
        """Load a local array as a shared dataset every tenant can query."""
        if array.ndim == 1:
            stored = self.loader.tiled_vector(array)
        elif sparse:
            stored = self.loader.sparse_tiled(array)
        else:
            stored = self.loader.tiled(array)
        self.datasets[name] = stored
        return stored

    # -- query execution ------------------------------------------------

    def session(self, tenant: str) -> SacSession:
        """The (lazily created) labeled session view for one tenant."""
        with self._lock:
            session = self._sessions.get(tenant)
            if session is None:
                session = SacSession(
                    engine=self.loader.engine, tile_size=self.loader.tile_size,
                    options=self.loader.options, tenant=tenant,
                    quota=self._quota,
                )
                self._sessions[tenant] = session
            return session

    def submit(
        self,
        tenant: str,
        query: str,
        env: Optional[dict[str, Any]] = None,
        include_values: bool = False,
    ) -> dict:
        """Run one query for ``tenant`` against the hosted datasets.

        ``env`` supplies scalar bindings (and may shadow dataset names);
        the result comes back rendered (see :func:`render_result`) with
        the query's wall latency attached.
        """
        session = self.session(tenant)
        full_env = {**self.datasets, **(env or {})}
        start = time.perf_counter()
        # The scope covers rendering too: storages materialize lazily,
        # so shuffles (and reuses) can fire inside ``to_numpy``.
        with self.substrate.metrics.tenant_scope(tenant):
            result = session.run(query, full_env)
            rendered = render_result(result, include_values=include_values)
        rendered["latency_seconds"] = time.perf_counter() - start
        rendered["tenant"] = tenant
        return rendered

    def metrics_report(self) -> dict:
        """Per-tenant counters + shared-cache and admission stats."""
        return {
            "tenants": self.substrate.tenant_report(),
            "plan_caches": self.substrate.plan_caches.stats(),
            "admission": self.substrate.admission.stats(),
        }

    def close(self) -> None:
        self.substrate.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The asyncio HTTP front door
# ----------------------------------------------------------------------

_MAX_BODY = 4 * 1024 * 1024
#: How long a request may take to deliver the body it announced.
_BODY_SECONDS = 10.0
#: How long :meth:`ServeServer.stop` waits for in-flight requests.
_DRAIN_SECONDS = 10.0
#: Where a query that failed inside the server leaves its traceback.
_LOG = logging.getLogger(__name__)


class ServeServer:
    """Minimal asyncio HTTP/1.1 JSON server over a :class:`QueryService`.

    Stdlib only.  Handlers parse one request per connection (the replay
    clients send ``Connection: close``), dispatch blocking engine work
    to the default executor so the event loop keeps accepting, and
    answer JSON.  Concurrency inside the engine is governed by the
    substrate's admission gate, not by the server.
    """

    def __init__(
        self, service: QueryService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        #: In-flight connection handlers; :meth:`stop` waits for them.
        self._handlers: set[asyncio.Task] = set()
        #: Set when :meth:`stop` has finished.
        self._stopped: Optional[asyncio.Event] = None

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` has finished, then return; a
        cancellation of the calling task itself still propagates."""
        if self._server is None:
            await self.start()
        stopped = self._stopped
        async with self._server:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                # ``Server.close()`` ends its ``serve_forever`` by
                # cancelling the future it waits on; after ``stop()``
                # (which forgets the server first) that is the requested
                # shutdown, not a cancellation.
                if self._server is not None:
                    raise
        # ``stop()`` may still be letting in-flight requests finish; the
        # caller is free to close the loop once this returns.
        await stopped.wait()

    async def stop(self) -> None:
        """Stop accepting, then let in-flight requests finish and close
        their connections (``wait_closed`` alone does not wait for them
        before Python 3.12).  A handler still going after
        ``_DRAIN_SECONDS`` — a client that connected and never sent its
        request — is cancelled; its ``finally`` closes the connection."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        if self._handlers:
            _done, pending = await asyncio.wait(
                self._handlers, timeout=_DRAIN_SECONDS
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        self._stopped.set()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            try:
                status, payload = await self._respond(reader)
            except Exception as exc:  # defensive: a handler bug must not kill the loop
                status, payload = 500, {"ok": False, "error": repr(exc)}
            body = json.dumps(payload).encode()
            writer.write(
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode() + body
            )
            await writer.drain()
        except ConnectionError:  # client went away
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"ok": False, "error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    return 400, {"ok": False, "error": "bad content-length"}
        if method == "GET" and path == "/health":
            return 200, {"ok": True}
        if method == "GET" and path == "/metrics":
            return 200, {"ok": True, **self.service.metrics_report()}
        if method == "POST" and path == "/query":
            if content_length > _MAX_BODY:
                return 413, {"ok": False, "error": f"body over {_MAX_BODY} bytes"}
            loop = asyncio.get_running_loop()
            # A timer, not ``wait_for``: no extra task on the normal path.
            deadline = loop.call_later(_BODY_SECONDS, reader.feed_eof)
            try:
                raw = await reader.readexactly(content_length)
                request = json.loads(raw or b"{}")
            except asyncio.IncompleteReadError:
                return 400, {"ok": False, "error": "body shorter than content-length"}
            except ValueError:  # not UTF-8, or not JSON
                return 400, {"ok": False, "error": "body is not valid JSON"}
            finally:
                deadline.cancel()
            query = env = None
            if isinstance(request, dict):
                query, env = request.get("query"), request.get("env") or {}
            if not isinstance(query, str) or not isinstance(env, dict):
                message = "body must be an object: string 'query', object 'env'"
                return 400, {"ok": False, "error": message}
            tenant = str(request.get("tenant", "anonymous"))
            try:
                rendered = await loop.run_in_executor(
                    None,
                    lambda: self.service.submit(
                        tenant, query, env,
                        include_values=bool(request.get("include_values")),
                    ),
                )
            except Exception as exc:
                # A query the language rejects is the client's fault;
                # anything else went wrong in the server.
                status = 400 if isinstance(exc, SacError) else 500
                if status == 500:
                    _LOG.exception("query from tenant %r failed", tenant)
                return status, {
                    "ok": False, "tenant": tenant, "error": str(exc),
                    "error_type": type(exc).__name__,
                }
            return 200, {"ok": True, **rendered}
        return 404, {"ok": False, "error": f"no route {method} {path}"}


def http_submit(host: str, port: int) -> Callable:
    """A blocking submit callable speaking the server's JSON protocol.

    Returned function signature matches :meth:`QueryService.submit`, so
    :func:`replay` can drive an in-process service and a live server
    interchangeably.
    """
    import http.client

    def submit(
        tenant: str,
        query: str,
        env: Optional[dict] = None,
        include_values: bool = False,
    ) -> dict:
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            connection.request(
                "POST", "/query",
                body=json.dumps({
                    "tenant": tenant, "query": query, "env": env or {},
                    "include_values": include_values,
                }),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        if not payload.get("ok"):
            raise RuntimeError(payload.get("error", "query failed"))
        return payload

    return submit


# ----------------------------------------------------------------------
# Replay harness
# ----------------------------------------------------------------------


@dataclass
class ReplayReport:
    """What N concurrent replay clients saw."""

    #: tenant -> query-result digests in submission order.
    digests: dict[str, list[str]] = field(default_factory=dict)
    #: tenant -> per-query wall latencies (seconds), submission order.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: (tenant, repr(exception)) for failed submissions.
    errors: list[tuple[str, str]] = field(default_factory=list)
    wall_seconds: float = 0.0

    def all_latencies(self) -> list[float]:
        return [
            latency
            for per_tenant in self.latencies.values()
            for latency in per_tenant
        ]

    def latency_percentile(self, fraction: float) -> float:
        return _percentile(sorted(self.all_latencies()), fraction)

    def summary(self) -> dict:
        return {
            "tenants": len(self.digests),
            "queries": sum(len(d) for d in self.digests.values()),
            "errors": len(self.errors),
            "wall_seconds": self.wall_seconds,
            "latency_p50_seconds": self.latency_percentile(0.50),
            "latency_p95_seconds": self.latency_percentile(0.95),
        }


def replay(
    submit: Callable,
    workloads: dict[str, list[tuple[str, dict]]],
    rounds: int = 1,
    concurrent: bool = True,
) -> ReplayReport:
    """Drive one client per tenant through its workload, concurrently.

    ``workloads`` maps each tenant to its query script — a list of
    ``(query, env)`` pairs — replayed ``rounds`` times in order.
    ``submit`` is any callable with :meth:`QueryService.submit`'s
    signature.  ``concurrent=False`` runs the same scripts serially in
    tenant order — the isolated-baseline shape for differential tests.
    """
    report = ReplayReport(
        digests={tenant: [] for tenant in workloads},
        latencies={tenant: [] for tenant in workloads},
    )

    def client(tenant: str, script: list[tuple[str, dict]]) -> None:
        for _round in range(rounds):
            for query, env in script:
                start = time.perf_counter()
                try:
                    rendered = submit(tenant, query, env)
                except Exception as exc:
                    report.errors.append((tenant, repr(exc)))
                    continue
                report.latencies[tenant].append(time.perf_counter() - start)
                report.digests[tenant].append(rendered["digest"])

    start = time.perf_counter()
    if concurrent:
        threads = [
            threading.Thread(
                target=client, args=(tenant, script), name=f"replay-{tenant}"
            )
            for tenant, script in workloads.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        for tenant, script in workloads.items():
            client(tenant, script)
    report.wall_seconds = time.perf_counter() - start
    return report


def demo_workload(
    service: QueryService,
    num_tenants: int = 4,
    size: int = 24,
    seed: int = 11,
) -> dict[str, list[tuple[str, dict]]]:
    """Host demo matrices and build one workload script per tenant.

    Every tenant replays the same three paper-shaped queries (multiply,
    scaled add, row sums) over the shared hosted datasets — the
    cache-friendly serve scenario: tenant 1 compiles and shuffles,
    tenants 2..N hit the shared plan cache and the retained shuffle
    outputs.
    """
    rng = np.random.default_rng(seed)
    n = size
    service.host("A", rng.uniform(0, 9, size=(n, n)))
    service.host("B", rng.uniform(0, 9, size=(n, n)))
    script = [
        (
            "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
            " kk == k, let v = a*b, group by (i,j) ]",
            {"n": n, "m": n},
        ),
        (
            "tiled(n, m)[ ((i,j), a + gamma * b)"
            " | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
            {"n": n, "m": n, "gamma": 0.5},
        ),
        (
            "tiled_vector(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
            {"n": n},
        ),
    ]
    return {f"tenant-{i + 1}": list(script) for i in range(num_tenants)}


# ----------------------------------------------------------------------
# CLI entry (``repro serve``)
# ----------------------------------------------------------------------


def serve_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``repro serve`` (see ``cli.py``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Boot the multi-tenant query front door: many sessions, one "
            "shared substrate."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 picks an ephemeral port, printed at boot)",
    )
    parser.add_argument(
        "--tile-size", type=int, default=100, help="tile side for hosted data"
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=None,
        help="admission bound on concurrently running jobs "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--quota", default=None,
        help="per-tenant resident-byte quota, e.g. 64M (default: none)",
    )
    parser.add_argument(
        "--memory-limit", default=None,
        help="substrate memory cap with spill-to-disk, e.g. 256M",
    )
    parser.add_argument(
        "--pipeline", action="store_true",
        help="run served queries on the threaded runner (tasks fire as "
        "their inputs land instead of one at a time)",
    )
    parser.add_argument(
        "--demo", type=int, metavar="N", default=None,
        help="host the demo datasets sized NxN (default 24 with --replay)",
    )
    parser.add_argument(
        "--replay", type=int, metavar="CLIENTS", default=None,
        help="boot, drive CLIENTS concurrent replay clients over HTTP, "
        "print a JSON report, and exit (the CI smoke path)",
    )
    parser.add_argument(
        "--rounds", type=int, default=2, help="replay rounds per client"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    service = QueryService(
        tile_size=args.tile_size,
        max_concurrent=args.max_concurrent,
        quota=args.quota,
        memory_limit=args.memory_limit,
        runner="threads" if args.pipeline else None,
    )
    if args.replay is not None:
        workloads = demo_workload(
            service, num_tenants=args.replay, size=args.demo or 24
        )
        server = ServeServer(service, host=args.host, port=args.port)

        async def run() -> ReplayReport:
            await server.start()
            submit = http_submit(server.host, server.port)
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, lambda: replay(submit, workloads, rounds=args.rounds)
                )
            finally:
                await server.stop()

        report = asyncio.run(run())
        payload = {
            "replay": report.summary(),
            **service.metrics_report(),
        }
        if args.json:
            print(json.dumps(payload, indent=2, default=str))
        else:
            summary = report.summary()
            print(
                f"replayed {summary['queries']} queries over "
                f"{summary['tenants']} tenants in "
                f"{summary['wall_seconds']:.2f}s "
                f"(p95 {summary['latency_p95_seconds'] * 1e3:.1f}ms, "
                f"{summary['errors']} errors)"
            )
            for tenant, stats in sorted(payload["tenants"].items()):
                if not tenant:
                    continue
                print(
                    f"  {tenant}: {stats.get('queries', 0)} queries, "
                    f"plan-cache hit rate "
                    f"{stats.get('plan_cache_hit_rate', 0.0):.2f}, "
                    f"{stats.get('shuffle_reuses', 0)} shuffle reuses"
                )
        service.close()
        return 1 if report.errors else 0

    if args.demo is not None:
        demo_workload(service, num_tenants=0, size=args.demo)
    server = ServeServer(service, host=args.host, port=args.port)

    async def run_forever() -> None:
        await server.start()
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"(POST /query, GET /metrics)"
        )
        await server.serve_forever()

    try:
        asyncio.run(run_forever())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0
