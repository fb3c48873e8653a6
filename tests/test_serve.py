"""The ``repro serve`` front door: service, HTTP server, replay harness.

End-to-end checks that many concurrent clients over one substrate get
byte-identical answers (digest-compared), per-tenant metrics, and the
shared-cache wins the front door exists for.
"""

import asyncio
import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

import repro.serve as serve_module
from repro.engine import TINY_CLUSTER
from repro.serve import (
    QueryService,
    ReplayReport,
    ServeServer,
    demo_workload,
    http_submit,
    render_result,
    replay,
    serve_main,
)

ROW_SUMS = "tiled_vector(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]"
MULTIPLY = (
    "tiled(n,m)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]"
)


@pytest.fixture
def service():
    svc = QueryService(cluster=TINY_CLUSTER, tile_size=8)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# render_result
# ----------------------------------------------------------------------


def test_render_result_array_digest_is_content_addressed():
    a = np.arange(12.0).reshape(3, 4)
    first = render_result(a)
    second = render_result(a.copy())
    different = render_result(a + 1)
    assert first["kind"] == "array"
    assert first["shape"] == [3, 4]
    assert first["digest"] == second["digest"]
    assert first["digest"] != different["digest"]


def test_render_result_distinguishes_dtype_and_shape():
    a = np.zeros(4)
    assert render_result(a)["digest"] != render_result(
        a.astype(np.float32)
    )["digest"]
    assert render_result(a)["digest"] != render_result(
        a.reshape(2, 2)
    )["digest"]


def test_render_result_scalar_and_values():
    scalar = render_result(3.5)
    assert scalar == {
        "kind": "scalar", "value": 3.5, "digest": scalar["digest"]
    }
    small = render_result(np.ones(3), include_values=True)
    assert small["values"] == [1.0, 1.0, 1.0]


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------


def test_submit_runs_against_hosted_datasets(service):
    rng = np.random.default_rng(2)
    a = rng.uniform(size=(16, 16))
    service.host("A", a)
    rendered = service.submit(
        "alice", ROW_SUMS, {"n": 16}, include_values=True
    )
    assert rendered["tenant"] == "alice"
    assert rendered["shape"] == [16]
    # Numerically the row sums (bitwise may differ from NumPy's
    # summation order; the digest is for cross-run identity, not this).
    np.testing.assert_allclose(rendered["values"], a.sum(axis=1), rtol=1e-10)


def test_submit_env_shadows_hosted_dataset(service):
    service.host("A", np.ones((8, 8)))
    via_env = service.submit("bob", "+/[ v | (i,v) <- V ]", {
        "V": service.host("V", np.arange(8.0)), "n": 8,
    })
    assert via_env["kind"] == "scalar"
    assert via_env["value"] == pytest.approx(28.0)


def test_sessions_are_lazy_and_cached_per_tenant(service):
    service.host("A", np.ones((8, 8)))
    assert service.session("alice") is service.session("alice")
    assert service.session("alice") is not service.session("bob")
    assert service.session("alice").tenant == "alice"


def test_tenant_metrics_attributed_per_tenant(service):
    service.host("A", np.ones((16, 16)))
    service.submit("alice", ROW_SUMS, {"n": 16})
    service.submit("alice", ROW_SUMS, {"n": 16})
    service.submit("bob", ROW_SUMS, {"n": 16})
    report = service.metrics_report()
    assert report["tenants"]["alice"]["queries"] == 2
    assert report["tenants"]["bob"]["queries"] == 1
    # bob compiled nothing: every tier was primed by alice.
    assert report["tenants"]["bob"]["plan_cache_hit_rate"] == 1.0
    assert report["admission"]["running"] == 0


def test_only_marked_shuffles_are_retained(service):
    """The shuffle registry holds what CSE marked and nothing else: a row
    sum marks no shuffle and leaves it empty, a SUMMA multiply retains
    its two band shuffles."""
    rng = np.random.default_rng(2)
    service.host("A", rng.uniform(size=(16, 16)))
    service.host("B", rng.uniform(size=(16, 16)))
    blocks = service.substrate.block_manager
    service.submit("alice", ROW_SUMS, {"n": 16})
    assert blocks._num_shuffle_entries == 0
    service.submit("alice", MULTIPLY, {"n": 16, "m": 16})
    compiled = service.session("alice").compile(
        MULTIPLY, n=16, m=16, **service.datasets
    )
    assert compiled.plan.details["strategy"] == "gbj-replicate"
    assert blocks._num_shuffle_entries == 2


def test_submit_error_counts_against_tenant(service):
    service.host("A", np.ones((8, 8)))
    with pytest.raises(Exception):
        service.submit("alice", "this is not a query", {})
    report = service.metrics_report()
    assert report["tenants"]["alice"]["errors"] == 1


# ----------------------------------------------------------------------
# Replay harness
# ----------------------------------------------------------------------


def test_replay_concurrent_clients_identical_digests(service):
    workloads = demo_workload(service, num_tenants=3, size=16)
    report = replay(service.submit, workloads, rounds=2)
    assert not report.errors
    assert len(report.digests) == 3
    per_tenant = {tuple(d) for d in report.digests.values()}
    assert len(per_tenant) == 1  # every tenant saw identical bytes
    assert all(len(d) == 6 for d in report.digests.values())
    summary = report.summary()
    assert summary["queries"] == 18
    assert summary["latency_p95_seconds"] >= summary["latency_p50_seconds"]


def test_replay_serial_matches_concurrent(service):
    workloads = demo_workload(service, num_tenants=2, size=16)
    concurrent = replay(service.submit, workloads, rounds=1)
    serial_service = QueryService(cluster=TINY_CLUSTER, tile_size=8)
    serial_workloads = demo_workload(serial_service, num_tenants=2, size=16)
    serial = replay(
        serial_service.submit, serial_workloads, rounds=1, concurrent=False
    )
    assert concurrent.digests == serial.digests
    serial_service.close()


def test_replay_shared_substrate_shows_cache_wins():
    # Default (paper) cluster: its cost model picks the shuffle-bearing
    # plans whose retained outputs later tenants reuse.
    service = QueryService(tile_size=8)
    workloads = demo_workload(service, num_tenants=3, size=16)
    replay(service.submit, workloads, rounds=2)
    report = service.metrics_report()
    total_hits = sum(
        s["plan_cache_hits"] for s in report["tenants"].values()
    )
    total_misses = sum(
        s["plan_cache_misses"] for s in report["tenants"].values()
    )
    # 3 tenants x 2 rounds x 3 queries.  The tenants race, so all three
    # can miss the same never-seen text in round 1; round 2 always hits.
    assert total_hits + total_misses == 18
    assert total_misses <= 9
    assert total_hits >= 9
    # Retained shuffle outputs answered later tenants' equal shuffles.
    assert service.substrate.metrics.total.shuffle_reuses > 0
    tenant_reuses = sum(
        s["shuffle_reuses"] for s in report["tenants"].values()
    )
    assert tenant_reuses == service.substrate.metrics.total.shuffle_reuses
    service.close()


def test_replay_collects_errors_without_stopping():
    report = ReplayReport(digests={"a": []}, latencies={"a": []})

    def failing_submit(tenant, query, env=None, include_values=False):
        raise RuntimeError("boom")

    report = replay(failing_submit, {"a": [("q", {})]}, rounds=2)
    assert len(report.errors) == 2
    assert report.digests["a"] == []


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------


def _boot(service):
    """Run a ServeServer on an ephemeral port in a daemon thread."""
    server = ServeServer(service, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    async def main():
        await server.start()
        started.set()
        await server.serve_forever()

    def run():
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    return server, loop


def _shutdown(server, loop):
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=10)


def test_serve_forever_returns_on_stop_and_still_propagates_cancel(service):
    async def main():
        server = ServeServer(service, port=0)
        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        await asyncio.sleep(0)
        await server.stop()
        # stop() is a requested shutdown: no CancelledError leaks out.
        assert await asyncio.wait_for(serving, timeout=10) is None

        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        await asyncio.sleep(0)
        serving.cancel()
        with pytest.raises(asyncio.CancelledError):
            await asyncio.wait_for(serving, timeout=10)

    asyncio.run(main())


def test_http_query_metrics_health(service):
    rng = np.random.default_rng(9)
    a = rng.uniform(size=(16, 16))
    service.host("A", a)
    server, loop = _boot(service)
    try:
        base = f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(f"{base}/health", timeout=10) as resp:
            assert json.loads(resp.read()) == {"ok": True}

        submit = http_submit("127.0.0.1", server.port)
        rendered = submit("alice", ROW_SUMS, {"n": 16})
        assert rendered["tenant"] == "alice"
        assert rendered["shape"] == [16]
        # Same query in-process produces the same bytes.
        assert rendered["digest"] == service.submit(
            "check", ROW_SUMS, {"n": 16}
        )["digest"]

        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
            metrics = json.loads(resp.read())
        assert metrics["ok"] is True
        assert metrics["tenants"]["alice"]["queries"] == 1
        assert "plan_caches" in metrics and "admission" in metrics
    finally:
        _shutdown(server, loop)


def test_http_bad_query_is_a_client_error_not_a_crash(service):
    service.host("A", np.ones((8, 8)))
    server, loop = _boot(service)
    try:
        submit = http_submit("127.0.0.1", server.port)
        with pytest.raises(RuntimeError):
            submit("alice", "syntax garbage ((", {})
        # The server survived and still answers.
        rendered = submit("alice", ROW_SUMS, {"n": 8})
        assert rendered["kind"] == "array"
    finally:
        _shutdown(server, loop)


def _failed_query(port, query, env):
    """POST a query expected to fail: (HTTP status, JSON payload)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/query",
        data=json.dumps({"tenant": "alice", "query": query, "env": env}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    with err.value:  # the error holds the response's socket
        return err.value.code, json.loads(err.value.read())


def test_http_failed_query_status_names_whose_fault(service, caplog):
    """A query the language rejects is a 400; an engine failure is a 500.
    Both carry the message and the exception's type name."""
    service.host("A", np.ones((8, 8)))
    server, loop = _boot(service)
    try:
        status, payload = _failed_query(server.port, "syntax garbage ((", {})
        assert status == 400
        assert payload["ok"] is False
        assert payload["error_type"] == "SacSyntaxError"
        assert payload["error"] and "SacSyntaxError" not in payload["error"]

        service.substrate.runner.inject_failure(
            "result", None, times=1, transient=False
        )
        with caplog.at_level("ERROR", logger="repro.serve"):
            status, payload = _failed_query(server.port, ROW_SUMS, {"n": 8})
        assert status == 500
        assert payload["error_type"] == "InjectedFatalTaskError"
        assert payload["tenant"] == "alice"
        # The server's failure keeps its traceback; the client's does not.
        (record,) = caplog.records
        assert record.exc_info[0].__name__ == "InjectedFatalTaskError"
        # The server survived and still answers.
        rendered = http_submit("127.0.0.1", server.port)(
            "alice", ROW_SUMS, {"n": 8}
        )
        assert rendered["kind"] == "array"
    finally:
        _shutdown(server, loop)


def test_http_unknown_route_404(service):
    server, loop = _boot(service)
    try:
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/nope"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 404
        err.value.close()  # the error holds the response's socket
    finally:
        _shutdown(server, loop)


def _post(length, body: bytes) -> bytes:
    return (
        f"POST /query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        + body
    )


_OVER_LIMIT = serve_module._MAX_BODY + 1


@pytest.mark.parametrize("request_bytes, status", [
    (_post(7, b"[1,2,3]"), 400),                      # JSON, but not an object
    (_post(-5, b""), 400),                            # negative length
    (_post(4, b"\xff\xfe{}"), 400),                   # not UTF-8
    (_post(50, b"{\"q\""), 400),                       # shorter than announced
    (_post(_OVER_LIMIT, b""), 413),                   # refused, not truncated
    (_post(12, b'{"query": 5}'), 400),                # non-string query
    (_post(26, b'{"query": "1", "env": [1]}'), 400),  # non-object env
])
def test_malformed_request_gets_a_fixed_4xx_answer(
    service, monkeypatch, request_bytes, status
):
    monkeypatch.setattr(serve_module, "_BODY_SECONDS", 0.05)
    server, loop = _boot(service)
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as client:
            client.sendall(request_bytes)
            answer = b""
            while chunk := client.recv(4096):  # until the server closes
                answer += chunk
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        payload = json.loads(body)
        assert payload["ok"] is False
        # A fixed message, not the repr of whatever the parser raised.
        assert "Error" not in payload["error"]
    finally:
        _shutdown(server, loop)


def test_stop_closes_a_connection_that_never_sent_its_request(
    service, monkeypatch
):
    monkeypatch.setattr(serve_module, "_DRAIN_SECONDS", 0.05)
    server, loop = _boot(service)
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as idle:
        deadline = time.monotonic() + 10
        while not server._handlers and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server._handlers
        _shutdown(server, loop)
        assert idle.recv(1) == b""  # the server closed its side
    assert not server._handlers


def test_concurrent_http_clients_share_the_substrate(service):
    workloads = demo_workload(service, num_tenants=3, size=16)
    server, loop = _boot(service)
    try:
        submit = http_submit("127.0.0.1", server.port)
        report = replay(submit, workloads, rounds=1)
        assert not report.errors
        assert len({tuple(d) for d in report.digests.values()}) == 1
    finally:
        _shutdown(server, loop)


# ----------------------------------------------------------------------
# CLI entry
# ----------------------------------------------------------------------


def test_serve_main_replay_smoke(capsys):
    exit_code = serve_main([
        "--replay", "2", "--rounds", "1", "--tile-size", "8",
        "--demo", "16", "--json",
    ])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replay"]["errors"] == 0
    assert payload["replay"]["queries"] == 6
    assert payload["tenants"]["tenant-1"]["queries"] == 3


def test_cli_dispatches_serve_subcommand(capsys):
    from repro.cli import main

    exit_code = main([
        "serve", "--replay", "2", "--rounds", "1", "--tile-size", "8",
        "--demo", "16", "--json",
    ])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replay"]["errors"] == 0
