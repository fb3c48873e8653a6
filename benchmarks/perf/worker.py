"""One (round, workload) of the benchmark, in a process of its own.

``run.py`` starts this with a scrubbed environment (no ``REPRO_*``
variables, ``PYTHONPATH`` on ``src``).  It sets the workload up, warms it,
measures one slice, checks every result against the NumPy oracle outside
the timed span, and prints one JSON object as the last line of stdout.

Untraced, the ops are exactly what a user writes (``session.run(...)
.to_numpy()``, ``http_submit``).  Traced, the op is cut at the layer
boundaries with spans recorded here, probes replay single layers between
ops, and the per-layer metrics are derived; every second op still runs
untraced so the tracing overhead is measured within the same run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.comprehension import FreshNames, desugar, monoid, normalize, parse
from repro.planner import cse_enabled, fusion_enabled, plan_state
from repro.planner.kernels import combine_tiles, contract
from repro.planner.lower import lower
from repro.serve import QueryService, http_submit, render_result
from repro.storage.objectstore import LocalDiskStore

from metrics import PER_LAYER, median, percentile
from tracing import Tracer
from workloads import (
    LIBRARY, SERVE_TILE, TEMPLATES, array_digest, request_stream, run_op_traced,
    serve_inputs, timed, unpersist_all,
)

WARMUP_OPS = 3
WARMUP_REQUESTS = 200
#: Set-ups per round (the last one is kept); a server boot costs ~0.35 s.
SETUP_REPEATS = 5
SERVER_BOOTS = 3
#: In a traced run every second op runs untraced (the reference for the
#: tracing overhead) and a probe round precedes every fifth op.
PLAIN_EVERY = 2
PROBE_EVERY = 5
CLIENTS = 2
#: The traced serve run is one client sending a fixed number of requests,
#: so that every counter repeats exactly for a seed; at 20 % cold that is
#: ~600 distinct texts, more than every plan-cache tier holds.
TRACED_REQUESTS = 3000
SERVE_PROBE_EVERY = 100
#: Give up on a workload whose ops keep failing (they may fail fast).
MAX_FAILURES = 20
STORE_BATCH_TILES = 8
#: The CPUs this process may use, as found at start (pinning narrows the
#: affinity mask, so it has to be remembered), and the length of the spin
#: loop that compares them (~10 ms each).
CPUS = sorted(os.sched_getaffinity(0))
SPIN_ITERATIONS = 150_000

LAUNCHER = str(Path(__file__).with_name("serve_launcher.py"))

ENGINE_COUNTERS = (
    "stages", "tasks", "shuffles", "shuffle_records", "shuffle_bytes",
    "estimated_shuffle_bytes", "cache_hits", "cache_misses", "shuffle_reuses",
    "task_retries", "spilled_bytes", "restored_bytes", "spill_restores",
    "prefetch_hits", "kernel_cache_hits", "kernel_cache_misses",
    "compute_seconds", "wall_seconds", "restore_stall_seconds",
)


class Tally:
    """Ops attempted and failed (raised, refused, or wrong), warm-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.messages,
        }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Resolved configuration
# ----------------------------------------------------------------------


def session_config(session) -> dict:
    """What the session resolved its defaults to — promoted defaults and
    deleted switches show here."""
    engine = session.engine
    options = session.options
    return {
        "runner": type(engine.runner).__name__,
        "pipeline": bool(engine.pipeline),
        "adaptive": bool(engine.adaptive.enabled),
        "memory_limit": engine.memory_limit,
        "tile_size": session.tile_size,
        "planner_options": {
            **vars(options),
            "cse_resolved": cse_enabled(options),
            "fusion_resolved": fusion_enabled(options),
        },
    }


def process_config() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {
            name: os.environ.get(name, "default")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


# ----------------------------------------------------------------------
# Layer probes and layer metrics (traced runs)
# ----------------------------------------------------------------------


class Probe:
    """Replays single layers through their public functions, between ops."""

    def __init__(self, tile: int, rng: np.random.Generator, tmp: str):
        self.left = rng.random((tile, tile))
        self.right = rng.random((tile, tile))
        self.blob = pickle.dumps(
            [((i, 0), self.left) for i in range(STORE_BATCH_TILES)],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.store = LocalDiskStore(os.path.join(tmp, "probe-store"))
        self.passes = 0

    def front_half(self, session, query: str, env: dict, span: Callable) -> None:
        """A cold compile, stage by stage, then as one ``cache=False`` call."""
        arrays = {
            name for name, value in env.items()
            if not isinstance(value, (int, float))
        }
        fresh = FreshNames()
        with span("comprehension.parse"):
            parsed = parse(query)
        with span("comprehension.desugar"):
            desugared = desugar(parsed, is_array=arrays.__contains__, fresh=fresh)
        with span("comprehension.normalize"):
            normalized = normalize(desugared, fresh=fresh)
        with span("planner.plan_state"):
            state = plan_state(
                normalized, dict(env), session.engine, session.build_context,
                session.options,
            )
        with span("planner.lower"):
            plan = lower(state)
        self.passes = len(plan.trace)
        with span("core.compile_cold"):
            session.compile(query, cache=False, **env)

    def kernels_and_store(self, span: Callable, tile_gemms: int) -> None:
        plus = monoid("+")
        with span("planner.contract_tile"):
            contract(
                self.left, self.right, ("i", "k"), ("k", "j"), ("i", "j"),
                None, plus, ("a", "b"),
            )
        with span("planner.combine_tile"):
            combine_tiles(plus, self.left, self.right)
        with span("storage.store_put"):
            self.store.put("probe/batch", self.blob)
        with span("storage.store_get"):
            self.store.get("probe/batch")
        self.store.delete("probe/batch")
        if tile_gemms:
            # The same tile GEMMs in bare NumPy: the kernel's peak rate.
            with span("oracle.tile_gemms"):
                for _ in range(tile_gemms):
                    np.matmul(self.left, self.right)

    def close(self) -> None:
        self.store.close()


def probe_layers(tracer: Tracer, probe: Probe) -> dict:
    """Medians of the probe spans, under their metric names."""
    def med(name: str) -> float:
        return median(tracer.durations(name))

    blob_mb = len(probe.blob) / 1e6
    return {
        "comprehension.parse_s": med("comprehension.parse"),
        "comprehension.desugar_s": med("comprehension.desugar"),
        "comprehension.normalize_s": med("comprehension.normalize"),
        "planner.plan_state_s": med("planner.plan_state"),
        "planner.lower_s": med("planner.lower"),
        "planner.passes": float(probe.passes),
        "planner.contract_tile_s": med("planner.contract_tile"),
        "planner.combine_tile_s": med("planner.combine_tile"),
        "core.compile_cold_s": med("core.compile_cold"),
        "core.compile_warm_s": med("core.compile"),
        "core.execute_s": med("core.execute"),
        "storage.to_numpy_s": med("storage.to_numpy"),
        "storage.store_put_mb_s": ratio(blob_mb, med("storage.store_put")),
        "storage.store_get_mb_s": ratio(blob_mb, med("storage.store_get")),
        "oracle.numpy_s": med("oracle.numpy"),
    }


def counter_layers(c: dict) -> dict:
    """Engine counters of one op (or their per-request mean) by metric name."""
    return {
        "planner.estimate_ratio": ratio(
            c["estimated_shuffle_bytes"], c["shuffle_bytes"]
        ),
        "planner.kernel_cache_hits": c["kernel_cache_hits"],
        "planner.kernel_cache_misses": c["kernel_cache_misses"],
        "engine.compute_s": c["compute_seconds"],
        "engine.task_s_mean": ratio(c["compute_seconds"], c["tasks"]),
        **{
            f"engine.{name}": c[name] for name in (
                "stages", "tasks", "shuffles", "shuffle_records",
                "shuffle_bytes", "cache_hits", "cache_misses",
                "shuffle_reuses", "task_retries", "spilled_bytes",
                "restored_bytes", "spill_restores", "prefetch_hits",
            )
        },
        "engine.prefetch_hit_share": ratio(c["prefetch_hits"], c["spill_restores"]),
        "engine.restore_stall_s": c["restore_stall_seconds"],
    }


def cache_layers(stats: dict, before: Optional[dict] = None, per: float = 1.0) -> dict:
    """Plan-cache tier counters (optionally since ``before``) by metric name."""
    def value(tier: str, field: str) -> float:
        base = before[tier][field] if before else 0
        return (stats[tier][field] - base) / per

    return {
        "core.plan_cache_hits": value("plan_cache", "hits"),
        "core.plan_cache_misses": value("plan_cache", "misses"),
        "core.plan_cache_evictions": value("plan_cache", "evictions"),
        "core.pass_cache_hits": value("pass_cache", "hits"),
        "core.pass_cache_misses": value("pass_cache", "misses"),
        "core.parse_cache_hits": value("parse_cache", "hits"),
        "core.parse_cache_misses": value("parse_cache", "misses"),
    }


def trace_layers(tracer: Tracer, traced: list[float], plain: list[float]) -> dict:
    """Harness health: how much of the op the spans cover, and their cost."""
    covered = tracer.children_seconds()
    ops = [s for s in tracer.spans if s["name"] == "op"]
    return {
        "trace.coverage": ratio(
            sum(covered.get(s["id"], 0.0) for s in ops),
            sum(s["end"] - s["start"] for s in ops),
        ),
        "trace.overhead_share": (
            median(traced) / median(plain) - 1.0 if traced and plain else 0.0
        ),
    }


def complete(layers: dict) -> dict:
    """Every per-layer name, 0.0 where the workload bypasses the layer."""
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"layer metrics missing from metrics.PER_LAYER: {unknown}")
    return {name: float(layers.get(name, 0.0)) for name in PER_LAYER}


# ----------------------------------------------------------------------
# Library workloads
# ----------------------------------------------------------------------


def settle_on_quiet_cpu() -> None:
    """Pin this process to whichever CPU runs a fixed spin loop fastest now.

    The vCPUs of a shared host are hyperthreads whose siblings belong to
    neighbours: each flips between full speed and ~2/3 of it every few
    seconds to minutes, independently of the other.  A single-threaded op
    otherwise inherits whatever the CPU it happens to sit on is doing.
    Called (untimed) before every op of the single-threaded workloads.
    """
    timings = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        total = 0
        for i in range(SPIN_ITERATIONS):
            total += i * i % 7
        timings[cpu] = time.perf_counter() - start
    os.sched_setaffinity(0, {min(timings, key=timings.get)})


def matches(result, expected: np.ndarray, rtol: float) -> bool:
    return (
        isinstance(result, np.ndarray)
        and result.shape == expected.shape
        and bool(np.allclose(result, expected, rtol=rtol, atol=0.0))
    )


def checked_op(fn: Callable, st, expected, rtol: float, tally: Tally, pin: bool):
    """Run one op timed, then (untimed) clean up and check it."""
    if pin:
        settle_on_quiet_cpu()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # a failed op is counted, the run goes on
        result, error = None, repr(exc)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    unpersist_all(st.garbage)
    ok = error is None and matches(result, expected, rtol)
    tally.record(ok, error or "result differs from the NumPy oracle")
    return wall, cpu, ok


def run_library(wl, args) -> dict:
    rng = np.random.default_rng(args.seed)
    inputs = wl.make_inputs(rng)
    expected = wl.expected(inputs)
    if args.break_oracle:
        expected = expected + 1.0
    tally = Tally()
    setup_s: list[float] = []
    st = None
    try:
        for _ in range(SETUP_REPEATS):
            if st is not None:
                st.session.close()
            st, seconds = timed(lambda: wl.setup(inputs))
            setup_s.append(seconds)
        for _ in range(WARMUP_OPS):
            checked_op(lambda: wl.op(st), st, expected, wl.rtol, tally, wl.pin)
        if args.traced:
            measured = traced_library_ops(wl, st, inputs, expected, rng, tally, args)
        else:
            measured = plain_library_ops(wl, st, expected, tally, args)
        config = session_config(st.session)
        config["plan_rule"] = st.session.compile(wl.query, **st.env).plan.rule
    finally:
        if st is not None:
            st.session.close()
    return {
        **measured,
        "setup_s": setup_s,
        **tally.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "config": {"session_args": wl.session_args, **config},
    }


def plain_library_ops(wl, st, expected, tally: Tally, args) -> dict:
    walls: list[float] = []
    cpu_s = 0.0
    while sum(walls) < args.seconds and tally.failed < MAX_FAILURES:
        wall, cpu, ok = checked_op(lambda: wl.op(st), st, expected, wl.rtol, tally, wl.pin)
        if ok:
            walls.append(wall)
            cpu_s += cpu
    return {"query_s": walls, "timed_s": sum(walls), "cpu_s": cpu_s}


def traced_library_ops(wl, st, inputs, expected, rng, tally: Tally, args) -> dict:
    tracer = Tracer()
    probe = Probe(wl.tile, rng, args.tmp)
    traced: list[float] = []
    plain: list[float] = []
    counters: list[dict] = []
    caches: list[dict] = []
    cpu_s = 0.0
    index = 0
    try:
        while sum(traced) + sum(plain) < args.seconds and tally.failed < MAX_FAILURES:
            if index % PROBE_EVERY == 0:
                span = partial(tracer.span, op=f"probe-{index}")
                probe.front_half(st.session, wl.query, st.env, span)
                probe.kernels_and_store(span, wl.tile_gemms)
                with span("oracle.numpy"):
                    wl.expected(inputs)
            if index % PLAIN_EVERY == PLAIN_EVERY - 1:
                wall, cpu, ok = checked_op(
                    lambda: wl.op(st), st, expected, wl.rtol, tally, wl.pin
                )
                if ok:
                    plain.append(wall)
            else:
                span = partial(tracer.span, op=f"op-{index}")

                def op():
                    with span("op"):
                        return wl.op_traced(st, span)

                before = st.session.metrics_snapshot()
                cache_before = st.session.compile_stats()
                wall, cpu, ok = checked_op(op, st, expected, wl.rtol, tally, wl.pin)
                if ok:
                    traced.append(wall)
                    delta = st.session.metrics_delta(before)
                    counters.append({n: getattr(delta, n) for n in ENGINE_COUNTERS})
                    caches.append(cache_layers(st.session.compile_stats(), cache_before))
            cpu_s += cpu
            index += 1
    finally:
        probe.close()

    per_op = {n: median([c[n] for c in counters]) for n in ENGINE_COUNTERS}
    cache_medians = {
        name: median([c[name] for c in caches]) for name in caches[0]
    } if caches else {}
    jobs_of_op: dict[str, float] = {}
    for s in tracer.spans:
        if s["name"] == "engine.job":
            jobs_of_op[s["op"]] = jobs_of_op.get(s["op"], 0.0) + s["end"] - s["start"]
    job_s = median(list(jobs_of_op.values()))
    query_s = median(plain or traced)
    flops = wl.flops(inputs)
    layers = {
        **probe_layers(tracer, probe),
        **counter_layers(per_op),
        **cache_medians,
        "engine.job_s": job_s,
        "engine.compute_share": ratio(per_op["compute_seconds"], job_s),
        "storage.distribute_s": st.timings.get("distribute_s", 0.0),
        "storage.coo_build_s": st.timings.get("coo_build_s", 0.0),
        "oracle.gflops_eff": ratio(flops / 1e9, query_s),
        "oracle.gflops_peak": ratio(
            flops / 1e9, median(tracer.durations("oracle.tile_gemms"))
        ),
        **trace_layers(tracer, traced, plain),
    }
    layers["oracle.overhead_x"] = ratio(query_s, layers["oracle.numpy_s"])
    return {
        "query_s": plain + traced,
        "timed_s": sum(plain) + sum(traced),
        "cpu_s": cpu_s,
        "layers": complete(layers),
        "trace": tracer.chrome_trace(wl.name),
    }


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def http_get(port: int, path: str) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class ServerProcess:
    """The launcher subprocess; booted = first ``GET /health`` answered 200."""

    def __init__(self, data_path: str):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, data_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before it listened")
            self.port = json.loads(line)["port"]
            status, _ = http_get(self.port, "/health")
            if status != 200:
                raise RuntimeError(f"GET /health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def cpu_seconds(self) -> float:
        """user+sys CPU of the server so far (``/proc/<pid>/stat``)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict:
        """Close the server's stdin (its signal to leave) and reap it.

        Returns the engine totals it prints on the way out ({} if it had
        to be killed or was already stopped).
        """
        if self.proc.poll() is not None:
            return {}
        try:
            out, _ = self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return {}
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines and self.proc.returncode == 0 else {}


def send(submit: Callable, tenant: str, request, digests: list[str]) -> dict:
    """One request, timed; the digest check follows the timed span."""
    index, cold, text, env = request
    start = time.perf_counter()
    try:
        payload, error = submit(tenant, text, env), None
    except Exception as exc:  # refused, timed out, or answered not-ok
        payload, error = {}, repr(exc)
    end = time.perf_counter()
    if error is None and payload.get("digest") != digests[index]:
        error = f"digest of template {index} differs from the NumPy oracle"
    return {
        "wall": end - start, "cold": cold, "error": error,
        "service": payload.get("latency_seconds", 0.0),
    }


def client(submit, tenant, stream, digests, log, limit=None, deadline=None) -> None:
    """A closed-loop client: the next request leaves when the last returned."""
    while (limit is None or len(log) < limit) and (
        deadline is None or time.perf_counter() < deadline
    ):
        log.append(send(submit, tenant, next(stream), digests))


def run_serve(args) -> dict:
    rng = np.random.default_rng(args.seed)
    inputs = serve_inputs(rng)
    data_path = os.path.join(args.tmp, "serve_inputs.npz")
    np.savez(data_path, **inputs)
    digests = [
        array_digest(oracle(inputs["A"], inputs["B"])) for _, _, oracle in TEMPLATES
    ]
    if args.break_oracle:
        digests = ["0" * 64 for _ in digests]
    boots: list[float] = []
    server = None
    try:
        for _ in range(SERVER_BOOTS):
            if server is not None:
                server.stop()
            server = ServerProcess(data_path)
            boots.append(server.boot_s)
        if args.traced:
            measured = traced_serve(server, inputs, digests, rng, args)
        else:
            measured = plain_serve(server, digests, args)
    finally:
        if server is not None:
            server.stop()
    with QueryService(tile_size=SERVE_TILE) as service:
        config = session_config(service.loader)
    return {
        **measured,
        "setup_s": boots,
        "config": {"service_args": {"tile_size": SERVE_TILE}, **config},
    }


def tallied(log: list[dict]) -> dict:
    tally = Tally()
    for record in log:
        tally.record(not record["error"], record["error"])
    return tally.summary()


def plain_serve(server: ServerProcess, digests, args) -> dict:
    submit = http_submit("127.0.0.1", server.port)
    streams = [request_stream(args.seed, c) for c in range(CLIENTS)]

    def phase(**stop) -> list[dict]:
        logs: list[list] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=client,
                args=(submit, f"tenant-{c}", streams[c], digests, logs[c]),
                kwargs=stop,
            )
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for log in logs for record in log]

    warm = phase(limit=WARMUP_REQUESTS // CLIENTS)
    cpu0 = time.process_time() + server.cpu_seconds()
    start = time.perf_counter()
    log = phase(deadline=start + args.seconds)
    timed_s = time.perf_counter() - start
    cpu_s = time.process_time() + server.cpu_seconds() - cpu0
    return {
        "query_s": [r["wall"] for r in log if not r["error"]],
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": server.peak_rss_mb(),
        **tallied(warm + log),
    }


def traced_serve(server: ServerProcess, inputs, digests, rng, args) -> dict:
    """One client, a fixed number of requests: every counter repeats."""
    tracer = Tracer()
    probe = Probe(SERVE_TILE, rng, args.tmp)
    submit = http_submit("127.0.0.1", server.port)
    streams = [request_stream(args.seed, c) for c in range(CLIENTS)]
    log: list[dict] = []
    cpu0 = time.process_time() + server.cpu_seconds()
    start = time.perf_counter()
    with QueryService(tile_size=SERVE_TILE) as local:
        # The same service in this process, for the layers HTTP hides.
        _, distribute_s = timed(
            lambda: local.host("A", inputs["A"]).materialize()
        )
        local.host("B", inputs["B"])
        session = local.session("probe")
        garbage: list = []
        try:
            for index in range(TRACED_REQUESTS):
                if index % SERVE_PROBE_EVERY == 0:
                    span = partial(tracer.span, op=f"probe-{index}")
                    text, scalars, _ = TEMPLATES[(index // SERVE_PROBE_EVERY) % len(TEMPLATES)]
                    env = {**local.datasets, **scalars}
                    query = text.format(s="")
                    probe.front_half(session, query, env, span)
                    result = run_op_traced(
                        session, query, env, span, garbage=garbage
                    )
                    with span("serve.render"):
                        render_result(result)
                    unpersist_all(garbage)
                    probe.kernels_and_store(span, 0)
                    with span("oracle.numpy"):
                        for _, _, oracle in TEMPLATES:
                            oracle(inputs["A"], inputs["B"])
                    with span("serve.metrics"):
                        http_get(server.port, "/metrics")
                c = index % CLIENTS
                request = next(streams[c])
                if index % PLAIN_EVERY == PLAIN_EVERY - 1:
                    record = send(submit, f"tenant-{c}", request, digests)
                    record["traced"] = False
                else:
                    with tracer.span("op", f"req-{index}"):
                        with tracer.span("serve.http_submit", f"req-{index}"):
                            record = send(submit, f"tenant-{c}", request, digests)
                    record["traced"] = True
                log.append(record)
        finally:
            probe.close()
    timed_s = time.perf_counter() - start
    _, report = http_get(server.port, "/metrics")
    cpu_s = time.process_time() + server.cpu_seconds() - cpu0
    peak_rss_mb = server.peak_rss_mb()
    totals = server.stop()
    served = float(len(log))

    good = [r for r in log if not r["error"]]
    walls = [r["wall"] for r in good]
    warm = [r["wall"] for r in good if not r["cold"]]
    tenants = [t for name, t in report["tenants"].items() if name]
    hits = sum(t["plan_cache_hits"] for t in tenants)
    lookups = hits + sum(t["plan_cache_misses"] for t in tenants)
    numpy_s = median(tracer.durations("oracle.numpy")) / len(TEMPLATES)
    layers = {
        **probe_layers(tracer, probe),
        **counter_layers({
            name: totals.get(name, 0) / served for name in ENGINE_COUNTERS
        }),
        **cache_layers(report["plan_caches"], per=served),
        "engine.job_s": totals.get("wall_seconds", 0.0) / served,
        "engine.compute_share": ratio(
            totals.get("compute_seconds", 0.0), totals.get("wall_seconds", 0.0)
        ),
        "engine.admission_waits": sum(t["admission_waits"] for t in tenants) / served,
        "engine.admission_wait_s": sum(
            t["admission_wait_seconds"] for t in tenants
        ) / served,
        "storage.distribute_s": distribute_s,
        "serve.boot_s": server.boot_s,
        "serve.warm_request_s_p50": median(warm),
        "serve.cold_request_s_p50": median([r["wall"] for r in good if r["cold"]]),
        "serve.request_s_p99": percentile(walls, 0.99),
        "serve.service_s_p50": median([r["service"] for r in good]),
        "serve.http_overhead_s_p50": median([r["wall"] - r["service"] for r in good]),
        "serve.render_s": median(tracer.durations("serve.render")),
        "serve.plan_cache_hit_rate": ratio(hits, lookups),
        "serve.errors": float(
            sum(t["errors"] for t in tenants) + sum(1 for r in log if r["error"])
        ),
        "oracle.numpy_s": numpy_s,
        "oracle.overhead_x": ratio(median(warm), numpy_s),
        **trace_layers(
            tracer,
            [r["wall"] for r in good if r["traced"]],
            [r["wall"] for r in good if not r["traced"]],
        ),
    }
    return {
        "query_s": walls,
        "timed_s": timed_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "layers": complete(layers),
        "trace": tracer.chrome_trace("serve_mixed"),
        **tallied(log),
    }


# ----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "serve_mixed":
        result = run_serve(args)
    else:
        result = run_library(LIBRARY[args.workload], args)
    trace = result.pop("trace", None)
    if trace is not None:
        result["trace_file"] = os.path.join(args.tmp, f"trace_{args.workload}.json")
        with open(result["trace_file"], "w") as handle:
            json.dump(trace, handle)
    result.update(process=process_config())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
