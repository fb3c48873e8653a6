"""Command-line interface: run SAC queries against NumPy data files.

Examples::

    # Row sums of a matrix stored in an .npy file
    python -m repro "tiled_vector(n)[ (i,+/m) | ((i,j),m) <- A, group by i ]" \
        --bind A=ratings.npy --define n=1000 --output sums.npy

    # Show the compilation report without running
    python -m repro "tiled(n,m)[ ((j,i),v) | ((i,j),v) <- A ]" \
        --bind A=data.npy --define n=500 --define m=400 --explain

Bindings: ``--bind NAME=file.npy`` loads an array and distributes it as
a tiled matrix/vector (``--sparse NAME=...`` uses CSC tiles);
``--define NAME=value`` binds an int/float scalar.  ``.npz`` archives
bind every member by its archive name prefixed with ``NAME_``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

import numpy as np

from .core.session import SacSession
from .engine.substrate import parse_memory_limit
from .storage import TiledMatrix, TiledVector
from .storage.sparse_tiled import SparseTiledMatrix


def _parse_scalar(text: str) -> Any:
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    if text in ("true", "false"):
        return text == "true"
    raise argparse.ArgumentTypeError(f"cannot parse scalar {text!r}")


def _split_binding(binding: str) -> tuple[str, str]:
    name, _, value = binding.partition("=")
    if not name or not value:
        raise SystemExit(f"bindings look like NAME=value, got {binding!r}")
    return name, value


def _distribute(session: SacSession, array: np.ndarray, path: str, sparse: bool):
    if array.ndim == 1:
        return session.tiled_vector(array)
    if array.ndim == 2:
        if sparse:
            return session.sparse_tiled(array)
        return session.tiled(array)
    raise SystemExit(f"{path}: only 1-D and 2-D arrays are supported")


def _bind_file(
    session: SacSession, env: dict, name: str, path: str, sparse: bool
) -> None:
    """Bind one ``.npy`` array, or every member of an ``.npz`` archive
    (each as ``NAME_member``)."""
    loaded = np.load(path)
    if isinstance(loaded, np.lib.npyio.NpzFile):
        for member in loaded.files:
            env[f"{name}_{member}"] = _distribute(
                session, loaded[member], path, sparse
            )
    else:
        env[name] = _distribute(session, loaded, path, sparse)


def _save_result(result: Any, path: str) -> None:
    if isinstance(result, (TiledMatrix, TiledVector, SparseTiledMatrix)):
        np.save(path, result.to_numpy())
    elif hasattr(result, "to_numpy"):
        np.save(path, result.to_numpy())
    elif isinstance(result, list):
        np.save(path, np.array(result, dtype=object), allow_pickle=True)
    else:
        np.save(path, np.asarray(result))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compile and run a SAC array comprehension.",
    )
    parser.add_argument(
        "query",
        help="the comprehension to run (or a loop program with --loops)",
    )
    parser.add_argument(
        "--loops", action="store_true",
        help="treat the input as a DIABLO-style loop program; runs every "
             "statement and prints/saves each assigned target",
    )
    parser.add_argument(
        "--bind", action="append", default=[], metavar="NAME=FILE",
        help="bind NAME to a .npy array, distributed as a tiled array",
    )
    parser.add_argument(
        "--sparse", action="append", default=[], metavar="NAME=FILE",
        help="like --bind but stored as CSC tiles (zero tiles dropped)",
    )
    parser.add_argument(
        "--define", action="append", default=[], metavar="NAME=VALUE",
        help="bind NAME to a scalar",
    )
    parser.add_argument(
        "--tile-size", type=int, default=100, help="block side length N"
    )
    parser.add_argument(
        "--pipeline", action="store_true",
        help="run on the threaded runner (tasks fire as their inputs "
             "land instead of one at a time)",
    )
    parser.add_argument(
        "--memory-limit", metavar="BYTES", type=parse_memory_limit,
        help="cap resident block bytes (accepts 64M/2G-style suffixes); "
             "evicted partitions spill to disk (REPRO_SPILL_DIR or a "
             "temp directory) and restore transparently",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the compilation report instead of executing",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --explain: emit the plan (rule, strategy, pass trace, "
             "logical and physical IR) as JSON instead of the text report",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="save the result to a .npy file (default: print a summary)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print engine metrics after execution (counter summary, "
             "per-stage task-time histograms, straggler ratio, critical "
             "path; with --json, emitted as one JSON object)",
    )
    return parser


def _metrics_report(session: SacSession, as_json: bool) -> None:
    """Execution metrics: counters plus task-level timing statistics."""
    total = session.engine.metrics.total
    if as_json:
        import json

        print(json.dumps({
            "stages": total.stages,
            "tasks": total.tasks,
            "shuffles": total.shuffles,
            "shuffle_records": total.shuffle_records,
            "shuffle_bytes": total.shuffle_bytes,
            "task_retries": total.task_retries,
            "compute_seconds": total.compute_seconds,
            "simulated_seconds": session.simulated_time(),
            "critical_path_seconds": total.critical_path_seconds(),
            "straggler_ratio": total.straggler_ratio(),
            "stage_histograms": total.stage_histograms(),
            "pipeline": session.engine.pipeline,
            "spilled_bytes": total.spilled_bytes,
            "restored_bytes": total.restored_bytes,
            "spill_restores": total.spill_restores,
            "spill_hit_rate": total.spill_hit_rate(),
            "prefetch_hits": total.prefetch_hits,
            "restore_stall_seconds": total.restore_stall_seconds,
            "kernel_cache_hits": total.kernel_cache_hits,
            "kernel_cache_misses": total.kernel_cache_misses,
            "kernel_batch_inputs": total.kernel_batch_inputs,
            "kernel_record_inputs": total.kernel_record_inputs,
        }, indent=2))
        return
    print(total.summary())
    if total.kernel_cache_hits or total.kernel_cache_misses:
        print(
            f"fused kernels: {total.kernel_cache_misses} compiled, "
            f"{total.kernel_cache_hits} cache hits; input partitions: "
            f"{total.kernel_batch_inputs} batches, "
            f"{total.kernel_record_inputs} record lists"
        )
    if session.engine.block_manager.spill_enabled:
        print(
            f"spill tier: {total.spilled_bytes} bytes spilled, "
            f"{total.restored_bytes} restored "
            f"({total.spill_restores} restores, hit rate "
            f"{total.spill_hit_rate():.2f}), {total.prefetch_hits} prefetch "
            f"hits, {total.restore_stall_seconds:.4f}s restore stall"
        )
    print(f"simulated cluster time: {session.simulated_time():.4f}s")
    print(
        f"task scheduling: critical path "
        f"{total.critical_path_seconds():.4f}s, straggler ratio "
        f"{total.straggler_ratio():.2f}, {total.task_retries} retries"
        f"{' (pipelined)' if session.engine.pipeline else ''}"
    )
    for index, hist in enumerate(total.stage_histograms()):
        print(
            f"  stage {index}: {hist['num_tasks']} tasks, "
            f"p50 {hist['p50_seconds']:.4f}s, p95 {hist['p95_seconds']:.4f}s, "
            f"max {hist['max_seconds']:.4f}s"
        )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # ``repro serve``: the multi-tenant query front door.  Dispatch
        # before the query parser, which would otherwise eat "serve" as
        # the query string.
        from .serve import serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    session = SacSession(
        tile_size=args.tile_size,
        runner="threads" if args.pipeline else None,
        memory_limit=args.memory_limit,
    )

    env: dict[str, Any] = {}
    for binding in args.bind:
        name, path = _split_binding(binding)
        _bind_file(session, env, name, path, sparse=False)
    for binding in args.sparse:
        name, path = _split_binding(binding)
        _bind_file(session, env, name, path, sparse=True)
    for binding in args.define:
        name, value = _split_binding(binding)
        env[name] = _parse_scalar(value)

    if args.loops:
        return _run_loops(session, args, env)

    if args.explain:
        if args.json:
            import json

            compiled = session.compile(args.query, env)
            print(json.dumps(compiled.plan.to_dict(), indent=2))
        else:
            print(session.explain(args.query, env))
        return 0

    if args.json and not args.metrics:
        raise SystemExit("--json requires --explain or --metrics")

    result = session.run(args.query, env)

    if args.output:
        _save_result(result, args.output)
        print(f"saved result to {args.output}")
    else:
        if hasattr(result, "to_numpy"):
            materialized = result.to_numpy()
            print(f"result: {type(result).__name__} shape "
                  f"{getattr(materialized, 'shape', '?')}")
            print(materialized)
        else:
            print(f"result: {result!r}")

    if args.metrics:
        _metrics_report(session, args.json)
    return 0


def _run_loops(session: SacSession, args, env: dict[str, Any]) -> int:
    """Translate and execute a loop program (``--loops``)."""
    from .diablo import translate

    program = args.query
    statements = translate(program)
    if args.explain:
        if args.json:
            import json

            plans = {
                statement.target: session.compile(
                    statement.source, env
                ).plan.to_dict()
                for statement in statements
            }
            print(json.dumps(plans, indent=2))
        else:
            for statement in statements:
                print(f"-- {statement.target}")
                print(session.explain(statement.source, env))
                print()
        return 0
    for statement in statements:
        env[statement.target] = session.run(statement.source, env)
        result = env[statement.target]
        if hasattr(result, "to_numpy"):
            print(f"{statement.target}: shape {result.to_numpy().shape}")
        else:
            print(f"{statement.target}: {result!r}")
        if args.output:
            _save_result(result, f"{statement.target}_{args.output}")
    if args.metrics:
        _metrics_report(session, args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
