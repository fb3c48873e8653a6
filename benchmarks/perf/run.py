"""The wall-clock benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py [--seed N] [--workload W] [--seconds S]
                                   [--compare BASE.json] [--trace 0|1]

Without ``--trace`` it runs the selected workloads untraced for ``S``
seconds each — three rounds, interleaved round-robin over the workloads,
every (round, workload) in a fresh subprocess — then one traced run per
workload for the per-layer numbers, prints every metric by name with its
unit, and writes ``out/result.json`` and ``out/trace_<workload>.json``.

With ``--trace 0`` (untraced rounds only) or ``--trace 1`` (traced run
only) and one ``--workload`` it additionally ends its output with the one
JSON line the benchmark driver reads.  See README.md beside this file.

Exits non-zero when any result differs from its NumPy oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    ALSO_REPORTED, END_TO_END, PER_LAYER, WORKLOADS, exact_counts, median,
    percentile,
)

ROUNDS = 3
TRACED_SECONDS = 8.0
#: The driver allows a run 180 s; a worker that takes longer is stuck.
WORKER_TIMEOUT = 170


def program_env(tmp: str) -> dict:
    """The environment the program runs in: as a user gets it by default.

    Every ``REPRO_*`` switch is removed (``benchmarks/conftest.py`` sets
    ``REPRO_RUNNER=threads`` under pytest, a shell may export others);
    temporary files, the spill directory among them, go under ``tmp``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["TMPDIR"] = tmp
    return env


def run_worker(workload: str, args, seconds: float, traced: bool, tmp: str) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--traced", str(int(traced)), "--tmp", tmp,
    ]
    if args.break_oracle:
        command.append("--break-oracle")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=program_env(tmp), text=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        # Also on Ctrl-C or a timeout: the worker's server child watches
        # its stdin and leaves with it.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def round_metrics(r: dict) -> dict:
    """The end-to-end figures of one round (one worker)."""
    ops = len(r["query_s"])
    return {
        "setup_s": median(r["setup_s"]),
        "ops_per_s": ops / r["timed_s"] if ops else 0.0,
        "query_s_p50": median(r["query_s"]),
        "cpu_s_per_op": r["cpu_s"] / ops if ops else 0.0,
        "peak_rss_mb": r["peak_rss_mb"],
    }


def summarize(rounds: list[dict]) -> dict:
    """The best round of a workload, and all rounds beside it.

    The noise of a shared machine is one-sided — a neighbour can slow a
    round down, never speed it up — and comes in phases of seconds to
    minutes, so the best of the interleaved rounds estimates the program
    (as ``timeit`` takes the minimum of its repeats); ``rounds`` keeps
    every round so that ``--compare`` can tell when they disagree.  Peak
    RSS is the worst round, and the p90 pools all samples.
    """
    per_round = {
        name: [round_metrics(r)[name] for r in rounds] for name in END_TO_END
    }
    query_s = [q for r in rounds for q in r["query_s"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "end_to_end": {
            name: (max if name == "peak_rss_mb" or better == "higher" else min)(
                per_round[name]
            )
            for name, (_, better, _) in END_TO_END.items()
        },
        "also": {
            "query_s_p90": percentile(query_s, 0.90),
            "failed_share": failed / attempted if attempted else 1.0,
        },
        "rounds": per_round,
        "query_s": [r["query_s"] for r in rounds],
        "samples": len(query_s),
        "attempted": attempted,
        "failed": failed,
        "failures": [m for r in rounds for m in r["failures"]][:5],
        "config": rounds[0]["config"],
        "process": rounds[0]["process"],
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def print_report(result: dict) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name}")
        if "end_to_end" in entry:
            print(f"   {entry['samples']} timed ops, {entry['attempted']} attempted, "
                  f"{entry['failed']} failed")
            for metric, value in entry["end_to_end"].items():
                print(f"   {metric:<28} {value:>14.6g} {END_TO_END[metric][0]}")
            for metric, value in entry["also"].items():
                print(f"   {metric:<28} {value:>14.6g} {ALSO_REPORTED[metric]}")
        for metric, value in entry.get("per_layer", {}).items():
            unit, _, kind = PER_LAYER[metric]
            note = "" if kind == "measure" else f"  ({kind})"
            print(f"   {metric:<28} {value:>14.6g} {unit}{note}")
        for tally in (entry, entry.get("traced", {})):
            for message in tally.get("failures", []):
                print(f"   FAILED: {message}")


def spread(values: list[float]) -> float:
    """(max - min) / median over the rounds of one run."""
    middle = median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def compare(base: dict, new: dict) -> bool:
    """Print base-vs-new rows; False when a metric got worse beyond its
    bound or an exact count differs."""
    good = True
    print(f"\ncompare: base {base['commit'][:12]} seed {base['seed']}  ->  "
          f"new {new['commit'][:12]} seed {new['seed']}")
    print(f"{'workload':<20}{'metric':<14}{'base':>12}{'new':>12}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for name, entry in new["workloads"].items():
        old = base["workloads"].get(name)
        if old is None or "end_to_end" not in entry or "end_to_end" not in old:
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            b, n = old["end_to_end"][metric], entry["end_to_end"][metric]
            change = n / b if b else float("inf")
            worse = change > 1 + bound if better == "lower" else change < 1 - bound
            noisy = max(spread(old["rounds"][metric]),
                        spread(entry["rounds"][metric])) > bound
            verdict = "worse" if worse else "unresolved" if noisy else "ok"
            good &= not worse
            print(f"{name:<20}{metric:<14}{b:>12.5g}{n:>12.5g}"
                  f"{change:>9.3f}x{bound:>7.2f}  {verdict} (base {b:.5g} {unit})")
    if base["seed"] != new["seed"]:
        print("counts: seeds differ, exact counts not compared")
        return good
    for name, entry in new["workloads"].items():
        old_layers = base["workloads"].get(name, {}).get("per_layer")
        if not old_layers or "per_layer" not in entry:
            continue
        differing = [
            f"{metric}: {old_layers[metric]:g} -> {entry['per_layer'][metric]:g}"
            for metric in exact_counts(name)
            if old_layers[metric] != entry["per_layer"][metric]
        ]
        good &= not differing
        print(f"counts: {name}: " + ("identical" if not differing else "; ".join(differing)))
    return good


def contract_line(entry: dict, traced: bool) -> str:
    """The one JSON object the benchmark driver reads from the last line."""
    tally = entry["traced"] if traced else entry
    if traced:
        metrics = {
            name: {"value": entry["per_layer"][name], "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": entry["end_to_end"][name], "unit": unit}
            for name, (unit, _, _) in END_TO_END.items()
        }
    return json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the inputs and the serve request mix")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds per workload, split over 3 rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced rounds only; 1: traced run only; "
                        "with --workload, end with the driver's JSON line")
    parser.add_argument("--compare", metavar="BASE.json", default=None,
                        help="compare against an earlier out/result.json")
    parser.add_argument("--break-oracle", action="store_true",
                        help="corrupt the oracle (self-test: must exit non-zero)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    base = None
    if args.compare:
        with open(args.compare) as handle:
            base = json.load(handle)
    OUT.mkdir(exist_ok=True)
    result = {
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "machine": platform.platform(),
        "workloads": {name: {} for name in names},
    }
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT) as tmp:
        if args.trace != 1:
            rounds: dict[str, list] = {name: [] for name in names}
            for _ in range(ROUNDS):
                # Round-robin, so a noisy phase of the machine lands on
                # every workload instead of on one.
                for name in names:
                    rounds[name].append(
                        run_worker(name, args, args.seconds / ROUNDS, False, tmp)
                    )
            for name in names:
                result["workloads"][name].update(summarize(rounds[name]))
        if args.trace != 0:
            seconds = args.seconds if args.trace == 1 else min(TRACED_SECONDS, args.seconds)
            for name in names:
                traced = run_worker(name, args, seconds, True, tmp)
                shutil.move(traced["trace_file"], OUT / f"trace_{name}.json")
                entry = result["workloads"][name]
                entry["per_layer"] = traced["layers"]
                entry["traced"] = {
                    key: traced[key] for key in ("attempted", "failed", "failures")
                }
                entry.setdefault("config", traced["config"])
                entry.setdefault("process", traced["process"])
    with open(OUT / "result.json", "w") as handle:
        json.dump(result, handle, indent=1)

    print_report(result)
    failed = sum(
        tally.get("failed", 0)
        for entry in result["workloads"].values()
        for tally in (entry, entry.get("traced", {}))
    )
    status = 1 if failed else 0
    if base is not None and not compare(base, result):
        status = 1
    if args.trace is not None and args.workload:
        print(contract_line(result["workloads"][args.workload], bool(args.trace)))
    elif failed:
        print(f"\n{failed} incorrect or failed ops", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
