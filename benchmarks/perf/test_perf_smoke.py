"""Smoke test of the wall-clock benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs every workload at ``--seconds 1.5``: about three minutes.  It checks
the harness — names, oracles, counters, determinism, exit codes — never a
speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    ALSO_REPORTED, END_TO_END, GATED, PER_LAYER, SPILL_COUNTERS, WHY, WORKLOADS,
    exact_counts,
)

SECONDS = "1.5"


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result_json():
    return json.loads((HERE / "out" / "result.json").read_text())


@pytest.fixture(scope="module")
def full():
    """Every workload, untraced rounds plus the traced run, seed 7."""
    proc = run("--seconds", SECONDS, "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, result_json()


@pytest.fixture(scope="module")
def retraced(full, tmp_path_factory):
    """The traced runs again with the same seed, compared to ``full``."""
    base = tmp_path_factory.mktemp("base") / "result.json"
    base.write_text(json.dumps(full[1]))
    proc = run("--seconds", SECONDS, "--seed", "7", "--trace", "1",
               "--compare", str(base))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, result_json()


def test_every_metric_is_reported_by_name(full):
    stdout, result = full
    assert list(result["workloads"]) == list(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert set(entry["end_to_end"]) == set(END_TO_END), name
        assert set(entry["per_layer"]) == set(PER_LAYER), name
        assert all(value > 0 for value in entry["end_to_end"].values()), name
        assert (HERE / "out" / f"trace_{name}.json").exists()
    for metric in (*END_TO_END, *ALSO_REPORTED, *PER_LAYER):
        assert metric in stdout


def test_no_op_fails_its_oracle(full):
    for name, entry in full[1]["workloads"].items():
        assert entry["also"]["failed_share"] == 0 and entry["attempted"] > 0, name
        assert entry["traced"]["failed"] == 0, name
        assert entry["per_layer"]["serve.errors"] == 0, name


def test_program_runs_on_its_defaults(full):
    """pytest loads benchmarks/conftest.py, which exports
    REPRO_RUNNER=threads on a multi-core host: the workers must not see it."""
    for name, entry in full[1]["workloads"].items():
        assert entry["process"]["repro_env"] == [], name
        assert entry["config"]["runner"] == "SerialTaskRunner", name
    config = full[1]["workloads"]["spmv_coordinate"]["config"]
    assert config["plan_rule"] == "coordinate"


def test_each_workload_stresses_its_layer(full):
    layers = {n: e["per_layer"] for n, e in full[1]["workloads"].items()}
    for name, values in layers.items():
        spilled = [values[counter] for counter in SPILL_COUNTERS]
        if name == "multiply_spill":
            assert all(v > 0 for v in spilled)
            assert values["engine.spilled_bytes"] > 5 * 16 * 2 ** 20
        else:
            assert not any(spilled), name
            assert values["engine.restore_stall_s"] == 0
    assert layers["smooth_small_tiles"]["engine.shuffles"] == 0
    assert layers["spmv_coordinate"]["engine.shuffle_records"] > 50_000
    dense = layers["multiply_dense"]
    assert dense["core.compile_warm_s"] < 0.01 * dense["engine.job_s"]
    serve = layers["serve_mixed"]
    assert serve["core.compile_cold_s"] > 0.1 * serve["serve.cold_request_s_p50"]
    assert serve["core.plan_cache_evictions"] > 0
    for name in WORKLOADS[:4]:
        assert layers[name]["trace.coverage"] >= 0.95, name


def test_counts_repeat_for_one_seed(full, retraced):
    stdout, again = retraced
    for name in WORKLOADS:
        assert f"counts: {name}: identical" in stdout
        for metric in exact_counts(name):
            assert (again["workloads"][name]["per_layer"][metric]
                    == full[1]["workloads"][name]["per_layer"][metric]), (name, metric)


def test_another_seed_changes_the_inputs(full):
    proc = run("--seconds", SECONDS, "--seed", "8", "--trace", "1",
               "--workload", "spmv_coordinate")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(PER_LAYER)
    records = line["metrics"]["engine.shuffle_records"]["value"]
    assert records != full[1]["workloads"]["spmv_coordinate"]["per_layer"][
        "engine.shuffle_records"]


def test_wrong_oracle_exits_non_zero():
    proc = run("--seconds", SECONDS, "--workload", "smooth_small_tiles",
               "--trace", "0", "--break-oracle")
    assert proc.returncode != 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"]
    assert set(line["metrics"]) == set(END_TO_END)


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "smooth_small_tiles", "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "perf" / "run.py")
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert all(w["why"] == WHY[w["name"]] and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}
