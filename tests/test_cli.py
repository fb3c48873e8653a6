"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "matrix.npy"
    np.save(path, np.arange(12, dtype=float).reshape(3, 4))
    return str(path)


@pytest.fixture()
def vector_file(tmp_path):
    path = tmp_path / "vector.npy"
    np.save(path, np.array([3.0, 1.0, 2.0]))
    return str(path)


def test_cli_runs_query_and_saves(data_file, tmp_path, capsys):
    out = str(tmp_path / "out.npy")
    code = main([
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        "--bind", f"A={data_file}",
        "--define", "n=3",
        "--tile-size", "2",
        "--output", out,
    ])
    assert code == 0
    result = np.load(out)
    np.testing.assert_allclose(result, [6.0, 22.0, 38.0])
    assert "saved result" in capsys.readouterr().out


def test_cli_prints_result_without_output(data_file, capsys):
    code = main([
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]",
        "--bind", f"A={data_file}",
        "--define", "n=3", "--define", "m=4",
        "--tile-size", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "TiledMatrix" in out and "(4, 3)" in out


def test_cli_explain(data_file, capsys):
    code = main([
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]",
        "--bind", f"A={data_file}",
        "--define", "n=3", "--define", "m=4",
        "--explain",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rule: preserve-tiling" in out


def test_cli_explain_json(data_file, capsys):
    import json

    code = main([
        "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]",
        "--bind", f"A={data_file}",
        "--define", "n=3", "--define", "m=4",
        "--explain", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rule"] == "preserve-tiling"
    assert payload["physical"]["op"] == "Assemble"
    assert "pseudocode" not in payload
    assert payload["program"][-1] == "Assemble[tiled]: tiled(4, 3) from the tiles"
    pass_names = [entry["name"] for entry in payload["passes"]]
    assert pass_names == [
        "normalize-bridge", "tiling-resolution", "strategy-selection", "cse",
    ]


def test_cli_json_requires_explain(data_file):
    with pytest.raises(SystemExit, match="--json requires --explain"):
        main([
            "tiled(m,n)[ ((j,i),v) | ((i,j),v) <- A ]",
            "--bind", f"A={data_file}",
            "--define", "n=3", "--define", "m=4",
            "--json",
        ])


def test_cli_scalar_result(vector_file, capsys):
    code = main([
        "+/[ v | (i,v) <- V ]",
        "--bind", f"V={vector_file}",
    ])
    assert code == 0
    assert "6.0" in capsys.readouterr().out


def test_cli_sparse_binding(tmp_path, capsys):
    a = np.zeros((8, 8))
    a[0, 0] = 5.0
    path = tmp_path / "sparse.npy"
    np.save(path, a)
    code = main([
        "+/[ v | ((i,j),v) <- A ]",
        "--sparse", f"A={path}",
        "--tile-size", "4",
    ])
    assert code == 0
    assert "5.0" in capsys.readouterr().out


def test_cli_metrics_flag(vector_file, capsys):
    main([
        "+/[ v | (i,v) <- V ]",
        "--bind", f"V={vector_file}",
        "--metrics",
    ])
    out = capsys.readouterr().out
    assert "simulated cluster time" in out
    assert "critical path" in out
    assert "straggler ratio" in out


def test_cli_metrics_json(data_file, capsys):
    import json

    code = main([
        "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
        "--bind", f"A={data_file}",
        "--define", "n=3",
        "--tile-size", "2",
        "--metrics", "--json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["tasks"] > 0
    assert payload["task_retries"] == 0
    assert payload["straggler_ratio"] >= 1.0
    assert payload["critical_path_seconds"] > 0.0
    assert len(payload["stage_histograms"]) == payload["stages"]
    for hist in payload["stage_histograms"]:
        assert hist["p50_seconds"] <= hist["p95_seconds"] <= hist["max_seconds"]


def test_cli_pipeline_flag_matches_staged(
    data_file, tmp_path, capsys, monkeypatch
):
    """``--pipeline`` is the threaded runner: same result and counters as
    the default serial walk, and ``pipeline`` reports which one ran."""
    import json

    monkeypatch.delenv("REPRO_RUNNER", raising=False)
    query = "tiled_vector(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]"
    args = [
        query,
        "--bind", f"A={data_file}",
        "--define", "n=3",
        "--tile-size", "2",
        "--metrics", "--json",
    ]
    base_out = str(tmp_path / "staged.npy")
    assert main(args + ["--output", base_out]) == 0
    staged = json.loads(_json_tail(capsys.readouterr().out))
    pipe_out = str(tmp_path / "pipelined.npy")
    assert main(args + ["--output", pipe_out, "--pipeline"]) == 0
    pipelined = json.loads(_json_tail(capsys.readouterr().out))
    np.testing.assert_array_equal(np.load(base_out), np.load(pipe_out))
    assert staged["pipeline"] is False
    assert pipelined["pipeline"] is True
    for key in ("stages", "tasks", "shuffles", "shuffle_records",
                "shuffle_bytes"):
        assert staged[key] == pipelined[key], key


def _json_tail(out: str) -> str:
    return out[out.index("{"):]


def test_cli_rejects_bad_binding(vector_file):
    with pytest.raises(SystemExit):
        main(["1 + 1", "--bind", "novalue"])


def test_cli_rejects_3d_array(tmp_path):
    path = tmp_path / "cube.npy"
    np.save(path, np.zeros((2, 2, 2)))
    with pytest.raises(SystemExit):
        main(["1 + 1", "--bind", f"A={path}"])


def test_cli_loops_mode(data_file, capsys):
    code = main([
        """
        var V: tiled_vector(n)
        for i = 0, n-1 do
          for j = 0, m-1 do
            V[i] += A[i, j]
          end
        end
        """,
        "--loops",
        "--bind", f"A={data_file}",
        "--define", "n=3", "--define", "m=4",
        "--tile-size", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "V: shape (3,)" in out


def test_cli_loops_explain(data_file, capsys):
    code = main([
        """
        var V: tiled_vector(n)
        for i = 0, n-1 do
          for j = 0, m-1 do
            V[i] += A[i, j]
          end
        end
        """,
        "--loops", "--explain",
        "--bind", f"A={data_file}",
        "--define", "n=3", "--define", "m=4",
        "--tile-size", "2",
    ])
    assert code == 0
    assert "tiled-reduce" in capsys.readouterr().out


def test_cli_npz_archive_binds_members(tmp_path, capsys):
    path = tmp_path / "data.npz"
    np.savez(path, m=np.ones((4, 4)), v=np.arange(4.0))
    code = main([
        "+/[ x | ((i,j),x) <- D_m ]",
        "--bind", f"D={path}",
        "--tile-size", "2",
    ])
    assert code == 0
    assert "16.0" in capsys.readouterr().out
    code = main([
        "+/[ x | (i,x) <- D_v ]",
        "--bind", f"D={path}",
        "--tile-size", "2",
    ])
    assert code == 0
    assert "6.0" in capsys.readouterr().out


@pytest.mark.parametrize("size", ["foo", "inf", "-1M"])
def test_cli_malformed_memory_limit_is_a_usage_error(size, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["1 + 1", f"--memory-limit={size}"])
    assert exit_info.value.code == 2
    assert "--memory-limit" in capsys.readouterr().err
