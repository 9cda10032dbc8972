"""Command-line interface, exercised in process through main(argv).

stdout/stderr are captured with redirect_stdout/redirect_stderr because the
test suite runs unbuffered (-s), bypassing pytest's own capture.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrvlab
from lrvlab import generate_graph, graph_to_dict
from lrvlab.cli import main

BASE_CONFIG = {
    "experiment": "estimator_consistency",
    "design": {
        "id": "pairs",
        "structure": {"pattern": "pairs"},
        "deltas": {"scheme": "constant", "value": 0.5},
        "estimators": ["cluster"],
    },
    "n_grid": [20],
    "replications": 120,
    "master_seed": 7100,
}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, cfg=BASE_CONFIG, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestRun:
    def test_writes_both_reports_by_default(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "results"
        code, out, err = invoke(["run", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 0 and err == ""
        assert "cells: 1 (0 failed), seed: 7100" in out
        csv_path = out_dir / "report.csv"
        json_path = out_dir / "report.json"
        assert f"wrote {csv_path}" in out
        assert f"wrote {json_path}" in out
        csv_text = csv_path.read_text(encoding="utf-8")
        assert csv_text.startswith(
            "experiment,design_id,n,n_star,M,h,metric,value,se,reps,seed\n"
        )
        obj = json.loads(json_path.read_text(encoding="utf-8"))
        assert obj["master_seed"] == 7100
        assert [c["seed"] for c in obj["cells"]] == [7100]

    def test_format_flag_restricts_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "only-csv"
        code, out, _ = invoke(
            ["run", "--config", str(cfg), "--out", str(out_dir), "--format", "csv"]
        )
        assert code == 0
        assert (out_dir / "report.csv").exists()
        assert not (out_dir / "report.json").exists()
        assert "report.json" not in out

    def test_runs_are_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        texts = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = invoke(
                ["run", "--config", str(cfg), "--out", str(out_dir), "--threads", "2"]
            )
            assert code == 0
            texts.append(
                (
                    (out_dir / "report.csv").read_text(encoding="utf-8"),
                    (out_dir / "report.json").read_text(encoding="utf-8"),
                )
            )
        assert texts[0] == texts[1]

    def test_seed_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)

        monkeypatch.setenv("LRVLAB_SEED", "42")
        code, out, _ = invoke(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "env")]
        )
        assert code == 0 and "seed: 42" in out

        code, out, _ = invoke(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "flag"), "--seed", "9"]
        )
        assert code == 0 and "seed: 9" in out

        monkeypatch.delenv("LRVLAB_SEED")
        code, out, _ = invoke(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "cfgseed")]
        )
        assert code == 0 and "seed: 7100" in out

        env_json = json.loads((tmp_path / "env" / "report.json").read_text("utf-8"))
        flag_json = json.loads((tmp_path / "flag" / "report.json").read_text("utf-8"))
        assert env_json["master_seed"] == 42
        assert flag_json["master_seed"] == 9

    def test_bad_env_seed_fails_cleanly(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("LRVLAB_SEED", "many")
        code, _, err = invoke(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "LRVLAB_SEED" in err and err.startswith("lrvlab:")

    def test_missing_config_fails_cleanly(self, tmp_path):
        code, _, err = invoke(
            ["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
        )
        assert code == 1 and err.startswith("lrvlab:")

    def test_non_object_sweep_entry_fails_cleanly(self, tmp_path):
        path = write_config(tmp_path, {"master_seed": 1, "experiments": [5]})
        code, out, err = invoke(
            ["run", "--config", str(path), "--out", str(tmp_path / "x")]
        )
        assert code == 1 and out == ""
        assert err.startswith("lrvlab:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 1.5),
            ("alpha", 0.0),
            ("epsilon", 0.0),
            ("epsilon", -0.1),
            ("alpha", None),
            ("epsilon", [0.1]),
        ],
    )
    def test_out_of_range_alpha_or_epsilon_fails_cleanly(self, tmp_path, field, value):
        cfg = {
            "experiment": "test_size_power",
            "design": {
                "structure": {"pattern": "singletons"},
                "tests": ["z"],
                "mu": [0.0, 10.0],
            },
            "n_grid": [100],
            "replications": 100,
            "master_seed": 7100,
            field: value,
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "x"
        code, out, err = invoke(["run", "--config", str(path), "--out", str(out_dir)])
        assert code == 1 and out == ""
        assert err.startswith(f"lrvlab: {field}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_failed_cells_are_reported(self, tmp_path):
        cfg = dict(BASE_CONFIG, n_grid=[11, 10])
        path = write_config(tmp_path, cfg)
        code, out, _ = invoke(
            ["run", "--config", str(path), "--out", str(tmp_path / "r")]
        )
        assert code == 0
        assert "cells: 2 (1 failed)" in out
        assert "failed pairs n=11:" in out


class TestSpectral:
    def test_prints_block_spectra_and_summaries(self):
        code, out, err = invoke(["spectral", "--sizes", "3,4", "--deltas", "0.2,-0.1"])
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0].startswith("block 0: size 3, delta 0.2 -> eigenvalues ")
        assert lines[1].startswith("block 1: size 4, delta -0.1 -> eigenvalues ")
        assert "(x1)" in lines[0] and "(x2)" in lines[0]
        assert "(x3)" in lines[1]
        assert lines[2] == f"n: 7  n_star: 7  M: 2  h: {(3 / 7) ** 2 + (4 / 7) ** 2!r}"
        lrv = float(lines[3].removeprefix("long-run variance: "))
        assert lrv == pytest.approx((3 / 7) * 1.4 + (4 / 7) * 0.7, abs=1e-12)
        log_det = float(lines[4].removeprefix("log det: "))
        want = math.log(1.4) + 2 * math.log(0.8) + math.log(0.7) + 3 * math.log(1.1)
        assert log_det == pytest.approx(want, abs=1e-12)

    def test_invalid_model_exits_one(self):
        code, _, err = invoke(["spectral", "--sizes", "4", "--deltas", "1.5"])
        assert code == 1 and err.startswith("lrvlab:")

    def test_unparseable_arguments_exit_one(self):
        code, _, err = invoke(["spectral", "--sizes", "3,x", "--deltas", "0.1,0.1"])
        assert code == 1 and "lrvlab:" in err


class TestStats:
    def test_star_graph_report(self, tmp_path):
        path = tmp_path / "star.json"
        path.write_text(
            json.dumps(graph_to_dict(generate_graph("star", n=5))), encoding="utf-8"
        )
        code, out, err = invoke(["stats", "--graph", str(path)])
        assert code == 0 and err == ""
        assert out == (
            "nodes: 5\n"
            "edges: 4\n"
            "d_max: 4\n"
            "d_avg: 1.6\n"
            "clique_number: 2 (exact)\n"
            f"sparsity_ratio: {16 * 1.6 / 5!r}\n"
        )

    def test_greedy_marker_for_large_graphs(self, tmp_path):
        g = generate_graph("cluster", cs=[5] * 14)  # n = 70 > exact cap
        path = tmp_path / "big.json"
        path.write_text(json.dumps(graph_to_dict(g)), encoding="utf-8")
        code, out, _ = invoke(["stats", "--graph", str(path)])
        assert code == 0
        assert "clique_number: 5 (greedy lower bound)" in out

    def test_missing_graph_file_exits_one(self, tmp_path):
        code, _, err = invoke(["stats", "--graph", str(tmp_path / "none.json")])
        assert code == 1 and err.startswith("lrvlab:")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "edges": [[0, 5]]}',
            '{"n": 3, "edges": [[0]]}',
            '{"n": 3, "edges": [5]}',
            '{"n": 3, "edges": [[0, null]]}',
            '{"n": null, "edges": []}',
        ],
        ids=["out-of-range", "one-endpoint", "bare-int", "null-endpoint", "null-n"],
    )
    def test_malformed_graph_file_exits_one(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = invoke(["stats", "--graph", str(path)])
        assert code == 1 and err.startswith("lrvlab:")


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats is most of a cold import; the package must not pull it in."""
    src = str(Path(lrvlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lrvlab.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
