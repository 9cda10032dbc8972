"""Command-line interface, exercised in process through main(argv).

stdout/stderr are captured with redirect_stdout/redirect_stderr because the
test suite runs unbuffered (-s), bypassing pytest's own capture.
"""

import contextlib
import decimal
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrvlab
from lrvlab import cli, generate_graph, graph_to_dict
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

    def test_misspelled_key_fails_cleanly(self, tmp_path):
        cfg = dict(BASE_CONFIG, design=dict(BASE_CONFIG["design"], estimator=["cluster"]))
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "x"
        code, out, err = invoke(["run", "--config", str(path), "--out", str(out_dir)])
        assert code == 1 and out == ""
        assert err.startswith("lrvlab: unknown design key 'estimator' ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_non_string_design_id_fails_cleanly(self, tmp_path):
        cfg = dict(BASE_CONFIG, design=dict(BASE_CONFIG["design"], id={"a": [1, 2]}))
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "x"
        code, out, err = invoke(["run", "--config", str(path), "--out", str(out_dir)])
        assert (code, out) == (1, "")
        assert err == "lrvlab: design id must be a string, got {'a': [1, 2]}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"n_grid": [20]', '"alpha": 0.1, "n_grid": [20], "alpha": 0.4', "alpha"),
            ('{"pattern": "pairs"}', '{"pattern": "pairs", "pattern": "single"}', "pattern"),
        ],
        ids=["top-level", "in-structure"],
    )
    def test_repeated_key_fails_cleanly(self, tmp_path, old, new, key):
        # json.load keeps the last value of a repeated key, so the run would
        # go ahead on one of two values without a word
        text = json.dumps(BASE_CONFIG)
        assert text.count(old) == 1
        path = tmp_path / "cfg.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        out_dir = tmp_path / "x"
        code, out, err = invoke(["run", "--config", str(path), "--out", str(out_dir)])
        assert (code, out, err) == (1, "", f"lrvlab: repeated JSON key {key!r}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 1.5),
            ("alpha", 0.0),
            ("epsilon", 0.0),
            ("epsilon", -0.1),
            ("alpha", None),
            ("epsilon", [0.1]),
            # json.dumps writes the Infinity token, which Python's JSON reader
            # accepts
            ("epsilon", math.inf),
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

    def test_log_det_of_a_large_block_does_not_underflow(self):
        # 0.001^99999 underflows to 0, so the log det is summed as logs
        code, out, err = invoke(["spectral", "--sizes", "100000", "--deltas", "0.999"])
        assert code == 0 and err == ""
        log_det = float(out.strip().split("\n")[-1].removeprefix("log det: "))
        want = math.log(99900.001) + 99999 * math.log(1.0 - 0.999)
        assert log_det == pytest.approx(want, rel=1e-12)

    def test_log_det_at_a_local_alternative_keeps_its_digits(self):
        # n delta = 0.1: log(1 + (n-1) delta) + (n-1) log(1 - delta) cancels
        # when taken with log, which lost 6e-7 of the value here
        code, out, err = invoke(["spectral", "--sizes", "100000000", "--deltas", "1e-9"])
        assert code == 0 and err == ""
        log_det = float(out.strip().split("\n")[-1].removeprefix("log det: "))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            k, d = decimal.Decimal(10**8), decimal.Decimal(1e-9)  # the double the CLI reads
            want = (1 + (k - 1) * d).ln() + (k - 1) * (1 - d).ln()
        assert abs(log_det - float(want)) <= 1e-12 * abs(float(want))

    def test_invalid_model_exits_one(self):
        code, _, err = invoke(["spectral", "--sizes", "4", "--deltas", "1.5"])
        assert code == 1 and err.startswith("lrvlab:")

    def test_unparseable_arguments_exit_one(self):
        code, _, err = invoke(["spectral", "--sizes", "3,x", "--deltas", "0.1,0.1"])
        assert code == 1 and "lrvlab:" in err

    def test_sizes_beyond_the_index_range_exit_one(self):
        code, out, err = invoke(["spectral", "--sizes", str(10**30), "--deltas", "0"])
        assert (code, out) == (1, "")
        assert err.startswith("lrvlab: structure n (the sum of the cluster sizes) must be at most ")
        assert err.count("\n") == 1


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

    def test_repeated_key_in_graph_file_exits_one(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 3, "n": 4, "edges": [[0, 3]]}', encoding="utf-8")
        code, out, err = invoke(["stats", "--graph", str(path)])
        assert (code, out, err) == (1, "", "lrvlab: repeated JSON key 'n'\n")

    def test_node_count_beyond_the_index_range_exits_one(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(f'{{"n": {10**30}, "edges": []}}', encoding="utf-8")
        code, out, err = invoke(["stats", "--graph", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("lrvlab: graph n must be at most ") and err.count("\n") == 1

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
            '{"n": 3, "edges": 5}',
            '{"n": true, "edges": []}',
            '{"n": 3, "edges": [[true, 2]]}',
            '{"n": 3, "edges": [[0, 9223372036854775808]]}',
        ],
        ids=[
            "out-of-range", "one-endpoint", "bare-int", "null-endpoint", "null-n", "int-edges",
            "bool-n", "bool-endpoint", "beyond-int64",
        ],
    )
    def test_malformed_graph_file_exits_one(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = invoke(["stats", "--graph", str(path)])
        assert code == 1 and err.startswith("lrvlab:")


DEPTH = 10**5


@pytest.mark.parametrize(
    "text",
    ["[" * DEPTH + "]" * DEPTH, '{"a": ' * DEPTH + "1" + "}" * DEPTH],
    ids=["array", "object"],
)
@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "{path}", "--out", "{out}"], ["stats", "--graph", "{path}"]],
    ids=["run", "stats"],
)
def test_deeply_nested_json_file_exits_one(tmp_path, text, argv):
    # the JSON parser runs out of recursion depth on this file
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "x"
    code, out, err = invoke([a.format(path=path, out=out_dir) for a in argv])
    assert (code, out) == (1, "")
    assert err == f"lrvlab: {path}: JSON nested too deeply\n"
    assert not out_dir.exists()


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has `module` loaded after `import lrvlab.cli`."""
    src = str(Path(lrvlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, lrvlab.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert loaded in ("True", "False"), loaded
    return loaded == "True"


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats is most of a cold import; the package must not pull it in."""
    assert not _loaded_by_cli_import("scipy.stats")


def test_cli_import_leaves_scipy_sparse_unloaded():
    """The graph estimator is an edge sum and builds no sparse matrix."""
    assert not _loaded_by_cli_import("scipy.sparse")


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only: importing it was most of a cold
    start, so the package must load no scipy module at all."""
    assert not _loaded_by_cli_import("scipy")


def test_main_builds_its_parser_once_per_process():
    cli._build_parser.cache_clear()
    for _ in range(2):
        code, out, _ = invoke(["spectral", "--sizes", "2", "--deltas", "0.3"])
        assert code == 0 and out.startswith("block 0: size 2")
    assert cli._build_parser.cache_info().misses == 1
