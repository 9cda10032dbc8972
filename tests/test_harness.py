"""Experiment harness: config parsing, cell evaluation, and reports.

Determinism contracts get the most attention here: reports must be
byte-identical across worker counts and across Monte Carlo chunk sizes,
because the per-replication streams and the fixed aggregation order are what
make sweep results reproducible.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from lrvlab import InvalidInputError, block_model, build_structure, lr_diagnostics
from lrvlab import harness, sampler
from lrvlab.harness import (
    config_hash,
    load_config,
    report_to_dict,
    run_sweep,
    summarize,
)
from lrvlab.inference_tests import sign_test_stat_rows, z_test_stat_rows

CSV_HEADER = "experiment,design_id,n,n_star,M,h,metric,value,se,reps,seed"


def pairs_config(**overrides):
    cfg = {
        "experiment": "estimator_consistency",
        "design": {
            "id": "pairs",
            "structure": {"pattern": "pairs"},
            "deltas": {"scheme": "constant", "value": 0.5},
            "estimators": ["cluster", "sample_variance"],
        },
        "n_grid": [100],
        "replications": 300,
        "master_seed": 6001,
    }
    cfg.update(overrides)
    return cfg


def run_from(cfg, threads=1):
    seed, entries = load_config(cfg)
    return run_sweep(entries, seed, threads=threads)


class TestLoadConfig:
    def test_single_experiment_defaults(self):
        seed, entries = load_config(pairs_config())
        assert seed == 6001
        (entry,) = entries
        assert entry.experiment == "estimator_consistency"
        assert entry.n_grid == (100,)
        assert entry.alpha == 0.05
        assert entry.epsilon == 0.1
        assert entry.design["id"] == "pairs"

    def test_design_id_defaults_to_kind_and_position(self):
        cfg = pairs_config()
        del cfg["design"]["id"]
        _, entries = load_config(cfg)
        assert entries[0].design["id"] == "estimator_consistency-0"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(pairs_config()), encoding="utf-8")
        assert load_config(path) == load_config(pairs_config())

    def test_sweep_form(self):
        entry = pairs_config()
        del entry["master_seed"]
        seed, entries = load_config(
            {"master_seed": 99, "experiments": [entry, entry]}
        )
        assert seed == 99
        assert len(entries) == 2

    def test_single_object_is_a_one_entry_sweep(self):
        entry = pairs_config()
        del entry["master_seed"]
        single = load_config(pairs_config())
        sweep = load_config({"master_seed": 6001, "experiments": [entry]})
        assert single == sweep
        assert config_hash(*single) == config_hash(*sweep)

    def test_sweep_entry_must_not_carry_seed(self):
        with pytest.raises(InvalidInputError):
            load_config({"master_seed": 1, "experiments": [pairs_config()]})

    def test_missing_master_seed(self):
        cfg = pairs_config()
        del cfg["master_seed"]
        with pytest.raises(InvalidInputError):
            load_config(cfg)
        with pytest.raises(InvalidInputError):
            load_config({"experiments": [cfg]})

    def test_rejects_bad_entries(self):
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(experiment="bootstrap"))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(n_grid=[]))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(n_grid=[0]))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(n_grid=[10.5]))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(replications=99))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(master_seed=True))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(design={"no_structure": 1}))


class TestCellEvaluation:
    def test_estimator_cell_metrics_and_truth_wiring(self):
        report = run_from(pairs_config())
        (cell,) = report.cells
        assert cell.error is None
        assert (cell.n, cell.n_star, cell.M) == (100, 100, 50)
        assert cell.h == pytest.approx(50 * (2 / 100) ** 2)
        names = [m.metric for m in cell.metrics]
        assert names == [
            "cluster_mean",
            "cluster_bias",
            "cluster_rmse",
            "sample_variance_mean",
            "sample_variance_bias",
            "sample_variance_rmse",
        ]
        by_name = {m.metric: m for m in cell.metrics}
        # sigma_LR^2 = 1 + delta = 1.5 for pairs; the bias metric is centered
        # on that truth, so a small |bias|/se says the wiring is right.
        assert abs(by_name["cluster_bias"].value) < 5 * by_name["cluster_bias"].se
        mean = by_name["cluster_mean"]
        assert mean.value == pytest.approx(
            by_name["cluster_bias"].value + 1.5, abs=1e-12
        )
        assert mean.se > 0
        # the sample variance targets 1, far below 1.5: bias should be gross
        sv_bias = by_name["sample_variance_bias"]
        assert sv_bias.value < -0.3

    def test_contiguity_cell(self):
        cfg = {
            "experiment": "contiguity",
            "design": {
                "id": "local",
                "structure": {"pattern": "single"},
                "deltas": {"scheme": "delta-over-n", "value": 0.4},
            },
            "n_grid": [40],
            "replications": 1000,
            "epsilon": 0.1,
            "master_seed": 6002,
        }
        report = run_from(cfg)
        (cell,) = report.cells
        assert cell.error is None
        names = [m.metric for m in cell.metrics]
        assert names == ["mean_lr", "moment_1pe", "ks"]
        by_name = {m.metric: m for m in cell.metrics}
        assert abs(by_name["mean_lr"].value - 1.0) < 6 * by_name["mean_lr"].se

    def test_contiguity_without_limit_law_omits_ks(self):
        cfg = {
            "experiment": "contiguity",
            "design": {
                "id": "two-blocks",
                "structure": {"pattern": "equal", "clusters": 2},
                "deltas": {"scheme": "constant", "value": 0.01},
            },
            "n_grid": [40],
            "replications": 1000,
            "master_seed": 6003,
        }
        (cell,) = run_from(cfg).cells
        assert cell.error is None
        assert [m.metric for m in cell.metrics] == ["mean_lr", "moment_1pe"]

    def test_test_cell_metric_grid(self):
        cfg = {
            "experiment": "test_size_power",
            "design": {
                "id": "iid",
                "structure": {"pattern": "singletons"},
                "tests": ["sign", "z"],
                "z_bound": "oracle",
                "mu": [0, {"drift": 5.0}],
            },
            "n_grid": [50],
            "replications": 400,
            "master_seed": 6004,
        }
        (cell,) = run_from(cfg).cells
        assert cell.error is None
        names = [m.metric for m in cell.metrics]
        assert names == [
            "sign_reject[mu=0.0]",
            "sign_reject[mu=drift5.0]",
            "z_reject[mu=0.0]",
            "z_reject[mu=drift5.0]",
        ]
        by_name = {m.metric: m for m in cell.metrics}
        null_rate = by_name["z_reject[mu=0.0]"]
        assert abs(null_rate.value - 0.05) < 5 * null_rate.se
        # drift 5 puts the z statistic at mean 5: essentially always rejects
        assert by_name["z_reject[mu=drift5.0]"].value > 0.95
        # each replication's rejection is counted once: every rate equals a
        # direct count over the cell's class draw (cell seed 6004, sigma^2 = 1)
        model = block_model(build_structure([1] * 50), [0.0] * 50)
        a, q, t, u = sampler.class_stat_rows(model, 6004, range(400))
        mass = model.class_counts * model.class_sizes
        for label, mu_bar in (("0.0", 0.0), ("drift5.0", 5.0 / math.sqrt(50))):
            for name, kernel in (("sign", sign_test_stat_rows), ("z", z_test_stat_rows)):
                p = kernel(a + mass * mu_bar, q, t, model, 0.05, 1.0)[-1]
                assert by_name[f"{name}_reject[mu={label}]"].value == np.count_nonzero(p > u) / 400

    def test_explicit_z_bound_is_used(self):
        base = {
            "experiment": "test_size_power",
            "design": {
                "structure": {"pattern": "singletons"},
                "tests": ["z"],
                "z_bound": "oracle",
                "mu": [{"drift": 2.0}],
            },
            "n_grid": [50],
            "replications": 400,
            "master_seed": 6005,
        }
        slack = json.loads(json.dumps(base))
        slack["design"]["z_bound"] = 25.0
        tight = run_from(base).cells[0].metrics[0].value
        loose = run_from(slack).cells[0].metrics[0].value
        # inflating the variance bound by 25x kills the rejection rate
        assert loose < tight - 0.3

    def test_graph_cell_metrics(self):
        cfg = {
            "experiment": "graph_estimation",
            "design": {
                "id": "blocks",
                "structure": {"pattern": "equal", "clusters": 6},
                "deltas": {"scheme": "constant", "value": 0.3},
                "graphs": [
                    {"id": "well", "kind": "cluster"},
                    {"id": "miss", "kind": "empty"},
                ],
            },
            "n_grid": [24],
            "replications": 200,
            "master_seed": 6006,
        }
        (cell,) = run_from(cfg).cells
        assert cell.error is None
        names = [m.metric for m in cell.metrics]
        assert names == [
            "graph[well]_mean",
            "graph[well]_bias",
            "graph[well]_rmse",
            "graph[miss]_mean",
            "graph[miss]_bias",
            "graph[miss]_rmse",
        ]

    def test_cell_seeds_follow_config_order(self):
        entry = pairs_config(n_grid=[4, 8], replications=100)
        del entry["master_seed"]
        entry["design"] = {"structure": {"pattern": "pairs"}}
        seed, entries = load_config(
            {"master_seed": 500, "experiments": [entry, entry]}
        )
        report = run_sweep(entries, seed)
        assert [c.seed for c in report.cells] == [500, 501, 502, 503]
        assert [c.n for c in report.cells] == [4, 8, 4, 8]


class TestQuarantine:
    def test_bad_cell_is_recorded_without_aborting_the_sweep(self):
        report = run_from(pairs_config(n_grid=[11, 10], replications=100))
        bad, good = report.cells
        assert bad.error is not None
        assert "pairs" in bad.error and "11" in bad.error
        assert bad.metrics == ()
        assert good.error is None
        assert good.metrics
        # the aborted cell contributes no CSV rows but stays in the JSON
        csv_text = summarize(report, "csv")
        assert ",11," not in csv_text
        obj = json.loads(summarize(report, "json"))
        assert obj["cells"][0]["error"] == bad.error

    def test_infeasible_common_variance_is_quarantined(self):
        cfg = pairs_config(replications=100)
        cfg["design"]["deltas"] = {"scheme": "common-variance", "value": 3.5}
        (cell,) = run_from(cfg, threads=1).cells
        assert cell.error is not None and "ModelInvalidError" in cell.error

    def test_degenerate_likelihood_ratios_are_quarantined(self):
        cfg = {
            "experiment": "contiguity",
            "design": {
                "structure": {"pattern": "pairs"},
                "deltas": {"scheme": "constant", "value": 0.9},
            },
            "n_grid": [2000],
            "replications": 1000,
            "master_seed": 6002,
        }
        (cell,) = run_from(cfg).cells
        assert cell.error is not None
        assert cell.error.startswith("DegenerateDataError: ")
        assert cell.metrics == ()

    def test_contiguity_below_the_lr_budget_is_refused_before_drawing(self, monkeypatch):
        def no_draw(model, seed, replications):
            raise AssertionError("a refused cell must not draw")

        monkeypatch.setattr(harness, "lr_draw", no_draw)
        cfg = {
            "experiment": "contiguity",
            "design": {"structure": {"pattern": "pairs"}},
            "n_grid": [10],
            "replications": 999,
            "master_seed": 3,
        }
        (cell,) = run_from(cfg).cells
        assert cell.error == "InvalidInputError: lr diagnostics need reps >= 1000"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_metrics_are_quarantined(self):
        # the (1 + epsilon)-th moment of the likelihood ratio is finite here
        # but its sample variance overflows, and a report cannot hold inf
        cfg = {
            "experiment": "contiguity",
            "design": {
                "structure": {"pattern": "single"},
                "deltas": {"scheme": "constant", "value": 0.999},
            },
            "n_grid": [2],
            "replications": 20000,
            "epsilon": 100,
            "master_seed": 5,
        }
        report = run_from(cfg)
        (cell,) = report.cells
        assert cell.metrics == ()
        assert cell.error.startswith("DegenerateDataError: metric moment_1pe is not finite")
        assert "Infinity" not in summarize(report, "json")

    def test_oversized_graph_is_quarantined(self):
        # the true graph of one cluster of 10**4 has 49,995,000 edges
        cfg = {
            "experiment": "graph_estimation",
            "design": {
                "structure": {"pattern": "single"},
                "deltas": {"scheme": "constant", "value": 0.1},
                "graphs": [{"id": "true", "kind": "cluster"}],
            },
            "n_grid": [10_000],
            "replications": 100,
            "master_seed": 6003,
        }
        (cell,) = run_from(cfg).cells
        assert cell.metrics == ()
        assert cell.error == (
            "InvalidInputError: cluster graph would have 49995000 edges, "
            "above the cap of 1000000"
        )

    @pytest.mark.filterwarnings("error")
    def test_non_finite_moments_are_computed_without_warnings(self):
        # the overflow in the moment's variance is expected, not a warning
        model = block_model(build_structure([2]), [0.999])
        diag = lr_diagnostics(model, 100.0, 20000, seed=5)
        assert not math.isfinite(diag["se_moment_1pe"])

    def test_unknown_names_surface_as_cell_errors(self):
        cfg = pairs_config(replications=100)
        cfg["design"]["estimators"] = ["bootstrap"]
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and "bootstrap" in cell.error

        cfg = pairs_config(replications=100)
        cfg["design"]["deltas"] = {"scheme": "adaptive", "value": 0.1}
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and "adaptive" in cell.error

        cfg = pairs_config(replications=100)
        cfg["design"]["structure"] = {"pattern": "lattice"}
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and "lattice" in cell.error

        cfg = {
            "experiment": "test_size_power",
            "design": {"structure": {"pattern": "singletons"}, "tests": ["wald"]},
            "n_grid": [10],
            "replications": 100,
            "master_seed": 1,
        }
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and "wald" in cell.error

    @pytest.mark.parametrize(
        "kind, mu, message",
        [
            ("estimator_consistency", [0.0, 1.0], "one mu"),
            ("contiguity", [0.0, 3.0], "one mu"),
            ("contiguity", [3.0], "mu_bar = 0"),
        ],
        ids=["estimator-two-mu", "contiguity-two-mu", "contiguity-nonzero-mu"],
    )
    def test_multi_mu_rejected_outside_test_cells(self, kind, mu, message):
        cfg = pairs_config(replications=100, experiment=kind)
        cfg["design"]["mu"] = mu
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and message in cell.error

    def test_bad_mu_entry(self):
        cfg = pairs_config(replications=100)
        cfg["design"]["mu"] = [{"shift": 1.0}]
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and "mu entry" in cell.error

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("test_size_power", "tests", ["sign", "sign"]),
            ("test_size_power", "mu", [0.0, 0]),
            ("estimator_consistency", "estimators", ["cluster", "cluster"]),
            ("graph_estimation", "graphs", [{"id": "g", "kind": "empty"}, {"id": "g", "kind": "star"}]),
        ],
        ids=["same-test", "same-mu", "same-estimator", "same-graph-id"],
    )
    def test_repeated_metric_names_are_quarantined(self, kind, field, value):
        # a repeated name would add its rejections twice or overwrite
        # another graph's accumulator, so the cell must not report
        cfg = pairs_config(replications=100, experiment=kind, n_grid=[10])
        cfg["design"] = {"structure": {"pattern": "singletons"}, field: value}
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and "metric names repeat" in cell.error
        assert cell.metrics == ()

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("test_size_power", "tests", 5, "design.tests"),
            ("estimator_consistency", "estimators", "cluster", "design.estimators"),
            ("estimator_consistency", "estimators", None, "design.estimators"),
            ("graph_estimation", "graphs", [5], "design.graphs"),
            ("graph_estimation", "graphs", [{"id": [1], "kind": "empty"}], "graph id"),
            ("test_size_power", "tests", [], "design.tests"),
            ("estimator_consistency", "estimators", [], "design.estimators"),
            ("test_size_power", "mu", 5, "design.mu"),
            ("test_size_power", "mu", {"drift": 1.0}, "design.mu"),
            ("test_size_power", "mu", None, "design.mu"),
            ("test_size_power", "mu", [], "design.mu"),
        ],
        ids=[
            "tests-int", "estimators-string", "estimators-null", "graphs-int", "graph-id-list",
            "tests-empty", "estimators-empty", "mu-int", "mu-object", "mu-null", "mu-empty",
        ],
    )
    def test_design_lists_are_type_checked(self, kind, field, value, message):
        cfg = pairs_config(replications=100, experiment=kind, n_grid=[10])
        cfg["design"] = {"structure": {"pattern": "singletons"}, field: value}
        (cell,) = run_from(cfg).cells
        assert cell.error is not None
        assert cell.error.startswith("InvalidInputError: ") and message in cell.error

    @pytest.mark.parametrize(
        "kind, design, field",
        [
            ("test_size_power", {"mu": [0.0, math.nan]}, "mu entry"),
            ("test_size_power", {"mu": [math.inf]}, "mu entry"),
            ("test_size_power", {"mu": [{"drift": math.nan}]}, "drift"),
            ("test_size_power", {"tests": ["z"], "z_bound": math.nan}, "z_bound"),
            (
                "estimator_consistency",
                {"deltas": {"scheme": "constant", "value": math.nan}},
                "delta value",
            ),
            (
                "estimator_consistency",
                {"deltas": {"scheme": "explicit", "values": [-math.inf] * 5}},
                "delta value",
            ),
        ],
        ids=["mu-nan", "mu-inf", "drift-nan", "z-bound-nan", "delta-nan", "deltas-minus-inf"],
    )
    def test_non_finite_numbers_are_quarantined(self, kind, design, field):
        # Python's JSON reader turns NaN and Infinity tokens into these floats
        cfg = pairs_config(replications=100, experiment=kind, n_grid=[10])
        cfg["design"] = {"structure": {"pattern": "pairs"}, **design}
        (cell,) = run_from(cfg).cells
        assert cell.error is not None and cell.metrics == ()
        assert cell.error.startswith(f"InvalidInputError: {field} must be a finite number")


class TestReports:
    def test_csv_shape(self):
        report = run_from(pairs_config(n_grid=[10, 20], replications=100))
        text = summarize(report, "csv")
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[-1] == ""  # trailing newline
        body = lines[1:-1]
        assert len(body) == sum(len(c.metrics) for c in report.cells)
        for line in body:
            assert line.startswith("estimator_consistency,pairs,")

    def test_empty_sweep_gives_header_only_csv(self):
        report = run_sweep([], 7)
        assert summarize(report, "csv") == CSV_HEADER + "\n"
        obj = json.loads(summarize(report, "json"))
        assert obj["cells"] == []
        assert obj["master_seed"] == 7

    def test_json_round_trip_is_byte_identical(self):
        report = run_from(pairs_config(replications=100))
        text = summarize(report, "json")
        obj = json.loads(text)
        again = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == text
        assert obj == report_to_dict(report)
        assert obj["version"] and obj["config_sha256"]

    def test_summarize_rejects_unknown_format(self):
        report = run_sweep([], 7)
        with pytest.raises(InvalidInputError):
            summarize(report, "xml")

    @pytest.mark.parametrize("chunk_scalars", [sampler._CHUNK_SCALARS, 64], ids=["default", "64"])
    def test_reports_identical_across_worker_counts(self, monkeypatch, chunk_scalars):
        # at 64 scalars every cell has several chunks, so threads split cells
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", chunk_scalars)
        entry_a = pairs_config(n_grid=[12, 24], replications=120)
        del entry_a["master_seed"]
        entry_b = {
            "experiment": "test_size_power",
            "design": {
                "structure": {"pattern": "equal", "clusters": 4},
                "deltas": {"scheme": "common-variance", "value": 1.5},
                "tests": ["sign", "cluster_t"],
                "mu": [0, {"drift": 3.0}],
            },
            "n_grid": [20],
            "replications": 150,
        }
        entry_c = {
            "experiment": "graph_estimation",
            "design": {
                "structure": {"pattern": "equal", "clusters": 5},
                "deltas": {"scheme": "constant", "value": 0.2},
                "graphs": [{"kind": "cluster"}, {"kind": "empty"}],
            },
            "n_grid": [20],
            "replications": 120,
        }
        sweep = {"master_seed": 321, "experiments": [entry_a, entry_b, entry_c]}
        serial = run_from(sweep, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost write would show
        try:
            for threads in (2, 4):
                threaded = run_from(sweep, threads=threads)
                assert summarize(serial, "csv") == summarize(threaded, "csv")
                assert summarize(serial, "json") == summarize(threaded, "json")
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "experiment, design",
        [
            ("estimator_consistency", {"estimators": ["cluster", "sample_variance"]}),
            ("test_size_power", {"tests": ["sign", "cluster_t", "z"], "mu": [0.0, {"drift": 2.0}]}),
        ],
        ids=["estimator", "test"],
    )
    def test_failing_chunk_quarantines_only_its_cell(self, monkeypatch, experiment, design):
        # Every chunk of the n = 24 cell that holds a replication >= 100
        # fails, with its own message.  At 3 threads the cell's 19 chunks
        # make runs from chunks 0, 6 and 12; the second and third runs fail,
        # and the cell keeps the error of the second, the chunk at 96, as the
        # serial run does.
        entry = pairs_config(experiment=experiment, n_grid=[12, 24], replications=300)
        del entry["master_seed"], entry["design"]["estimators"]
        entry["design"].update(design)
        graph_entry = {
            "experiment": "graph_estimation",
            "design": {"structure": {"pattern": "pairs"}, "graphs": [{"kind": "cluster"}]},
            "n_grid": [10],
            "replications": 100,
        }
        sweep = {"master_seed": 40, "experiments": [entry, graph_entry]}
        # 16 replications per chunk: a pairs cell draws 11H + 1 = 12 words each
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 192)
        clean = run_from(sweep)
        draw = harness.class_stat_rows

        def failing_draw(model, master_seed, replications):
            if master_seed == 41 and replications.stop > 100:
                raise RuntimeError(f"no draw at {replications.start}")
            return draw(model, master_seed, replications)

        monkeypatch.setattr(harness, "class_stat_rows", failing_draw)
        reports = [run_from(sweep, threads=threads) for threads in (1, 3)]
        for report in reports:
            first, failed, graph = report.cells
            assert failed.error == "RuntimeError: no draw at 96"
            assert failed.metrics == () and failed.M == 0
            assert first == clean.cells[0] and graph == clean.cells[2]
        assert summarize(reports[0], "json") == summarize(reports[1], "json")

    def test_reports_identical_across_chunk_sizes(self, monkeypatch):
        # chunk boundaries change batch shapes but never replication streams
        # or the aggregation order, so reports must not move
        cfg = {
            "master_seed": 55,
            "experiments": [
                {
                    "experiment": "estimator_consistency",
                    "design": {
                        "structure": {"pattern": "equal", "clusters": 3},
                        "deltas": {"scheme": "constant", "value": 0.4},
                        "estimators": ["cluster", "sample_variance", "second_moment"],
                    },
                    "n_grid": [12],
                    "replications": 130,
                },
                {
                    "experiment": "test_size_power",
                    "design": {
                        "structure": {"pattern": "singletons"},
                        "tests": ["sign", "z"],
                        "mu": [0.0, 0.5],
                    },
                    "n_grid": [9],
                    "replications": 110,
                },
                {
                    "experiment": "graph_estimation",
                    "design": {
                        "structure": {"pattern": "pairs"},
                        "deltas": {"scheme": "constant", "value": 0.4},
                        "graphs": [{"kind": "cluster"}, {"kind": "star"}],
                    },
                    "n_grid": [100],
                    "replications": 120,
                },
            ],
        }
        wide = run_from(cfg)
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 64)
        narrow = run_from(cfg)
        assert summarize(wide, "csv") == summarize(narrow, "csv")
        assert summarize(wide, "json") == summarize(narrow, "json")

    def test_run_sweep_validates_threads(self):
        with pytest.raises(InvalidInputError):
            run_sweep([], 1, threads=0)


# A sweep that reaches every report path: a contiguity cell with H = 7
# classes (mixed deltas, blocks of one size under two deltas, a delta = 0
# class of non-singletons and a singleton class of two blocks), single-block
# contiguity cells on both branches of the limit law (ks metric), a test
# cell with a mu grid (numbers and a drift), an estimator cell with all three
# estimators and a graph cell with two graphs.
MIXED_SIZES = [3, 1, 4, 2, 5, 1, 3, 6]
PINNED_SWEEP = {
    "master_seed": 8800,
    "experiments": [
        {
            "experiment": "contiguity",
            "design": {
                "id": "mixed-delta",
                "structure": {"pattern": "explicit", "sizes": MIXED_SIZES},
                "deltas": {
                    "scheme": "explicit",
                    "values": [0.1, 0.0, -0.05, 0.0, 0.1, 0.0, -0.05, 0.02],
                },
            },
            "n_grid": [25],
            "replications": 2000,
        },
        {
            "experiment": "contiguity",
            "design": {
                "id": "limit-law",
                "structure": {"pattern": "single"},
                "deltas": {"scheme": "delta-over-n", "value": 0.5},
            },
            "n_grid": [50],
            "replications": 2000,
        },
        {
            "experiment": "contiguity",
            "design": {
                "id": "limit-law-negative",
                "structure": {"pattern": "single"},
                "deltas": {"scheme": "delta-over-n", "value": -0.5},
            },
            "n_grid": [50],
            "replications": 2000,
        },
        {
            "experiment": "test_size_power",
            "design": {
                "id": "four-clusters",
                "structure": {"pattern": "equal", "clusters": 4},
                "deltas": {"scheme": "common-variance", "value": 2.0},
                "tests": ["sign", "cluster_t", "z"],
                "mu": [0.0, 0.3, {"drift": 2.0}],
            },
            "n_grid": [40],
            "replications": 500,
        },
        {
            "experiment": "estimator_consistency",
            "design": {
                "id": "mixed-estimators",
                "structure": {"pattern": "explicit", "sizes": MIXED_SIZES},
                "deltas": {
                    "scheme": "explicit",
                    "values": [0.3, 0.0, -0.2, 0.0, 0.3, 0.0, -0.2, 0.0],
                },
                "mu": [0.2],
                "estimators": ["cluster", "sample_variance", "second_moment"],
            },
            "n_grid": [25],
            "replications": 500,
        },
        {
            "experiment": "graph_estimation",
            "design": {
                "id": "pairs-graph",
                "structure": {"pattern": "pairs"},
                "deltas": {"scheme": "constant", "value": 0.4},
                "graphs": [{"id": "true", "kind": "cluster"}, {"id": "star", "kind": "star"}],
            },
            "n_grid": [20],
            "replications": 200,
        },
    ],
}


# Recorded when the class draw moved from chi-square inversion to
# Marsaglia-Tsang attempts on 11H + 1 words per replication: the non-graph
# values moved within Monte Carlo error, the graph rows by no byte.
PINNED_SHA256 = {
    "csv": "32c4b6938ac5d2137f839a3084414d0ca828a619d8b313330be3a3480995207f",
    "json": "bf7df17896527324897417b36bf1ff0082fa55ef91456fdd9254583c20ddd9d5",
}


def test_report_bytes_are_pinned():
    """The report of PINNED_SWEEP must not move by a byte.

    A refactor that claims identical numbers is checked here, not by hand.
    The digests depend on numpy's Philox and log and on scipy's ndtri and
    gammaincinv, so a change of those libraries may move them too; a
    deliberate change of the numbers re-records them and says why.
    """
    report = run_from(PINNED_SWEEP)
    assert all(cell.error is None for cell in report.cells)
    for fmt, digest in PINNED_SHA256.items():
        text = summarize(report, fmt)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, fmt
