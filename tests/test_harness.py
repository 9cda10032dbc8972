"""Experiment harness: config parsing, cell evaluation, and reports.

Determinism contracts get the most attention here: reports must be
byte-identical across worker counts and across Monte Carlo chunk sizes,
because the per-replication streams and the fixed aggregation order are what
make sweep results reproducible.
"""

import dataclasses
import hashlib
import json
import math
import sys
import weakref

import numpy as np
import pytest

from lrvlab import InvalidInputError, block_model, build_structure, generate_graph, lr_diagnostics
from lrvlab import harness, sampler
from lrvlab.cluster_model import INDEX_MAX
from lrvlab.estimators import graph_rows, sample_variance_rows
from lrvlab.harness import (
    config_hash,
    load_config,
    report_to_dict,
    run_sweep,
    summarize,
)
from lrvlab.inference_tests import sign_test_stat_rows, z_test_stat_rows
from lrvlab.sampler import sample_rows

CSV_HEADER = "experiment,design_id,n,n_star,M,h,metric,value,se,reps,seed"

# Unequal blocks with singletons, negative deltas and classes whose blocks
# are not adjacent, for the graph cells.
GRAPH_SIZES = [3, 1, 4, 3, 1, 2, 6]
GRAPH_DELTAS = [-0.2, 0.0, 0.3, -0.2, 0.0, -0.5, 0.1]
GRAPH_KINDS = ("cluster", "empty", "complete", "star")


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
        # the patterns' size lists could not be built (OverflowError)
        with pytest.raises(InvalidInputError, match=rf"^n_grid entries must lie in \[1, {INDEX_MAX}\]$"):
            load_config(pairs_config(n_grid=[2 * 10**30]))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(n_grid=[10.5]))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(replications=99))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(master_seed=True))
        with pytest.raises(InvalidInputError):
            load_config(pairs_config(design={"no_structure": 1}))
        # a non-string id would reach report.csv as a Python repr
        for design_id in (5, {"a": 1}, ["x"], True):
            design = dict(pairs_config()["design"], id=design_id)
            with pytest.raises(InvalidInputError, match=r"^design id must be a string, got "):
                load_config(pairs_config(design=design))

    @pytest.mark.parametrize(
        "level, key",
        [("top-level", "master_sed"), ("experiment entry", "alfa"), ("design", "delta")],
    )
    def test_unknown_keys_are_refused(self, level, key):
        # a misspelled key would otherwise run the defaults under the design's label
        entry = pairs_config()
        del entry["master_seed"]
        cfg = {"master_seed": 1, "experiments": [entry]}
        target = {"top-level": cfg, "experiment entry": entry, "design": entry["design"]}[level]
        target[key] = 0.5
        with pytest.raises(InvalidInputError, match=f"^unknown {level} key '{key}' "):
            load_config(cfg)


    @pytest.mark.parametrize("reps", [0, -5, 99])
    def test_config_validates_itself_also_under_replace(self, reps):
        # a sweep of such an entry quarantined its cell with a ZeroDivisionError
        # (0) or aborted on numpy's "negative dimensions" (-5)
        _, (entry,) = load_config(pairs_config())
        with pytest.raises(InvalidInputError, match=r"^replications must be >= 100$"):
            dataclasses.replace(entry, replications=reps)


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

    def test_graph_chunk_frees_its_rows_when_its_task_returns(self, monkeypatch):
        drawn = []
        draw = harness.normal_rows

        def kept_normal_rows(*args):
            g = draw(*args)
            drawn.append(weakref.ref(g))
            return g

        monkeypatch.setattr(harness, "normal_rows", kept_normal_rows)
        seed, (entry,) = load_config(
            {
                "experiment": "graph_estimation",
                "design": {"structure": {"pattern": "pairs"}, "graphs": [{"kind": "star"}]},
                "n_grid": [100],
                "replications": 100,
                "master_seed": 6007,
            }
        )
        cell = harness._Cell(entry, 100, seed)
        chunk = next(cell.plan.chunks)
        assert harness._run_task((cell, chunk)) == (cell, chunk[1], None)
        (ref,) = drawn
        assert ref() is None

    def test_true_graph_of_one_large_cluster_reads_zero(self):
        """The abstract's one-large-cluster failure, shown by a sweep.  On one
        block the true graph is complete (49,995,000 edges at n = 10^4, none
        of them built), so its estimate d'11'd / n is 0 in every replication
        and its bias is -sigma_LR^2 = -(1 + (n - 1) delta)."""
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
        seed, (entry,) = load_config(cfg)
        cs = build_structure([10_000])
        (values,) = harness._plan_graph_cell(entry, cs, seed).rows(0, 100)
        scale = sample_variance_rows(sample_rows(block_model(cs, [0.1]), 0.0, seed, range(100)))
        assert np.all(np.abs(values) <= 1e-12 * scale)
        (cell,) = run_from(cfg).cells
        assert cell.error is None
        metrics = {m.metric: m.value for m in cell.metrics}
        sigma_sq = 1.0 + 9_999 * 0.1
        assert abs(metrics["graph[true]_mean"]) <= 1e-12 * scale.min()
        assert abs(metrics["graph[true]_bias"] + sigma_sq) <= 1e-12 * scale.min()

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

    def test_cells_without_tasks_keep_their_place_under_threads(self, monkeypatch):
        # Cells quarantined at planning get no tasks.  Between cells that run
        # in many chunks each, they keep their place, seed and error, and the
        # report does not depend on the thread count.
        pairs = pairs_config(n_grid=[10, 11, 12], replications=150)
        unknown = pairs_config(n_grid=[10], replications=100)
        unknown["design"] = dict(unknown["design"], id="median", estimators=["median"])
        graph = {
            "experiment": "graph_estimation",
            "design": {"id": "graph", "structure": {"pattern": "pairs"}, "graphs": [{"kind": "cluster"}]},
            "n_grid": [9, 10],
            "replications": 100,
        }
        for entry in (pairs, unknown):
            del entry["master_seed"]
        sweep = {"master_seed": 70, "experiments": [pairs, unknown, graph]}
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 64)
        odd = "InvalidInputError: pairs pattern needs even n, got {}"
        want = [
            ("pairs", 10, 70, None),
            ("pairs", 11, 71, odd.format(11)),
            ("pairs", 12, 72, None),
            ("median", 10, 73, "InvalidInputError: unknown estimator 'median'"),
            ("graph", 9, 74, odd.format(9)),
            ("graph", 10, 75, None),
        ]
        reports = [run_from(sweep, threads=threads) for threads in (1, 2, 3)]
        for report in reports:
            assert [(c.design_id, c.n, c.seed, c.error) for c in report.cells] == want
            assert all(bool(c.metrics) == (c.error is None) for c in report.cells)
        assert summarize(reports[0], "json") == summarize(reports[1], "json")
        assert summarize(reports[0], "json") == summarize(reports[2], "json")

    def test_infeasible_common_variance_is_quarantined(self):
        cfg = pairs_config(replications=100)
        cfg["design"]["deltas"] = {"scheme": "common-variance", "value": 3.5}
        (cell,) = run_from(cfg, threads=1).cells
        assert cell.error is not None and "ModelInvalidError" in cell.error

    def test_cell_beyond_memory_is_quarantined(self):
        """10^17 replications ask for a 711 PiB array, beyond any 64-bit
        address space, so numpy refuses it at once and nothing is allocated;
        planning lists none of the cell's ~10^13 chunks either.  The cell is
        quarantined and the next cell runs as it would after a small one."""

        def sweep(reps):
            entry = {
                "experiment": "contiguity",
                "design": {
                    "structure": {"pattern": "single"},
                    "deltas": {"scheme": "delta-over-n", "value": 0.4},
                },
                "n_grid": [40],
                "replications": reps,
            }
            return {"master_seed": 6011, "experiments": [entry, dict(entry, replications=1000)]}

        want = run_from(sweep(1000)).cells[1]
        for threads in (1, 2):
            big, after = run_from(sweep(10**17), threads=threads).cells
            assert big.error.startswith("MemoryError: Unable to allocate ")
            assert "\n" not in big.error and big.metrics == ()
            assert after == want

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [5, 10])
    def test_non_finite_moments_are_computed_without_warnings(self, seed):
        # the overflow in the moment's variance, and the inf - inf of an
        # infinite power's deviation, are expected, not warnings
        model = block_model(build_structure([2]), [0.999])
        diag = lr_diagnostics(model, 100.0, 20000, seed=seed)
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

        # the scheme is checked before its value is read
        cfg = pairs_config(replications=100)
        cfg["design"]["deltas"] = {"scheme": "constnat"}
        (cell,) = run_from(cfg).cells
        assert cell.error == "InvalidInputError: unknown delta scheme 'constnat'"

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

        cfg = pairs_config(experiment="graph_estimation", n_grid=[10])
        cfg["design"] = {"structure": {"pattern": "pairs"}, "graphs": [{"kind": "empty"}, {"kind": "lattice"}]}
        (cell,) = run_from(cfg).cells
        assert cell.error == "InvalidInputError: unknown graph kind 'lattice'"

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

    @pytest.mark.parametrize(
        "kind, design, message",
        [
            (
                "estimator_consistency",
                {"structure": {"pattern": "pairs", "clusters": 5}},
                "unknown structure key 'clusters'",
            ),
            (
                "estimator_consistency",
                {"structure": {"pattern": "equal", "cluster": 5}},
                "unknown structure key 'cluster'",
            ),
            (
                "estimator_consistency",
                {"structure": {"pattern": "pairs"}, "deltas": {"scheme": "constant", "values": [0.5]}},
                "unknown deltas key 'values'",
            ),
            (
                "graph_estimation",
                {"structure": {"pattern": "pairs"}, "graphs": [{"id": "g", "type": "empty"}]},
                "unknown graph key 'type'",
            ),
        ],
        ids=["pairs-clusters", "equal-cluster", "constant-values", "graph-type"],
    )
    def test_unknown_spec_keys_are_quarantined(self, kind, design, message):
        cfg = pairs_config(replications=100, experiment=kind, n_grid=[10])
        cfg["design"] = design
        (cell,) = run_from(cfg).cells
        assert cell.metrics == ()
        assert cell.error.startswith(f"InvalidInputError: {message} ")

    @pytest.mark.parametrize(
        "design, alpha, message",
        [
            (
                {"structure": {"pattern": "single"}, "tests": ["sign", "cluster_t"]},
                0.05,
                "the cluster t-test needs at least two clusters",
            ),
            ({"structure": {"pattern": "pairs"}, "tests": ["sign"]}, 0.5, "alpha must lie in (0, 1/2), got 0.5"),
            (
                {"structure": {"pattern": "pairs"}, "tests": ["z"], "z_bound": 0},
                0.05,
                "variance bound c must be positive, got 0.0",
            ),
        ],
        ids=["cluster-t-one-cluster", "sign-alpha-half", "z-bound-zero"],
    )
    def test_refused_test_kernels_quarantine_before_drawing(self, monkeypatch, design, alpha, message):
        def no_draw(model, seed, replications):
            raise AssertionError("a refused cell must not draw")

        monkeypatch.setattr(harness, "class_stat_rows", no_draw)
        cfg = pairs_config(experiment="test_size_power", design=design, alpha=alpha, n_grid=[10])
        (cell,) = run_from(cfg).cells
        assert cell.error == f"InvalidInputError: {message}"

    @pytest.mark.parametrize(
        "kind, design, message",
        [
            ("estimator_consistency", {"structure": "pairs"}, 'structure must be {"pattern": ...}'),
            (
                "estimator_consistency",
                {"structure": {"pattern": "equal", "clusters": 3}},
                "equal pattern needs n divisible by clusters=3",
            ),
            ("estimator_consistency", {"structure": {"pattern": "explicit"}}, "explicit pattern needs a sizes list"),
            (
                "estimator_consistency",
                {"structure": {"pattern": "explicit", "sizes": [3, 4]}},
                "explicit sizes sum to 7 but the grid asks for n = 10",
            ),
            ("estimator_consistency", {"structure": {"pattern": "pairs"}, "deltas": 0.5}, 'deltas must be {"scheme": ...}'),
            (
                "estimator_consistency",
                {"structure": {"pattern": "pairs"}, "deltas": {"scheme": "explicit", "values": [0.1, 0.2]}},
                "explicit deltas need 5 values",
            ),
            ("graph_estimation", {"structure": {"pattern": "pairs"}}, "graph_estimation needs a design.graphs list"),
        ],
        ids=[
            "structure-not-object",
            "equal-indivisible",
            "explicit-no-sizes",
            "explicit-wrong-sum",
            "deltas-not-object",
            "explicit-deltas-count",
            "graph-no-graphs",
        ],
    )
    def test_unresolvable_designs_are_quarantined(self, kind, design, message):
        cfg = pairs_config(replications=100, experiment=kind, n_grid=[10], design=design)
        (cell,) = run_from(cfg).cells
        assert cell.metrics == ()
        assert cell.error == f"InvalidInputError: {message}"

    def test_dbar_over_nstar_on_singletons_reads_as_independence(self):
        # n* = 0 on all singletons: the scheme gives zero deltas, not 0/0
        design = {"structure": {"pattern": "singletons"}, "deltas": {"scheme": "dbar-over-nstar", "value": 0.5}}
        zero = dict(design, deltas={"scheme": "constant", "value": 0.0})
        scaled, independent = (
            run_from(pairs_config(replications=100, n_grid=[10], design=d)).cells[0] for d in (design, zero)
        )
        assert scaled.error is None and scaled.n_star == 0
        assert scaled.metrics == independent.metrics

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
        "kind, field, value",
        [
            ("test_size_power", "tests", ["sign", "sign"]),
            ("test_size_power", "mu", [0.0, 0]),
            ("estimator_consistency", "estimators", ["cluster", "cluster"]),
            ("graph_estimation", "graphs", [{"id": "g", "kind": "empty"}, {"id": "g", "kind": "star"}]),
        ],
        ids=["same-test", "same-mu", "same-estimator", "same-graph-id"],
    )
    def test_repeated_metric_names_quarantine_before_drawing(self, monkeypatch, kind, field, value):
        def no_draw(*args):
            raise AssertionError("a refused cell must not draw")

        monkeypatch.setattr(harness, "class_stat_rows", no_draw)
        monkeypatch.setattr(harness, "normal_rows", no_draw)
        cfg = pairs_config(replications=100, experiment=kind, n_grid=[10])
        cfg["design"] = {"structure": {"pattern": "singletons"}, field: value}
        (cell,) = run_from(cfg).cells
        assert cell.error.startswith("InvalidInputError: metric names repeat")
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
                "delta",
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
        # fails, with its own message.  Each of the cell's 19 chunks is one
        # task, and at 3 threads chunks 6 to 18 fail in whatever order the
        # workers reach them; the cell keeps the error of the first in task
        # order, the chunk at 96, as the serial run does.
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
        # 16 replications per chunk: a pairs cell draws 5H + 1 = 6 words each
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 96)
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

    def test_serial_run_draws_no_chunk_after_a_failing_one(self, monkeypatch):
        # chunks of 16 replications of 6 words; the chunk at 96 fails, so of
        # the cell's 19 chunks only the first 7 are drawn
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 96)
        draw, starts = harness.class_stat_rows, []

        def failing_draw(model, master_seed, replications):
            starts.append(replications.start)
            if replications.start == 96:
                raise RuntimeError("no draw at 96")
            return draw(model, master_seed, replications)

        monkeypatch.setattr(harness, "class_stat_rows", failing_draw)
        (cell,) = run_from(pairs_config(n_grid=[24])).cells
        assert cell.error == "RuntimeError: no draw at 96"
        assert starts == list(range(0, 112, 16))

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
                {
                    "experiment": "graph_estimation",
                    "design": {
                        "structure": {"pattern": "explicit", "sizes": GRAPH_SIZES},
                        "deltas": {"scheme": "explicit", "values": GRAPH_DELTAS},
                        "mu": [0.7],
                        "graphs": [{"kind": kind} for kind in GRAPH_KINDS],
                    },
                    "n_grid": [sum(GRAPH_SIZES)],
                    "replications": 120,
                },
                {
                    # a block wider than a numpy buffer (8192 values), one row
                    # per narrow chunk
                    "experiment": "graph_estimation",
                    "design": {
                        "structure": {"pattern": "single"},
                        "deltas": {"scheme": "delta-over-n", "value": 0.5},
                        "graphs": [{"kind": kind} for kind in GRAPH_KINDS],
                    },
                    "n_grid": [10_000],
                    "replications": 100,
                },
            ],
        }
        wide = run_from(cfg)
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 64)
        narrow = run_from(cfg)
        assert summarize(wide, "csv") == summarize(narrow, "csv")
        assert summarize(wide, "json") == summarize(narrow, "json")

    @pytest.mark.parametrize(
        "structure, deltas, mu, n, kinds",
        [
            ({"pattern": "pairs"}, {"scheme": "constant", "value": 0.4}, 0.0, 20, GRAPH_KINDS),
            ({"pattern": "equal", "clusters": 5}, {"scheme": "constant", "value": -0.3}, 0.0, 20, GRAPH_KINDS),
            # the sweep runs every kind here, but the oracle's generate_graph
            # refuses the true and complete graphs of one 10^4 block (above its
            # edge cap)
            ({"pattern": "single"}, {"scheme": "delta-over-n", "value": 0.5}, 0.0, 10_000, ("star", "empty")),
            (
                {"pattern": "explicit", "sizes": GRAPH_SIZES},
                {"scheme": "explicit", "values": GRAPH_DELTAS},
                0.7,
                sum(GRAPH_SIZES),
                GRAPH_KINDS,
            ),
        ],
        ids=["pairs", "equal-4", "single-10000", "explicit"],
    )
    def test_graph_cell_values_are_graph_rows_of_the_drawn_rows(self, structure, deltas, mu, n, kinds):
        """A graph cell's per-replication values equal graph_rows on the rows
        sample_rows draws for the cell, to 1e-12 relative; a complete graph's
        exact 0 is compared with the rows' sample variance as scale."""
        seed, (entry,) = load_config(
            {
                "experiment": "graph_estimation",
                "design": {
                    "structure": structure,
                    "deltas": deltas,
                    "mu": [mu],
                    "graphs": [{"id": kind, "kind": kind} for kind in kinds],
                },
                "n_grid": [n],
                "replications": 100,
                "master_seed": 7300,
            }
        )
        cs = harness._resolve_structure(structure, n)
        plan = harness._plan_graph_cell(entry, cs, seed)
        got = dict(zip(plan.keys, plan.rows(0, 100)))
        X = sample_rows(block_model(cs, harness._resolve_deltas(deltas, cs)), mu, seed, range(100))
        scale = sample_variance_rows(X)
        for kind in kinds:
            want = graph_rows(X, generate_graph(kind, cs=cs, n=n))
            gap = np.abs(got[kind] - want)
            assert np.all(gap <= 1e-12 * np.maximum(np.abs(want), scale)), kind

    def test_run_sweep_validates_threads(self):
        with pytest.raises(InvalidInputError):
            run_sweep([], 1, threads=0)
        with pytest.raises(InvalidInputError, match="^threads must be an integer, got 1.7$"):
            run_sweep([], 1, threads=1.7)


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


# Recorded when graph cells began to reduce their drawn normals straight to
# class statistics (sampler.mixed_class_stats) instead of mixing the rows and
# running graph_rows.  The draw is unchanged; the closed forms round
# differently, so four graph rows moved in their last digits: the se of
# graph[true]_mean and _bias (0.04429800186740712 -> ...7115), the se of
# graph[true]_rmse (0.03358303998011577 -> ...754) and graph[star]_rmse
# (0.6481939117951778 -> ...779).  No other row moved.
# Re-recorded when the class draw went to one Marsaglia-Tsang attempt per
# chi-square (7H + 1 words per replication instead of 11H + 1): every
# estimator, contiguity and test row moved once; the graph rows did not.
# Re-recorded when the inverse normal became the sampler's own AS241 on the
# exact q = (x - 1/2) + 2**-54 and the chi-square fallback further
# Marsaglia-Tsang attempts (5H + 1 class words per replication): estimator,
# contiguity and test rows were redrawn, and graph rows moved by a few ulps
# of their normals.
PINNED_SHA256 = {
    "csv": "878ac4fd796e34416a52001a99e8216f59f82cfc25f9dbc5ae91637c5a0849fc",
    "json": "fa8bf076a16b3420384aee7d6343bf7955a368ce41c684db293fb31706f16849",
}


def test_report_bytes_are_pinned():
    """The report of PINNED_SWEEP must not move by a byte.

    A refactor that claims identical numbers is checked here, not by hand.
    The digests depend on numpy's Philox, uniforms, log and sqrt, so a
    change of those may move them too; a deliberate change of the numbers
    re-records them and says why.
    """
    report = run_from(PINNED_SWEEP)
    assert all(cell.error is None for cell in report.cells)
    for fmt, digest in PINNED_SHA256.items():
        text = summarize(report, fmt)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, fmt
