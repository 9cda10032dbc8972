"""Workload configs, generated from a seed.

Each workload is one `lrvlab run` sweep config. The seed picks the master
seed and a few model parameters (correlations, drifts, variances) from small
fixed sets; it never changes n, the replication budgets or the cell list, so
the work done per sweep is the same on every seed. Every parameter set keeps
the Monte Carlo outputs well inside the ranges where the checks in
`checks.py` have exact expectations.

The `layer` entry of each workload names the design its per-layer timings
use (see `layers.py`): the regime's own structure at the workload's n.
"""

from __future__ import annotations

import random

WORKLOADS = ("small-n", "one-large-cluster", "many-small-clusters")

ALPHA = 0.05
EPSILON = 0.1


def _contiguity(design_id, structure, deltas, n_grid, reps):
    return {
        "experiment": "contiguity",
        "design": {"id": design_id, "structure": structure, "deltas": deltas},
        "n_grid": n_grid,
        "replications": reps,
        "epsilon": EPSILON,
    }


def _estimators(design_id, structure, deltas, n_grid, reps, mu):
    return {
        "experiment": "estimator_consistency",
        "design": {
            "id": design_id,
            "structure": structure,
            "deltas": deltas,
            "mu": [mu],
            "estimators": ["cluster", "sample_variance", "second_moment"],
        },
        "n_grid": n_grid,
        "replications": reps,
    }


def _tests(design_id, structure, variance, drifts, n_grid, reps):
    return {
        "experiment": "test_size_power",
        "design": {
            "id": design_id,
            "structure": structure,
            "deltas": {"scheme": "common-variance", "value": variance},
            "tests": ["sign", "cluster_t", "z"],
            "z_bound": "oracle",
            "mu": [0.0] + [{"drift": c} for c in drifts],
        },
        "n_grid": n_grid,
        "replications": reps,
        "alpha": ALPHA,
    }


def _graphs(design_id, structure, deltas, kinds, n_grid, reps):
    return {
        "experiment": "graph_estimation",
        "design": {
            "id": design_id,
            "structure": structure,
            "deltas": deltas,
            "graphs": [{"id": "true" if k == "cluster" else k, "kind": k} for k in kinds],
        },
        "n_grid": n_grid,
        "replications": reps,
    }


def make_workload(name: str, seed: int) -> dict:
    """The sweep config and the per-layer design of one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}/{seed}")
    master_seed = rng.randrange(1, 2**31)
    pick = rng.choice

    if name == "small-n":
        experiments = [
            _contiguity(
                "single-contiguity",
                {"pattern": "single"},
                {"scheme": "dbar-over-nstar", "value": pick([0.15, 0.2, 0.25])},
                [100],
                10000,
            ),
            _tests(
                "four-cluster-t",
                {"pattern": "equal", "clusters": 4},
                pick([1.5, 2.0]),
                [pick([1.0, 1.5]), pick([2.5, 3.0])],
                [100],
                10000,
            ),
            _estimators(
                "pairs",
                {"pattern": "pairs"},
                {"scheme": "constant", "value": pick([0.3, 0.5])},
                [40, 100],
                5000,
                pick([0.0, 0.2]),
            ),
            _graphs(
                "pairs-graph",
                {"pattern": "pairs"},
                {"scheme": "constant", "value": pick([0.3, 0.5])},
                ["cluster", "empty"],
                [100],
                5000,
            ),
        ]
        layer = {"structure": {"pattern": "pairs"}, "delta": 0.5, "n": 100, "graph": "cluster"}
    elif name == "one-large-cluster":
        single = {"pattern": "single"}
        experiments = [
            _contiguity(
                "limit-law",
                single,
                {"scheme": "delta-over-n", "value": pick([0.1, 0.15, 0.2])},
                [10000],
                1500,
            ),
            {
                "experiment": "estimator_consistency",
                "design": {
                    "id": "common-shock",
                    "structure": single,
                    "deltas": {"scheme": "delta-over-n", "value": pick([0.5, 1.0])},
                    "estimators": ["sample_variance", "second_moment"],
                },
                "n_grid": [10000],
                "replications": 300,
            },
            {
                "experiment": "test_size_power",
                "design": {
                    "id": "single-cluster-sign",
                    "structure": single,
                    "deltas": {"scheme": "constant", "value": pick([0.05, 0.1])},
                    "tests": ["sign", "z"],
                    "z_bound": "oracle",
                    "mu": [0.0, {"drift": pick([1.0, 2.0])}],
                },
                "n_grid": [10000],
                "replications": 300,
                "alpha": ALPHA,
            },
            # The true graph of one 10^4 block has 5e7 edges, so only the
            # empty graph is run here.
            _graphs(
                "single-graph",
                single,
                {"scheme": "delta-over-n", "value": pick([0.5, 1.0])},
                ["empty"],
                [10000],
                150,
            ),
        ]
        # The cluster t-test needs two clusters; two blocks of 5000 keep the
        # per-scalar cost profile of one large cluster.
        layer = {
            "structure": {"pattern": "equal", "clusters": 2},
            "delta": 0.5e-4,
            "n": 10000,
            "graph": "empty",
        }
    else:
        experiments = [
            _estimators(
                "pairs",
                {"pattern": "pairs"},
                {"scheme": "constant", "value": pick([0.3, 0.5])},
                [2000],
                1500,
                pick([0.0, 0.1]),
            ),
            _contiguity(
                "pairs-contiguity",
                {"pattern": "pairs"},
                {"scheme": "constant", "value": pick([0.02, 0.03])},
                [2000],
                2000,
            ),
            _tests(
                "size-20-cluster-t",
                {"pattern": "equal", "clusters": 100},
                pick([1.5, 2.0]),
                [pick([1.0, 1.5]), pick([2.5, 3.0])],
                [2000],
                2000,
            ),
            _graphs(
                "quads-graph",
                {"pattern": "equal", "clusters": 500},
                {"scheme": "constant", "value": pick([0.2, 0.3])},
                ["cluster", "empty"],
                [2000],
                1000,
            ),
        ]
        layer = {"structure": {"pattern": "equal", "clusters": 500}, "delta": 0.3, "n": 2000, "graph": "cluster"}

    return {
        "config": {"master_seed": master_seed, "experiments": experiments},
        "layer": layer,
    }
