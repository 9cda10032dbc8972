"""Config-driven Monte Carlo experiment runner.

A config names an experiment kind, a design (structure pattern, delta scheme,
mean grid, graphs), an n grid, and a replication budget; the runner evaluates
every (design, n) cell with per-replication random streams and aggregates in
replication-index order, so reports are byte-identical for a given config and
master seed regardless of the worker count.

Stream allocation: cells are enumerated in config order; cell i draws its
replications from streams keyed (master_seed + i, replication_index).
Estimator, contiguity and test cells draw each replication's block sums and
residual masses directly (sampler.block_stat_rows): M + G + 1 words, where
G counts the distinct deltas among blocks of size >= 2 (for contiguity, the
alternative's deltas, on null data) and the last word is the randomization
uniform of test cells.  Graph cells consume n normals per replication (the
O(n) mixing path, which the graph estimator needs).

Config schema (JSON; a single experiment object, or a sweep
{"master_seed": ..., "experiments": [...]}):

    {
      "experiment": "estimator_consistency",   # or contiguity |
                                               # test_size_power | graph_estimation
      "design": {
        "id": "pairs",                         # optional label
        "structure": {"pattern": "pairs"},     # pairs | single | singletons |
                                               # equal (+"clusters") | explicit (+"sizes")
        "deltas": {"scheme": "constant", "value": 0.5},
                                               # constant | dbar-over-nstar |
                                               # delta-over-n | common-variance
                                               # (each +"value") | explicit (+"values")
        "mu": [0.0, {"drift": 5.0}],           # numbers, or {"drift": c} meaning
                                               # mu_bar = c * sigma_LR / sqrt(n)
        "estimators": ["cluster"],             # estimator_consistency only
        "tests": ["sign", "cluster_t", "z"],   # test_size_power only
        "z_bound": "oracle",                   # c for the z-test ("oracle" = true value)
        "graphs": [{"id": "true", "kind": "cluster"}]   # graph_estimation only
      },
      "n_grid": [100, 400, 1600],
      "replications": 2000,
      "alpha": 0.05,
      "epsilon": 0.1,
      "master_seed": 20260816
    }

Only test_size_power accepts a multi-point mu grid; the other kinds require
exactly one mean (default 0).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cluster_model import (
    ClusterStructure,
    block_model,
    build_structure,
    deltas_for_common_variance,
    long_run_variance,
    max_cluster_share,
)
from .errors import InvalidInputError
from .estimators import (
    cluster_stat_rows,
    graph_rows,
    sample_variance_stat_rows,
    second_moment_stat_rows,
)
from .graphs import generate_graph
from .inference_tests import cluster_t_stat_rows, sign_test_stat_rows, z_test_stat_rows
from .likelihood import lr_diagnostics
from .sampler import _CHUNK_SCALARS, _chunks, block_stat_rows, block_stat_words, sample_rows

EXPERIMENT_KINDS = (
    "estimator_consistency",
    "contiguity",
    "test_size_power",
    "graph_estimation",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, a design, an n grid, and budgets."""

    experiment: str
    design: dict
    n_grid: tuple[int, ...]
    replications: int
    alpha: float
    epsilon: float
    master_seed: int


@dataclass(frozen=True)
class Metric:
    metric: str
    value: float
    se: float


@dataclass(frozen=True)
class CellResult:
    """One (design, n) cell; error is set (and metrics empty) if it aborted."""

    experiment: str
    design_id: str
    n: int
    n_star: int
    M: int
    h: float
    max_cluster_share: float
    reps: int
    seed: int
    metrics: tuple[Metric, ...]
    error: str | None


@dataclass(frozen=True)
class ExperimentReport:
    version: str
    master_seed: int
    config_sha256: str
    cells: tuple[CellResult, ...]


# ---------------------------------------------------------------------------
# Config loading


def load_config(source) -> tuple[int, list[ExperimentConfig]]:
    """Parse a config (path, JSON string handle, or dict) into experiments.

    Returns (master_seed, entries).  Accepts a single experiment object or a
    sweep {"master_seed": ..., "experiments": [...]}; sweep entries must not
    carry their own master_seed.
    """
    if isinstance(source, dict):
        obj = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidInputError("config must be a JSON object")

    if "experiments" in obj:
        if "master_seed" not in obj:
            raise InvalidInputError("sweep config requires a top-level master_seed")
        seed = _as_int(obj["master_seed"], "master_seed")
        raw_entries = obj["experiments"]
        if not isinstance(raw_entries, list) or not raw_entries:
            raise InvalidInputError("experiments must be a nonempty list")
        entries = []
        for pos, raw in enumerate(raw_entries):
            if not isinstance(raw, dict):
                raise InvalidInputError("experiment entry must be a JSON object")
            if "master_seed" in raw:
                raise InvalidInputError(
                    "sweep entries must not carry master_seed (set it top-level)"
                )
            entries.append(_parse_entry(raw, seed, pos))
        return seed, entries

    if "master_seed" not in obj:
        raise InvalidInputError("config requires master_seed")
    seed = _as_int(obj["master_seed"], "master_seed")
    return seed, [_parse_entry(obj, seed, 0)]


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{name} must be an integer")
    return value


def _parse_entry(raw: dict, seed: int, pos: int) -> ExperimentConfig:
    kind = raw.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise InvalidInputError(
            f"experiment must be one of {EXPERIMENT_KINDS}, got {kind!r}"
        )
    design = raw.get("design")
    if not isinstance(design, dict) or "structure" not in design:
        raise InvalidInputError("design must be an object with a structure entry")
    n_grid = raw.get("n_grid")
    if not isinstance(n_grid, list) or not n_grid:
        raise InvalidInputError("n_grid must be a nonempty list")
    n_grid = tuple(_as_int(n, "n_grid entry") for n in n_grid)
    if any(n < 1 for n in n_grid):
        raise InvalidInputError("n_grid entries must be >= 1")
    reps = _as_int(raw.get("replications"), "replications")
    if reps < 100:
        raise InvalidInputError("replications must be >= 100")
    alpha = float(raw.get("alpha", 0.05))
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    epsilon = float(raw.get("epsilon", 0.1))
    if not (epsilon > 0.0):
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    if design.get("id") is None:
        design = dict(design, id=f"{kind}-{pos}")
    return ExperimentConfig(
        experiment=kind,
        design=design,
        n_grid=n_grid,
        replications=reps,
        alpha=alpha,
        epsilon=epsilon,
        master_seed=seed,
    )


def canonical_config(master_seed: int, entries) -> dict:
    """The normalized sweep this run will execute (defaults applied)."""
    return {
        "master_seed": master_seed,
        "experiments": [
            {
                "experiment": e.experiment,
                "design": e.design,
                "n_grid": list(e.n_grid),
                "replications": e.replications,
                "alpha": e.alpha,
                "epsilon": e.epsilon,
            }
            for e in entries
        ],
    }


def config_hash(master_seed: int, entries) -> str:
    canon = json.dumps(
        canonical_config(master_seed, entries), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Design resolution


def _resolve_structure(spec, n: int) -> ClusterStructure:
    if not isinstance(spec, dict) or "pattern" not in spec:
        raise InvalidInputError('structure must be {"pattern": ...}')
    pattern = spec["pattern"]
    if pattern == "pairs":
        if n % 2:
            raise InvalidInputError(f"pairs pattern needs even n, got {n}")
        return build_structure([2] * (n // 2))
    if pattern == "single":
        return build_structure([n])
    if pattern == "singletons":
        return build_structure([1] * n)
    if pattern == "equal":
        k = _as_int(spec.get("clusters"), "clusters")
        if k < 1 or n % k:
            raise InvalidInputError(f"equal pattern needs n divisible by clusters={k}")
        return build_structure([n // k] * k)
    if pattern == "explicit":
        sizes = spec.get("sizes")
        if not isinstance(sizes, list) or not sizes:
            raise InvalidInputError("explicit pattern needs a sizes list")
        cs = build_structure(sizes)
        if cs.n != n:
            raise InvalidInputError(
                f"explicit sizes sum to {cs.n} but the grid asks for n = {n}"
            )
        return cs
    raise InvalidInputError(f"unknown structure pattern {pattern!r}")


def _resolve_deltas(spec, cs: ClusterStructure):
    if spec is None:
        return [0.0] * cs.M
    if not isinstance(spec, dict) or "scheme" not in spec:
        raise InvalidInputError('deltas must be {"scheme": ...}')
    scheme = spec["scheme"]
    if scheme == "explicit":
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != cs.M:
            raise InvalidInputError(f"explicit deltas need {cs.M} values")
        return [float(v) for v in values]
    if scheme == "common-variance":
        return deltas_for_common_variance(cs, float(spec.get("value")))
    value = float(spec.get("value"))
    if scheme == "constant":
        return [value] * cs.M
    if scheme == "dbar-over-nstar":
        if cs.n_star == 0:
            return [0.0] * cs.M
        return [value / cs.n_star] * cs.M
    if scheme == "delta-over-n":
        return [value / cs.n] * cs.M
    raise InvalidInputError(f"unknown delta scheme {scheme!r}")


def _resolve_mu(entries, sigma_sq: float, n: int):
    """[(label, mu_bar)] from raw mu entries; drift c means c * sigma_LR / sqrt(n)."""
    resolved = []
    for entry in entries:
        if isinstance(entry, dict):
            if set(entry) != {"drift"}:
                raise InvalidInputError(f"bad mu entry {entry!r}")
            c = float(entry["drift"])
            resolved.append(
                (f"drift{c!r}", c * math.sqrt(sigma_sq) / math.sqrt(n))
            )
        else:
            value = float(entry)
            resolved.append((repr(value), value))
    if not resolved:
        raise InvalidInputError("mu grid must be nonempty")
    return resolved


def _single_mu(design: dict, sigma_sq: float, n: int) -> float:
    resolved = _resolve_mu(design.get("mu", [0.0]), sigma_sq, n)
    if len(resolved) != 1:
        raise InvalidInputError(
            "this experiment kind takes exactly one mu entry"
        )
    return resolved[0][1]


def _proportion_se(k: int, reps: int) -> float:
    """Binomial SE with the (k+1/2)/(R+1) shrinkage, strictly positive."""
    p = (k + 0.5) / (reps + 1.0)
    return math.sqrt(p * (1.0 - p) / reps)


def _moment_metrics(prefix: str, estimates: np.ndarray, truth: float):
    reps = estimates.size
    mean = float(np.mean(estimates))
    se_mean = float(np.std(estimates, ddof=1) / math.sqrt(reps))
    err2 = (estimates - truth) ** 2
    mse = float(np.mean(err2))
    rmse = math.sqrt(mse)
    se_mse = float(np.std(err2, ddof=1) / math.sqrt(reps))
    se_rmse = se_mse / (2.0 * rmse) if rmse > 0.0 else float("nan")
    return [
        Metric(f"{prefix}_mean", mean, se_mean),
        Metric(f"{prefix}_bias", mean - truth, se_mean),
        Metric(f"{prefix}_rmse", rmse, se_rmse),
    ]


# ---------------------------------------------------------------------------
# Cell runners


def _resolve_cell(entry: ExperimentConfig, cs: ClusterStructure):
    """(model, sigma_LR^2) of one cell."""
    model = block_model(cs, _resolve_deltas(entry.design.get("deltas"), cs))
    return model, long_run_variance(model)


_ESTIMATOR_KERNELS = {
    "sample_variance": lambda s1, t, sizes: sample_variance_stat_rows(s1, t, sizes),
    "cluster": lambda s1, t, sizes: cluster_stat_rows(s1, sizes),
    "second_moment": lambda s1, t, sizes: second_moment_stat_rows(s1, t, sizes),
}


def _run_estimator_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int):
    design = entry.design
    model, sigma_sq = _resolve_cell(entry, cs)
    mu_bar = _single_mu(design, sigma_sq, cs.n)
    names = design.get("estimators", ["cluster", "sample_variance"])
    for name in names:
        if name not in _ESTIMATOR_KERNELS:
            raise InvalidInputError(f"unknown estimator {name!r}")
    reps = entry.replications
    acc = {name: np.empty(reps) for name in names}
    for lo, hi in _chunks(reps, block_stat_words(model), _CHUNK_SCALARS):
        s1, t, _ = block_stat_rows(model, mu_bar, seed, range(lo, hi))
        for name in names:
            acc[name][lo:hi] = _ESTIMATOR_KERNELS[name](s1, t, cs.sizes_array)
    metrics = []
    for name in names:
        metrics.extend(_moment_metrics(name, acc[name], sigma_sq))
    return metrics


def _run_contiguity_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int):
    model, _ = _resolve_cell(entry, cs)
    diag = lr_diagnostics(model, entry.epsilon, entry.replications, seed)
    metrics = [
        Metric("mean_lr", diag["mean_lr"], diag["se_mean_lr"]),
        Metric("moment_1pe", diag["moment_1pe"], diag["se_moment_1pe"]),
    ]
    if diag["ks"] is not None:
        # The KS statistic has no closed-form SE; report the conservative
        # DKW-style bound 0.5/sqrt(reps).
        metrics.append(Metric("ks", diag["ks"], 0.5 / math.sqrt(entry.replications)))
    return metrics


def _run_test_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int):
    design = entry.design
    model, sigma_sq = _resolve_cell(entry, cs)
    mu_points = _resolve_mu(design.get("mu", [0.0]), sigma_sq, cs.n)
    tests = design.get("tests", ["sign", "cluster_t"])
    z_bound = design.get("z_bound", "oracle")
    c = sigma_sq if z_bound == "oracle" else float(z_bound)
    alpha = entry.alpha
    sizes = cs.sizes_array

    def kernel(name, s1, u):
        if name == "sign":
            return sign_test_stat_rows(s1, cs.n, alpha, u)
        if name == "cluster_t":
            return cluster_t_stat_rows(s1, sizes, alpha)
        if name == "z":
            return z_test_stat_rows(s1, cs.n, c, alpha)
        raise InvalidInputError(f"unknown test {name!r}")

    reps = entry.replications
    counts = {(name, label): 0 for name in tests for label, _ in mu_points}
    for lo, hi in _chunks(reps, block_stat_words(model), _CHUNK_SCALARS):
        s1_0, _, u = block_stat_rows(model, 0.0, seed, range(lo, hi))
        for label, mu_bar in mu_points:
            # A mean shift moves each block sum by k mu_bar, exactly as a draw
            # at mu_bar would.
            s1 = s1_0 + sizes * mu_bar if mu_bar != 0.0 else s1_0
            for name in tests:
                counts[(name, label)] += int(np.count_nonzero(kernel(name, s1, u)))
    return [
        Metric(
            f"{name}_reject[mu={label}]",
            counts[(name, label)] / reps,
            _proportion_se(counts[(name, label)], reps),
        )
        for name in tests
        for label, _ in mu_points
    ]


def _run_graph_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int):
    design = entry.design
    model, sigma_sq = _resolve_cell(entry, cs)
    mu_bar = _single_mu(design, sigma_sq, cs.n)
    specs = design.get("graphs")
    if not isinstance(specs, list) or not specs:
        raise InvalidInputError("graph_estimation needs a design.graphs list")
    graphs = []
    for pos, spec in enumerate(specs):
        kind = spec.get("kind")
        gid = spec.get("id", f"{kind}-{pos}")
        if kind == "cluster":
            graphs.append((gid, generate_graph("cluster", cs=cs)))
        else:
            graphs.append((gid, generate_graph(kind, n=cs.n)))
    reps = entry.replications
    acc = {gid: np.empty(reps) for gid, _ in graphs}
    for lo, hi in _chunks(reps, cs.n, _CHUNK_SCALARS):
        X = sample_rows(model, mu_bar, seed, range(lo, hi))
        for gid, g in graphs:
            acc[gid][lo:hi] = graph_rows(X, g)
    metrics = []
    for gid, _ in graphs:
        metrics.extend(_moment_metrics(f"graph[{gid}]", acc[gid], sigma_sq))
    return metrics


_RUNNERS = {
    "estimator_consistency": _run_estimator_cell,
    "contiguity": _run_contiguity_cell,
    "test_size_power": _run_test_cell,
    "graph_estimation": _run_graph_cell,
}


def _evaluate_cell(entry: ExperimentConfig, n: int, seed: int) -> CellResult:
    try:
        cs = _resolve_structure(entry.design.get("structure"), n)
        metrics = _RUNNERS[entry.experiment](entry, cs, seed)
        return CellResult(
            experiment=entry.experiment,
            design_id=str(entry.design["id"]),
            n=n,
            n_star=cs.n_star,
            M=cs.M,
            h=cs.heterogeneity,
            max_cluster_share=max_cluster_share(cs),
            reps=entry.replications,
            seed=seed,
            metrics=tuple(metrics),
            error=None,
        )
    except Exception as exc:  # quarantine the cell, keep the sweep going
        return CellResult(
            experiment=entry.experiment,
            design_id=str(entry.design["id"]),
            n=n,
            n_star=0,
            M=0,
            h=0.0,
            max_cluster_share=0.0,
            reps=entry.replications,
            seed=seed,
            metrics=(),
            error=f"{type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------------
# Entry points


def run_sweep(entries, master_seed: int, threads: int = 1) -> ExperimentReport:
    """Evaluate every (design, n) cell of every experiment, in a fixed order.

    Cell i uses master seed master_seed + i; results are merged by cell index,
    so the report is identical for any threads >= 1.
    """
    entries = list(entries)
    threads = int(threads)
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    cells = []
    index = 0
    for entry in entries:
        for n in entry.n_grid:
            cells.append((entry, n, master_seed + index))
            index += 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: _evaluate_cell(*c), cells))
    else:
        results = [_evaluate_cell(*c) for c in cells]
    return ExperimentReport(
        version=__version__,
        master_seed=master_seed,
        config_sha256=config_hash(master_seed, entries),
        cells=tuple(results),
    )


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "version": report.version,
        "master_seed": report.master_seed,
        "config_sha256": report.config_sha256,
        "cells": [
            {
                "experiment": c.experiment,
                "design_id": c.design_id,
                "n": c.n,
                "n_star": c.n_star,
                "M": c.M,
                "h": c.h,
                "max_cluster_share": c.max_cluster_share,
                "reps": c.reps,
                "seed": c.seed,
                "metrics": [
                    {"metric": m.metric, "value": m.value, "se": m.se}
                    for m in c.metrics
                ],
                "error": c.error,
            }
            for c in report.cells
        ],
    }


def summarize(report: ExperimentReport, format: str = "csv") -> str:
    """Serialize a report; CSV has one row per (cell, metric), JSON mirrors it.

    CSV columns are exactly: experiment, design_id, n, n_star, M, h, metric,
    value, se, reps, seed.  Cells that aborted contribute no CSV rows; their
    diagnostics live in the JSON form.  The JSON form re-serializes
    byte-identically after a parse round trip.
    """
    if format == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":")) + "\n"
    if format != "csv":
        raise InvalidInputError(f"format must be csv or json, got {format!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["experiment", "design_id", "n", "n_star", "M", "h", "metric", "value", "se", "reps", "seed"]
    )
    for cell in report.cells:
        for m in cell.metrics:
            writer.writerow(
                [
                    cell.experiment,
                    cell.design_id,
                    str(cell.n),
                    str(cell.n_star),
                    str(cell.M),
                    repr(cell.h),
                    m.metric,
                    repr(m.value),
                    repr(m.se),
                    str(cell.reps),
                    str(cell.seed),
                ]
            )
    return buf.getvalue()
