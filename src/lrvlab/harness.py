"""Config-driven Monte Carlo experiment runner.

A config names an experiment kind, a design (structure pattern, delta scheme,
mean grid, graphs), an n grid, and a replication budget; the runner evaluates
every (design, n) cell with per-replication random streams and aggregates in
replication-index order, so reports are byte-identical for a given config and
master seed regardless of the worker count.

Stream allocation: cells are enumerated in config order, and cell i draws
with the cell seed master_seed + i.  Graph cells consume n normals per
replication (the O(n) mixing path, which the graph estimator needs):
replication r reads its own stream, keyed (cell seed, r).  Estimator,
contiguity and test cells draw each replication's class statistics
(sampler.class_stat_rows): 11H + 1 words, where H counts the model's
classes (the distinct (k, delta) among its blocks): one normal per class
sum, five words per chi-square (two Marsaglia-Tsang attempts and a
gammaincinv fallback, exact whichever fires), and last the randomization
uniform of test cells.  They all come from one stream per cell, keyed
(cell seed, 2**64 - 1): replication r reads its Philox blocks
[r b, (r + 1) b), b = ceil((11H + 1) / 4).  The draw is at mu_bar = 0;
estimator and test cells add M_h k_h mu_bar to each class sum A_h per mean,
and contiguity cells turn the statistics into null N(0, I) statistics
(likelihood.lr_draw).

Threads: each cell is planned (model, kernels, graphs, and the keys of its
per-replication values: an estimate per estimator or graph, the log-LR W of
a contiguity cell, a rejection 1{p > u} per test and mean) and gets one
array of length reps per key.  Its replication chunks (sampler._chunks,
_class_chunks) are cut into min(threads, chunks) contiguous runs; a task
evaluates one run in the harness's one chunk loop, which writes each
replication's values by its index, and returns only its error.  The pool
works through the tasks of every cell in order, so one large cell spreads
over the workers instead of holding up the sweep.  A cell's metrics are
computed from its filled arrays once its tasks are done (a test cell counts
its rejections there), so the report does not depend on the thread count.
A cell whose plan raises gets no tasks; a task that raises quarantines its
cell with the error of the cell's first failing run, which is the same at
any thread count.  With threads = 1 each cell is a single task, planned, run
and finished before the next cell is planned.

Each estimator and test is one kernel over the drawn class statistics,
looked up by its config name (estimators.*_stat_rows,
inference_tests.*_stat_rows).  A test rejects in a replication when its
rejection probability p exceeds the replication's uniform u:
p = 2 alpha 1{xbar >= 0} for the sign test and p = 1{statistic > critical}
for the cluster t and z tests.  A cell whose metric has a value or standard
error that is not finite is quarantined (DegenerateDataError), since the JSON
report could not hold it.

Config schema (JSON; a sweep {"master_seed": ..., "experiments": [...]}, or
a single experiment object carrying its master_seed, which is read as a
one-entry sweep):

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
exactly one mean (default 0), and contiguity, whose data are null N(0, I)
draws, only mu_bar = 0.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

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
from .errors import DegenerateDataError, InvalidInputError, require_int
from .estimators import (
    cluster_stat_rows,
    graph_rows,
    sample_variance_stat_rows,
    second_moment_stat_rows,
)
from .graphs import generate_graph
from .inference_tests import cluster_t_stat_rows, sign_test_stat_rows, z_test_stat_rows
from .likelihood import _check_budget, lr_draw, lr_metrics
from .sampler import _chunks, _class_chunks, class_stat_rows, sample_rows

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, a design, an n grid, and budgets."""

    experiment: str
    design: dict
    n_grid: tuple[int, ...]
    replications: int
    alpha: float
    epsilon: float


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

    Returns (master_seed, entries).  Accepts a sweep {"master_seed": ...,
    "experiments": [...]}, whose entries must not carry their own master_seed,
    or a single experiment object, read as a one-entry sweep with the
    object's master_seed.
    """
    if isinstance(source, dict):
        obj = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InvalidInputError("config must be a JSON object")
    if "experiments" not in obj:
        entry = dict(obj)
        obj = {"master_seed": entry.pop("master_seed", None), "experiments": [entry]}
    seed = require_int(obj.get("master_seed"), "top-level master_seed")
    raw_entries = obj["experiments"]
    if not isinstance(raw_entries, list) or not raw_entries:
        raise InvalidInputError("experiments must be a nonempty list")
    entries = []
    for pos, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise InvalidInputError("experiment entry must be a JSON object")
        if "master_seed" in raw:
            raise InvalidInputError("sweep entries must not carry master_seed (set it top-level)")
        entries.append(_parse_entry(raw, pos))
    return seed, entries


def _as_float(value, name: str) -> float:
    """A finite number.  JSON's NaN and Infinity tokens are refused, and so
    are integers beyond the float range (the comparison with the largest
    float is exact and is False for NaN)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _parse_entry(raw: dict, pos: int) -> ExperimentConfig:
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
    n_grid = tuple(require_int(n, "n_grid entry") for n in n_grid)
    if any(n < 1 for n in n_grid):
        raise InvalidInputError("n_grid entries must be >= 1")
    reps = require_int(raw.get("replications"), "replications")
    if reps < 100:
        raise InvalidInputError("replications must be >= 100")
    alpha = _as_float(raw.get("alpha", 0.05), "alpha")
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    epsilon = _as_float(raw.get("epsilon", 0.1), "epsilon")
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
    )


def _json_dict(pairs) -> dict:
    """asdict's dict_factory: tuple fields become JSON lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


def canonical_config(master_seed: int, entries) -> dict:
    """The normalized sweep this run will execute (defaults applied)."""
    return {
        "master_seed": master_seed,
        "experiments": [asdict(e, dict_factory=_json_dict) for e in entries],
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
        k = require_int(spec.get("clusters"), "clusters")
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
        return [_as_float(v, "delta value") for v in values]
    if scheme == "common-variance":
        return deltas_for_common_variance(cs, _as_float(spec.get("value"), "delta value"))
    value = _as_float(spec.get("value"), "delta value")
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
    if not isinstance(entries, list) or not entries:
        raise InvalidInputError(f"design.mu must be a nonempty list, got {entries!r}")
    resolved = []
    for entry in entries:
        if isinstance(entry, dict):
            if set(entry) != {"drift"}:
                raise InvalidInputError(f"bad mu entry {entry!r}")
            c = _as_float(entry["drift"], "drift")
            resolved.append(
                (f"drift{c!r}", c * math.sqrt(sigma_sq) / math.sqrt(n))
            )
        else:
            value = _as_float(entry, "mu entry")
            resolved.append((repr(value), value))
    return resolved


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
    """(model, sigma_LR^2, [(label, mu_bar)]) of one cell; see the module
    docstring for which kinds take which means."""
    model = block_model(cs, _resolve_deltas(entry.design.get("deltas"), cs))
    sigma_sq = long_run_variance(model)
    mu_points = _resolve_mu(entry.design.get("mu", [0.0]), sigma_sq, cs.n)
    if entry.experiment != "test_size_power" and len(mu_points) != 1:
        raise InvalidInputError("this experiment kind takes exactly one mu entry")
    if entry.experiment == "contiguity" and mu_points[0][1] != 0.0:
        raise InvalidInputError(f"contiguity takes mu_bar = 0 only, got {mu_points[0][1]!r}")
    return model, sigma_sq, mu_points


def _kernel_names(names, kernels: dict, what: str):
    if not (isinstance(names, list) and names and all(isinstance(name, str) for name in names)):
        raise InvalidInputError(f"design.{what}s must be a nonempty list of names, got {names!r}")
    for name in names:
        if name not in kernels:
            raise InvalidInputError(f"unknown {what} {name!r}")
    return names


@dataclass(frozen=True)
class _Plan:
    """A cell's work.

    chunks are the cell's replication ranges (lo, hi).  rows(lo, hi)
    evaluates one chunk into one array of per-replication values per key of
    keys, in that order; the cell writes each by its replication index into
    an array of length reps per key.  finish(acc) turns those filled arrays,
    a dict keyed like keys, into the cell's metrics.  Disjoint chunks may be
    evaluated concurrently.
    """

    chunks: list
    keys: list
    rows: Callable
    finish: Callable


def _plan_estimator_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int) -> _Plan:
    model, sigma_sq, [(_, mu_bar)] = _resolve_cell(entry, cs)
    # The kernel tables are built per cell from the module names, so that
    # wrappers installed on those names (perfbench/spans.py) see the calls.
    kernels = {
        "sample_variance": sample_variance_stat_rows,
        "cluster": cluster_stat_rows,
        "second_moment": second_moment_stat_rows,
    }
    names = _kernel_names(
        entry.design.get("estimators", ["cluster", "sample_variance"]), kernels, "estimator"
    )
    mass = model.class_counts * model.class_sizes

    def rows(lo, hi):
        a, q, t, _ = class_stat_rows(model, seed, range(lo, hi))
        a = a + mass * mu_bar if mu_bar != 0.0 else a
        return [kernels[name](a, q, t, model) for name in names]

    def finish(acc):
        return [m for name in names for m in _moment_metrics(name, acc[name], sigma_sq)]

    return _Plan(list(_class_chunks(model, entry.replications)), names, rows, finish)


def _plan_contiguity_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int) -> _Plan:
    model, _, _ = _resolve_cell(entry, cs)
    reps = entry.replications
    _check_budget(entry.epsilon, reps)

    def rows(lo, hi):
        return [lr_draw(model, seed, range(lo, hi))]

    def finish(acc):
        diag = lr_metrics(model, entry.epsilon, acc["w"])
        metrics = [
            Metric("mean_lr", diag["mean_lr"], diag["se_mean_lr"]),
            Metric("moment_1pe", diag["moment_1pe"], diag["se_moment_1pe"]),
        ]
        if diag["ks"] is not None:
            # The KS statistic has no closed-form SE; report the conservative
            # DKW-style bound 0.5/sqrt(reps).
            metrics.append(Metric("ks", diag["ks"], 0.5 / math.sqrt(reps)))
        return metrics

    return _Plan(list(_class_chunks(model, reps)), ["w"], rows, finish)


def _plan_test_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int) -> _Plan:
    model, sigma_sq, mu_points = _resolve_cell(entry, cs)
    kernels = {"sign": sign_test_stat_rows, "cluster_t": cluster_t_stat_rows, "z": z_test_stat_rows}
    tests = _kernel_names(entry.design.get("tests", ["sign", "cluster_t"]), kernels, "test")
    z_bound = entry.design.get("z_bound", "oracle")
    c = sigma_sq if z_bound == "oracle" else _as_float(z_bound, "z_bound")
    reps = entry.replications
    keys = [(name, label) for name in tests for label, _ in mu_points]
    mass = model.class_counts * model.class_sizes

    def rows(lo, hi):
        # each chunk is drawn once at mu_bar = 0, and A shifted by M_h k_h
        # mu_bar per mean
        a_0, q, t, u = class_stat_rows(model, seed, range(lo, hi))
        shifted = [a_0 + mass * mu_bar if mu_bar != 0.0 else a_0 for _, mu_bar in mu_points]
        return [
            kernels[name](a, q, t, model, entry.alpha, c)[-1] > u
            for name in tests
            for a in shifted
        ]

    def finish(acc):
        # keys, not the dict: a repeated name must repeat its metric
        counts = [(key, int(np.count_nonzero(acc[key]))) for key in keys]
        return [
            Metric(f"{name}_reject[mu={label}]", k / reps, _proportion_se(k, reps))
            for (name, label), k in counts
        ]

    return _Plan(list(_class_chunks(model, reps)), keys, rows, finish)


def _plan_graph_cell(entry: ExperimentConfig, cs: ClusterStructure, seed: int) -> _Plan:
    model, sigma_sq, [(_, mu_bar)] = _resolve_cell(entry, cs)
    specs = entry.design.get("graphs")
    if not isinstance(specs, list) or not specs:
        raise InvalidInputError("graph_estimation needs a design.graphs list")
    graphs = []
    for pos, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise InvalidInputError(f"design.graphs entries must be objects, got {spec!r}")
        kind = spec.get("kind")
        gid = spec.get("id", f"{kind}-{pos}")
        if not isinstance(gid, str):
            raise InvalidInputError(f"graph id must be a string, got {gid!r}")
        g = generate_graph(kind, cs=cs, n=cs.n)
        g.clique_cover  # built here, once, not by whichever chunk reaches it first
        graphs.append((gid, g))

    # Each thread keeps its last chunk's rows until it draws the next chunk,
    # as a loop variable would, so the allocator reuses their buffer: freed
    # at the end of each chunk, their pages went back to the system and every
    # chunk faulted them in again (16x the page faults at n = 10^4).
    held = threading.local()

    def rows(lo, hi):
        X = held.rows = sample_rows(model, mu_bar, seed, range(lo, hi))
        return [graph_rows(X, g) for _, g in graphs]

    def finish(acc):
        return [
            m for gid, _ in graphs for m in _moment_metrics(f"graph[{gid}]", acc[gid], sigma_sq)
        ]

    return _Plan(list(_chunks(entry.replications, cs.n)), [gid for gid, _ in graphs], rows, finish)


_PLANNERS = {
    "estimator_consistency": _plan_estimator_cell,
    "contiguity": _plan_contiguity_cell,
    "test_size_power": _plan_test_cell,
    "graph_estimation": _plan_graph_cell,
}
EXPERIMENT_KINDS = tuple(_PLANNERS)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _checked(metrics) -> tuple[Metric, ...]:
    """The metrics, refused when their names repeat or a value or standard
    error is not finite (the JSON report could not hold it)."""
    metrics = tuple(metrics)
    names = [m.metric for m in metrics]
    if len(set(names)) != len(names):
        raise InvalidInputError(f"metric names repeat: {names}")
    for m in metrics:
        if not (math.isfinite(m.value) and math.isfinite(m.se)):
            raise DegenerateDataError(f"metric {m.metric} is not finite: {m.value} +- {m.se}")
    return metrics


class _Cell:
    """One (design, n) cell of a sweep: its plan, one array of length reps
    per key of the plan, the runs of chunks its tasks evaluate into them, and
    the count of runs still pending.

    A cell whose plan raises is quarantined and has no runs.  Once its last
    run is in, the cell is finished: quarantined with the error of its first
    failing run if one failed (runs come back in task order, so it is the
    lowest-numbered), else given the metrics of its plan's finish step and
    the summary of its structure.  Then the structure, the plan and the
    arrays are dropped.
    """

    def __init__(self, entry: ExperimentConfig, n: int, seed: int, threads: int):
        self.entry, self.n, self.seed = entry, n, seed
        self.plan = self.acc = self.error = None
        self.metrics, self.runs = (), []
        self.summary = (0, 0, 0.0, 0.0)  # n_star, M, h, max_cluster_share
        try:
            self.cs = _resolve_structure(entry.design.get("structure"), n)
            self.plan = _PLANNERS[entry.experiment](entry, self.cs, seed)
        except Exception as exc:  # quarantine the cell, keep the sweep going
            self.cs, self.error = None, _describe(exc)
            return
        self.acc = {key: np.empty(entry.replications) for key in self.plan.keys}
        # min(threads, chunks) contiguous runs of near-equal chunk counts
        # (one, possibly empty, when there are no chunks)
        chunks = self.plan.chunks
        parts = max(1, min(threads, len(chunks)))
        bounds = [len(chunks) * p // parts for p in range(parts + 1)]
        self.runs = [chunks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.pending = len(self.runs)

    def collect(self, error: str | None) -> None:
        """Take the error (None if it succeeded) of the cell's next run."""
        self.error = self.error or error
        self.pending -= 1
        if self.pending:
            return
        if self.error is None:
            try:
                metrics = _checked(self.plan.finish(self.acc))
                cs = self.cs
                self.summary = (cs.n_star, cs.M, cs.heterogeneity, max_cluster_share(cs))
                self.metrics = metrics
            except Exception as exc:  # quarantine the cell, keep the sweep going
                self.error = _describe(exc)
        self.cs = self.plan = self.acc = None

    def result(self) -> CellResult:
        n_star, M, h, share = self.summary
        return CellResult(
            experiment=self.entry.experiment,
            design_id=str(self.entry.design["id"]),
            n=self.n,
            n_star=n_star,
            M=M,
            h=h,
            max_cluster_share=share,
            reps=self.entry.replications,
            seed=self.seed,
            metrics=self.metrics,
            error=self.error,
        )


def _run_task(task):
    """(cell, None) once one run of a cell's chunks has written each chunk's
    rows by replication index into the cell's arrays, or (cell, error) when
    it raises.  This is the harness's one chunk loop."""
    cell, run = task
    plan, acc = cell.plan, cell.acc
    try:
        for lo, hi in run:
            for key, values in zip(plan.keys, plan.rows(lo, hi)):
                acc[key][lo:hi] = values
    except Exception as exc:  # quarantined by the cell once its runs are in
        return cell, _describe(exc)
    return cell, None


# ---------------------------------------------------------------------------
# Entry points


def run_sweep(entries, master_seed: int, threads: int = 1) -> ExperimentReport:
    """Evaluate every (design, n) cell of every experiment, in a fixed order.

    Cell i uses master seed master_seed + i.  The unit of threaded work is a
    contiguous run of one cell's replication chunks (see the module
    docstring), and the report is identical for any threads >= 1.
    """
    entries = list(entries)
    threads = int(threads)
    if threads < 1:
        raise InvalidInputError("threads must be >= 1")
    cells = []

    def tasks():
        # Lazy: the serial map below plans a cell only when the previous
        # cell's tasks have run.
        index = 0
        for entry in entries:
            for n in entry.n_grid:
                cell = _Cell(entry, n, master_seed + index, threads)
                cells.append(cell)
                index += 1
                for run in cell.runs:
                    yield cell, run

    with ThreadPoolExecutor(max_workers=threads) as pool:
        # Executor.map submits every task at once and yields the outcomes in
        # task order; the built-in map runs each task when its outcome is read.
        for cell, error in (pool.map if threads > 1 else map)(_run_task, tasks()):
            cell.collect(error)
    return ExperimentReport(
        version=__version__,
        master_seed=master_seed,
        config_sha256=config_hash(master_seed, entries),
        cells=tuple(cell.result() for cell in cells),
    )


def report_to_dict(report: ExperimentReport) -> dict:
    return asdict(report, dict_factory=_json_dict)


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
