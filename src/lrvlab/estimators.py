"""Four long-run-variance estimators.

All four target sigma_LR^2 = Var(n^{-1/2} sum X_i) but under different
knowledge of the dependence structure:

- sample_variance: ignores dependence; (1/n) sum (x_i - xbar)^2.
- cluster: sums all within-cluster cross products; consistent when the
  cluster structure is known and no cluster dominates.
- graph: sums cross products over graph-neighbor pairs (including i itself).
- second_moment: (1/n) sum x_i^2, valid under a known zero mean.

Estimates are reported raw — the cross-product estimators are not truncated
at zero — with a negative_flag instead.  Each scalar operation delegates to a
row kernel that evaluates whole (replications, n) batches.

All but the graph estimator depend on the data only through the class
statistics (A, Q, T) of cluster_model.class_stats, and each has exactly one
kernel over them, *_stat_rows(A, Q, T, model), which reads the model's class
sizes and counts (the cluster estimator ignores T; the test kernels of
inference_tests share the signature, so the harness looks kernels up by
name).  The data-row forms reduce X with cluster_model.row_stats and call
that kernel; the harness calls it on the statistics it draws directly.
Without a structure, every observation is its own block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster_model import BlockEquicorrModel, ClusterStructure, row_stats
from .errors import InvalidInputError
from .graphs import DependencyGraph


@dataclass(frozen=True)
class LrvEstimate:
    """A long-run-variance estimate; negative_flag is True iff value < 0."""

    value: float
    estimator_kind: str  # sample_variance | cluster | graph | second_moment
    negative_flag: bool


def _make(value: float, kind: str) -> LrvEstimate:
    value = float(value)
    return LrvEstimate(value=value, estimator_kind=kind, negative_flag=value < 0.0)


def _as_rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError("expected a 1-d data vector")
    return x[np.newaxis, :]


def _centred_block_mass(a: np.ndarray, q: np.ndarray, model: BlockEquicorrModel) -> np.ndarray:
    """sum over the blocks m of each class of (S1_m - k_m xbar)^2, per row.

    Over a class it is Q_h + M_h d_h^2 with d_h = A_h / M_h - k_h xbar, the
    within-class square mass plus the class's offset from the grand mean.
    """
    xbar = a.sum(axis=-1, keepdims=True) / model.structure.n
    d = a / model.class_counts - model.class_sizes * xbar
    return q + model.class_counts * d * d


def sample_variance_stat_rows(a, q, t, model: BlockEquicorrModel) -> np.ndarray:
    """(1/n) sum (x - xbar)^2 from class statistics.

    The total square mass about xbar splits into the residual masses and the
    between-block part sum_m (S1_m - k_m xbar)^2 / k_m.
    """
    block = _centred_block_mass(a, q, model) / model.class_sizes
    return (t.sum(axis=-1) + block.sum(axis=-1)) / model.structure.n


def cluster_stat_rows(a, q, t, model: BlockEquicorrModel) -> np.ndarray:
    """(1/n) sum_m (S1_m - k_m xbar)^2 from class statistics; t is unused."""
    return _centred_block_mass(a, q, model).sum(axis=-1) / model.structure.n


def second_moment_stat_rows(a, q, t, model: BlockEquicorrModel) -> np.ndarray:
    """(1/n) sum x^2 = (sum T + sum_m S1_m^2 / k_m) / n from class statistics,
    with sum over a class of S1_m^2 = Q_h + A_h^2 / M_h."""
    block = (q + a * a / model.class_counts) / model.class_sizes
    return (t.sum(axis=-1) + block.sum(axis=-1)) / model.structure.n


def sample_variance_rows(X: np.ndarray) -> np.ndarray:
    """(1/n) sum (x - xbar)^2 for each row of a (B, n) matrix."""
    return sample_variance_stat_rows(*row_stats(X))


def cluster_rows(X: np.ndarray, cs: ClusterStructure) -> np.ndarray:
    """(1/n) sum_m (sum_{i in m} (x_i - xbar))^2 for each row.

    The double sum over pairs inside each cluster collapses to the square of
    the cluster total of deviations, giving an O(n) evaluation.
    """
    return cluster_stat_rows(*row_stats(X, cs))


def graph_rows(X: np.ndarray, g: DependencyGraph) -> np.ndarray:
    """(1/n) sum_i sum_{j in N(i) or j = i} (x_i - xbar)(x_j - xbar) per row.

    Row-independent: the neighborhood sums s add each node's neighbors in
    one fixed order, and the product d s is summed over each row of a
    C-contiguous array, so a one-row call is bit-identical to the same row
    inside any batch.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    d = X - X.mean(axis=-1, keepdims=True)
    d *= d @ g.neighborhood_operator
    return d.sum(axis=-1) / g.n


def second_moment_rows(X: np.ndarray) -> np.ndarray:
    """(1/n) sum x^2 for each row; no centering (mean assumed known zero)."""
    return second_moment_stat_rows(*row_stats(X))


def lrv_sample_variance(x) -> LrvEstimate:
    """The naive variance estimator; requires n >= 2."""
    rows = _as_rows(x)
    if rows.shape[-1] < 2:
        raise InvalidInputError("sample variance needs at least two observations")
    return _make(sample_variance_rows(rows)[0], "sample_variance")


def lrv_cluster(x, cs: ClusterStructure) -> LrvEstimate:
    """The cluster estimator; equals lrv_sample_variance when all clusters are singletons."""
    return _make(cluster_rows(_as_rows(x), cs)[0], "cluster")


def lrv_graph(x, g: DependencyGraph) -> LrvEstimate:
    """The dependency-graph estimator over closed neighborhoods."""
    rows = _as_rows(x)
    if rows.shape[-1] != g.n:
        raise InvalidInputError(f"data has length {rows.shape[-1]}, graph has n = {g.n}")
    return _make(graph_rows(rows, g)[0], "graph")


def lrv_second_moment(x) -> LrvEstimate:
    """The uncentered second moment, for designs with a known zero mean."""
    rows = _as_rows(x)
    if rows.shape[-1] < 1:
        raise InvalidInputError("empty data vector")
    return _make(second_moment_rows(rows)[0], "second_moment")
