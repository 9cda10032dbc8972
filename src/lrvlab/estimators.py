"""Four long-run-variance estimators.

All four target sigma_LR^2 = Var(n^{-1/2} sum X_i) but under different
knowledge of the dependence structure:

- sample_variance: ignores dependence; (1/n) sum (x_i - xbar)^2.
- cluster: sums all within-cluster cross products; consistent when the
  cluster structure is known and no cluster dominates.
- graph: sums cross products over graph-neighbor pairs (including i itself),
  evaluated as one product per edge.
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
Without a structure, the rows are reduced as one block of n.  On the graphs
that generate_graph builds, the graph estimator is also a closed form in
(A, Q, T) and the first value of each row (graph_stat_rows), which graph
cells use; graph_rows evaluates it on data rows for any graph, as a sum
over its edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster_model import BlockEquicorrModel, ClusterStructure, data_row, row_stats
from .errors import InvalidInputError
from .graphs import DependencyGraph


@dataclass(frozen=True)
class LrvEstimate:
    """A long-run-variance estimate; negative_flag is True iff value < 0.

    A cross-product estimate whose exact value is 0 (the graph estimator on
    a complete graph: d'11'd = 0 for centred d) reads as rounding noise of
    either sign, so there negative_flag flags cancellation, not a negative
    estimate.
    """

    value: float
    estimator_kind: str  # sample_variance | cluster | graph | second_moment
    negative_flag: bool


def _make(value: float, kind: str) -> LrvEstimate:
    value = float(value)
    return LrvEstimate(value=value, estimator_kind=kind, negative_flag=value < 0.0)


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


def graph_stat_rows(a, q, t, model: BlockEquicorrModel, x0, kind: str) -> np.ndarray:
    """The graph estimator on generate_graph(kind, cs=model.structure, n=n),
    from the class statistics of the rows and their first values x0 (B,).

    Each kind a sweep can name is a closed form in these, with d = x - xbar:
    the cluster graph of the model's own structure links exactly the pairs
    within each block, which is the cluster estimator; the empty graph keeps
    only the diagonal, the sample variance; the complete graph gives
    (sum d)^2 / n = 0; and the star about node 0 adds 2 d_0 sum_{i > 0} d_i =
    -2 d_0^2 to sum d^2.  Any other kind raises InvalidInputError, also on an
    empty batch, which is how a graph cell checks its kinds before drawing.
    """
    if kind == "cluster":
        return cluster_stat_rows(a, q, t, model)
    if kind == "empty":
        return sample_variance_stat_rows(a, q, t, model)
    if kind == "complete":
        return np.zeros_like(x0)
    if kind == "star":
        n = model.structure.n
        d0 = x0 - a.sum(axis=-1) / n
        return sample_variance_stat_rows(a, q, t, model) - 2.0 * d0 * d0 / n
    raise InvalidInputError(f"unknown graph kind {kind!r}")


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

    With d = x - xbar this is (1/n) [sum_i d_i^2 + 2 sum_{(u, v) in E} d_u d_v],
    one product per edge, so O(n + E) in time and memory per row.
    Row-independent: every gather and sum runs over each row of a
    C-contiguous array, so a one-row call is bit-identical to the same row
    inside any batch.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.shape[-1] != g.n:
        raise InvalidInputError(f"data has length {X.shape[-1]}, graph has n = {g.n}")
    d = X - X.mean(axis=-1, keepdims=True)
    # np.take, not d[..., idx]: fancy indexing returns F-strided rows, whose
    # sums would depend on the batch
    cross = np.take(d, g.edges[:, 0], axis=-1)
    cross *= np.take(d, g.edges[:, 1], axis=-1)
    d *= d
    return (d.sum(axis=-1) + 2.0 * cross.sum(axis=-1)) / g.n


def second_moment_rows(X: np.ndarray) -> np.ndarray:
    """(1/n) sum x^2 for each row; no centering (mean assumed known zero)."""
    return second_moment_stat_rows(*row_stats(X))


def lrv_sample_variance(x) -> LrvEstimate:
    """The naive variance estimator; requires n >= 2."""
    rows = data_row(x)
    if rows.shape[-1] < 2:
        raise InvalidInputError("sample variance needs at least two observations")
    return _make(sample_variance_rows(rows)[0], "sample_variance")


def lrv_cluster(x, cs: ClusterStructure) -> LrvEstimate:
    """The cluster estimator; equals lrv_sample_variance when all clusters are singletons."""
    return _make(cluster_rows(data_row(x), cs)[0], "cluster")


def lrv_graph(x, g: DependencyGraph) -> LrvEstimate:
    """The dependency-graph estimator over closed neighborhoods.

    On a graph whose estimate is exactly 0 (the complete graph) the value is
    rounding noise of either sign, tiny against the sample variance, so
    negative_flag may be set.
    """
    return _make(graph_rows(data_row(x), g)[0], "graph")


def lrv_second_moment(x) -> LrvEstimate:
    """The uncentered second moment, for designs with a known zero mean."""
    return _make(second_moment_rows(data_row(x))[0], "second_moment")
