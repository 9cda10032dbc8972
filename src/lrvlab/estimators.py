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

All but the graph estimator depend on the data only through the block sums
S1 and residual masses T of cluster_model.block_stats, and each has exactly
one kernel over them, *_stat_rows(S1, T, sizes) (the cluster estimator
ignores T; the shared signature lets the harness look kernels up by name).
The data-row forms reduce X first and call that kernel; the harness calls it
on the statistics it draws directly.  Without a structure, every observation
is its own block: S1 = X and T is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .cluster_model import ClusterStructure, block_sums
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


def _centred_block_sums(s1: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """sum_{i in m} (x_i - xbar) = S1_m - k_m xbar, per row and block."""
    xbar = s1.sum(axis=-1, keepdims=True) / sizes.sum()
    return s1 - sizes * xbar


def sample_variance_stat_rows(s1: np.ndarray, t: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(1/n) sum (x - xbar)^2 from block statistics.

    The total square mass about xbar splits into the within-block residual
    masses and the between-block part sum_m (S1_m - k_m xbar)^2 / k_m.
    """
    d = _centred_block_sums(s1, sizes)
    return (t.sum(axis=-1) + np.einsum("...m,...m->...", d, d / sizes)) / sizes.sum()


def cluster_stat_rows(s1: np.ndarray, t, sizes: np.ndarray) -> np.ndarray:
    """(1/n) sum_m (S1_m - k_m xbar)^2 from block sums; t is unused."""
    d = _centred_block_sums(s1, sizes)
    return np.einsum("...m,...m->...", d, d) / sizes.sum()


def second_moment_stat_rows(s1: np.ndarray, t: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(1/n) sum x^2 = (sum_g T_g + sum_m S1_m^2 / k_m) / n from block statistics."""
    return (t.sum(axis=-1) + np.einsum("...m,...m->...", s1, s1 / sizes)) / sizes.sum()


def _singletons(X: np.ndarray):
    """(S1, T, sizes) of data rows with every observation its own block."""
    return X, X[..., :0], np.ones(X.shape[-1])


def sample_variance_rows(X: np.ndarray) -> np.ndarray:
    """(1/n) sum (x - xbar)^2 for each row of a (B, n) matrix."""
    return sample_variance_stat_rows(*_singletons(X))


def cluster_rows(X: np.ndarray, cs: ClusterStructure) -> np.ndarray:
    """(1/n) sum_m (sum_{i in m} (x_i - xbar))^2 for each row.

    The double sum over pairs inside each cluster collapses to the square of
    the cluster total of deviations, giving an O(n) evaluation.
    """
    return cluster_stat_rows(block_sums(X, cs), None, cs.sizes_array)


def graph_rows(X: np.ndarray, g: DependencyGraph) -> np.ndarray:
    """(1/n) sum_i sum_{j in N(i) or j = i} (x_i - xbar)(x_j - xbar) per row."""
    d = X - X.mean(axis=-1, keepdims=True)
    s = d @ _neighborhood_operator(g)
    return np.einsum("...i,...i->...", d, s) / g.n


def second_moment_rows(X: np.ndarray) -> np.ndarray:
    """(1/n) sum x^2 for each row; no centering (mean assumed known zero)."""
    return second_moment_stat_rows(*_singletons(X))


def _neighborhood_operator(g: DependencyGraph) -> scipy.sparse.csr_array:
    """Sparse A + I for the closed neighborhood sums of the graph estimator."""
    edges = g.edge_array()
    n = g.n
    rows = np.concatenate((edges[:, 0], edges[:, 1], np.arange(n)))
    cols = np.concatenate((edges[:, 1], edges[:, 0], np.arange(n)))
    vals = np.ones(rows.shape[0], dtype=np.float64)
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def lrv_sample_variance(x) -> LrvEstimate:
    """The naive variance estimator; requires n >= 2."""
    rows = _as_rows(x)
    if rows.shape[-1] < 2:
        raise InvalidInputError("sample variance needs at least two observations")
    return _make(sample_variance_rows(rows)[0], "sample_variance")


def lrv_cluster(x, cs: ClusterStructure) -> LrvEstimate:
    """The cluster estimator; equals lrv_sample_variance when all clusters are singletons."""
    rows = _as_rows(x)
    if rows.shape[-1] != cs.n:
        raise InvalidInputError(
            f"data has length {rows.shape[-1]}, structure has n = {cs.n}"
        )
    return _make(cluster_rows(rows, cs)[0], "cluster")


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
