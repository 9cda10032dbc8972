"""Cluster structures, block-equicorrelation covariance models, their spectra.

Observations 1..n are partitioned into M clusters occupying consecutive index
ranges (an arbitrary partition can be brought into this form by permuting
indices at ingestion).  The covariance models handled here are block diagonal
with equicorrelated blocks::

    Sigma_m = (1 - delta_m) I + delta_m 11'

Each block has two eigenvalues, top_m = 1 + (n_m - 1) delta_m on the ones
direction and base_m = 1 - delta_m with multiplicity n_m - 1.  A
BlockEquicorrModel checks on construction that both are positive and carries
them as arrays, so the sampler, the likelihood and the CLI read them rather
than derive them.

Everything on the production path is closed-form and O(n); dense matrices
appear only in oracles and validators and are capped at DENSE_N_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidInputError,
    ModelInvalidError,
    StructureMismatchError,
    require_int,
)

# Dense-matrix operations (oracles/validators only) refuse larger inputs.
DENSE_N_CAP = 2048


@dataclass(frozen=True)
class ClusterStructure:
    """A partition of {1,..,n} into M consecutive clusters.

    Attributes
    ----------
    sizes : tuple of int
        Cluster sizes n_m in index order.
    n : int
        Total number of observations, sum of sizes.
    n_star : int
        Number of observations living in non-singleton clusters.
    M : int
        Number of clusters.
    heterogeneity : float
        h = sum over non-singleton clusters of (n_m / n_star)^2, in [0, 1];
        0 exactly when there are no non-singleton clusters.
    """

    sizes: tuple[int, ...]
    n: int
    n_star: int
    M: int
    heterogeneity: float

    @cached_property
    def starts(self) -> np.ndarray:
        """Start offset of each cluster's index range (length M)."""
        return np.concatenate(([0], np.cumsum(self.sizes)[:-1])).astype(np.intp)

    @cached_property
    def sizes_array(self) -> np.ndarray:
        return np.asarray(self.sizes, dtype=np.intp)


def build_structure(sizes) -> ClusterStructure:
    """Validate a list of cluster sizes and derive the summary statistics.

    Raises InvalidInputError on an empty list, a size that is not an
    integer (a float or bool is refused, not converted) or any size < 1.
    """
    try:
        sizes = tuple(require_int(s, "cluster size") for s in sizes)
    except TypeError:
        raise InvalidInputError(f"cluster sizes must be integers, got {sizes!r}") from None
    if not sizes:
        raise InvalidInputError("cluster size list is empty")
    if any(s < 1 for s in sizes):
        raise InvalidInputError(f"cluster sizes must be >= 1, got {min(sizes)}")
    n = sum(sizes)
    n_star = sum(s for s in sizes if s >= 2)
    if n_star > 0:
        h = sum((s / n_star) ** 2 for s in sizes if s >= 2)
    else:
        h = 0.0
    return ClusterStructure(
        sizes=sizes, n=n, n_star=n_star, M=len(sizes), heterogeneity=h
    )


def max_cluster_share(cs: ClusterStructure) -> float:
    """max_m n_m / n — the finite-n negligibility diagnostic."""
    return max(cs.sizes) / cs.n


@dataclass(frozen=True)
class BlockEquicorrModel:
    """A block-equicorrelation covariance model, validated on construction.

    deltas holds one correlation per cluster, in cluster order; deltas given
    for singleton clusters are ignored and stored as 0.0.  Every instance is
    positive definite: 1 - delta_m > 0 and 1 + (n_m - 1) delta_m > 0 for each
    cluster, else ModelInvalidError naming the first offending cluster.
    c_bound, when set, certifies that every eigenvalue of Sigma - I (that is,
    -delta_m and (n_m - 1) delta_m) lies in [-c_bound, c_bound], else
    BudgetExceededError.  A wrong number of deltas or a c_bound that is not a
    nonnegative number raises InvalidInputError.  dataclasses.replace
    re-validates, so no invalid model can be built.
    """

    structure: ClusterStructure
    deltas: tuple[float, ...]
    c_bound: float | None = None

    def __post_init__(self):
        cs = self.structure
        deltas = [float(d) for d in self.deltas]
        if len(deltas) != cs.M:
            raise InvalidInputError(
                f"expected {cs.M} deltas (one per cluster), got {len(deltas)}"
            )
        c = self.c_bound
        if c is not None:
            c = float(c)
            if not (c >= 0.0):
                raise InvalidInputError(f"c_bound must be nonnegative, got {c}")
        deltas = tuple(d if k > 1 else 0.0 for k, d in zip(cs.sizes, deltas))
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "c_bound", c)
        invalid = ~((self.top > 0.0) & (self.base > 0.0))
        over = False
        if c is not None:
            magnitude = np.abs(self.deltas_array)
            over = (magnitude > c) | ((cs.sizes_array - 1) * magnitude > c)
        for m in np.flatnonzero(invalid | over)[:1]:  # the first offending cluster
            k, d = cs.sizes[m], deltas[m]
            if invalid[m]:
                raise ModelInvalidError(
                    f"cluster {m} (size {k}, delta {d}) is not positive definite: "
                    f"requires 1 - delta > 0 and 1 + (k-1) delta > 0"
                )
            raise BudgetExceededError(
                f"cluster {m} (size {k}, delta {d}) exceeds eigenvalue budget c = {c}"
            )

    @cached_property
    def deltas_array(self) -> np.ndarray:
        return np.asarray(self.deltas, dtype=np.float64)

    @cached_property
    def top(self) -> np.ndarray:
        """1 + (n_m - 1) delta_m per block: the eigenvalue on the ones direction."""
        return 1.0 + (self.structure.sizes_array - 1) * self.deltas_array

    @cached_property
    def base(self) -> np.ndarray:
        """1 - delta_m per block: the eigenvalue of multiplicity n_m - 1."""
        return 1.0 - self.deltas_array

    @cached_property
    def classes(self) -> np.ndarray:
        """The class of each block (length M).

        Blocks that share (n_m, delta_m) are exchangeable and form one class;
        classes are numbered 0, 1, ... in order of first appearance.  Every
        statistic but the graph estimator reads a draw only through the
        class statistics of class_stats.
        """
        index = {}
        keys = zip(self.structure.sizes, self.deltas)
        return np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)

    @cached_property
    def class_first(self) -> np.ndarray:
        """The first block of each class (length H); indexing a per-block
        array (sizes_array, deltas_array, top, base) with it gives the
        class's value."""
        return np.unique(self.classes, return_index=True)[1]

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """k_h: the block size of each class."""
        return self.structure.sizes_array[self.class_first]

    @cached_property
    def class_counts(self) -> np.ndarray:
        """M_h: the number of blocks in each class."""
        return np.bincount(self.classes)

    def spectrum(self, m: int) -> BlockSpectrum:
        """The closed-form spectrum of block m."""
        k = self.structure.sizes[m]
        return BlockSpectrum(
            size=k, delta=self.deltas[m], top_eigenvalue=float(self.top[m]),
            base_eigenvalue=float(self.base[m]), top_multiplicity=1, base_multiplicity=k - 1,
        )


block_model = BlockEquicorrModel


@dataclass(frozen=True)
class BlockSpectrum:
    """Closed-form spectrum of one equicorrelated block of size k.

    Eigenvalue 1 + (k-1) delta has multiplicity 1 with eigenvector ones/sqrt(k);
    eigenvalue 1 - delta has multiplicity k - 1 on the orthogonal complement of
    ones.  log det = log(top) + (k-1) log(base), summed as logs because the
    product top * base^(k-1) underflows for large blocks.
    """

    size: int
    delta: float
    top_eigenvalue: float
    base_eigenvalue: float
    top_multiplicity: int
    base_multiplicity: int

    def eigenvalues(self) -> np.ndarray:
        """All k eigenvalues, top first."""
        return np.concatenate(
            ([self.top_eigenvalue], np.full(self.base_multiplicity, self.base_eigenvalue))
        )

    def log_det(self) -> float:
        return math.log(self.top_eigenvalue) + self.base_multiplicity * math.log(
            self.base_eigenvalue
        )

    def basis(self) -> np.ndarray:
        """The canonical orthonormal eigenbasis (columns), first column ones/sqrt(k).

        The completion of the ones direction is the Helmert basis: column j
        (j = 2..k, 1-indexed) has entries 1/sqrt(j(j-1)) at positions < j,
        -(j-1)/sqrt(j(j-1)) at position j, and 0 after.  Deterministic, so
        rotated coordinates are reproducible.
        """
        k = self.size
        B = np.zeros((k, k))
        B[:, 0] = 1.0 / math.sqrt(k)
        for j in range(2, k + 1):
            norm = math.sqrt(j * (j - 1))
            B[: j - 1, j - 1] = 1.0 / norm
            B[j - 1, j - 1] = -(j - 1) / norm
        return B


def spectral_block(k: int, delta: float) -> BlockSpectrum:
    """Closed-form spectrum of (1 - delta) I_k + delta 11': the one block of
    BlockEquicorrModel(build_structure([k]), [delta]).

    Raises InvalidInputError when k is not an integer >= 1 and
    ModelInvalidError when the block is not positive definite.  For k = 1 the
    block is the 1x1 identity regardless of delta.
    """
    return BlockEquicorrModel(build_structure([k]), [delta]).spectrum(0)


def long_run_variance(model: BlockEquicorrModel) -> float:
    """Variance of the normalized sum: (1/n) 1' Sigma 1 = sum (n_m/n)(1 + (n_m-1) delta_m).

    The terms n_m top_m are added in cluster order (cumsum is sequential), so
    the value does not depend on numpy's pairwise summation.
    """
    cs = model.structure
    return float(np.cumsum(cs.sizes_array * model.top)[-1]) / cs.n


def block_sums(X, cs: ClusterStructure) -> np.ndarray:
    """S1: the sum of each row of a (B, n) matrix over each block, (B, M)."""
    if cs.M == cs.n:
        return X
    return np.add.reduceat(X, cs.starts, axis=-1)


def class_stats(X, model: BlockEquicorrModel):
    """(A, Q, T): the class statistics of each row of a (B, n) matrix, each (B, H).

    Over the M_h blocks m of class h (BlockEquicorrModel.classes), with block
    sums S1_m: the class sum A_h = sum S1_m, the within-class square mass
    Q_h = sum (S1_m - A_h / M_h)^2 and the residual mass
    T_h = sum sum_{i in m} (x_i - S1_m / k_h)^2.  Q and T are computed in two
    passes, means first and then centred squares, so they stay accurate when
    the means are large.
    """
    X = np.asarray(X, dtype=np.float64)
    cs = model.structure
    s1 = block_sums(X, cs)
    order = np.argsort(model.classes, kind="stable")
    bounds = np.flatnonzero(np.diff(model.classes[order], prepend=-1))

    def per_class(v):
        return np.add.reduceat(v[..., order], bounds, axis=-1)

    a = per_class(s1)
    dev = s1 - (a / model.class_counts)[..., model.classes]
    if cs.M == cs.n:  # all singletons: no residual mass
        return a, per_class(dev * dev), np.zeros_like(a)
    resid = X - np.repeat(s1 / cs.sizes_array, cs.sizes_array, axis=-1)
    t_block = np.add.reduceat(resid * resid, cs.starts, axis=-1)
    return a, per_class(dev * dev), per_class(t_block)


@lru_cache(maxsize=8)
def _singletons_model(n: int) -> BlockEquicorrModel:
    """The identity model on n singletons, built once per n."""
    return BlockEquicorrModel(build_structure([1] * n), (0.0,) * n)


def row_stats(X, cs: ClusterStructure | None = None):
    """(A, Q, T, model) of data rows X (B, n), in the argument order of the
    estimator and test kernels: class_stats under the identity model on cs,
    or on n singletons when cs is None (that model is shared by every call
    at one n).  The kernels read only the class sizes and counts of that
    model, so the deltas do not matter.  Raises InvalidInputError when the
    rows do not have length cs.n."""
    X = np.asarray(X, dtype=np.float64)
    if cs is None:
        model = _singletons_model(X.shape[-1])
    elif X.shape[-1] != cs.n:
        raise InvalidInputError(f"data has length {X.shape[-1]}, structure has n = {cs.n}")
    else:
        model = BlockEquicorrModel(cs, (0.0,) * cs.M)
    return (*class_stats(X, model), model)


def permutation_average(delta_dense: np.ndarray, cs: ClusterStructure):
    """Average each block of a dense correlation perturbation to equicorrelation.

    delta_dense must be a symmetric zero-diagonal matrix that is block diagonal
    along cs (entries outside the blocks exactly zero, StructureMismatchError
    otherwise).  Returns the per-cluster off-diagonal averages
    delta_m = 1' Delta_m 1 / (n_m (n_m - 1)) (0 for singletons), the unique
    equicorrelated block with the same total mass 1' Delta_m 1.
    """
    delta_dense = np.asarray(delta_dense, dtype=np.float64)
    if delta_dense.ndim != 2 or delta_dense.shape[0] != delta_dense.shape[1]:
        raise InvalidInputError("delta_dense must be a square matrix")
    if delta_dense.shape[0] != cs.n:
        raise InvalidInputError(
            f"matrix is {delta_dense.shape[0]}x{delta_dense.shape[0]}, structure has n={cs.n}"
        )
    if not np.array_equal(delta_dense, delta_dense.T):
        raise InvalidInputError("delta_dense must be symmetric")
    if np.any(np.diagonal(delta_dense) != 0.0):
        raise InvalidInputError("delta_dense must have a zero diagonal")
    mask = np.zeros_like(delta_dense, dtype=bool)
    for start, k in zip(cs.starts, cs.sizes):
        mask[start : start + k, start : start + k] = True
    if np.any(delta_dense[~mask] != 0.0):
        raise StructureMismatchError(
            "delta_dense has nonzero entries outside the declared blocks"
        )
    deltas = []
    for start, k in zip(cs.starts, cs.sizes):
        if k < 2:
            deltas.append(0.0)
            continue
        block = delta_dense[start : start + k, start : start + k]
        deltas.append(float(block.sum() / (k * (k - 1))))
    return deltas


def eigen_bounds(delta_dense: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a dense symmetric matrix, for budget checks.

    Oracle-path only; refuses n > DENSE_N_CAP.
    """
    delta_dense = np.asarray(delta_dense, dtype=np.float64)
    if delta_dense.ndim != 2 or delta_dense.shape[0] != delta_dense.shape[1]:
        raise InvalidInputError("expected a square matrix")
    if delta_dense.shape[0] > DENSE_N_CAP:
        raise InvalidInputError(
            f"dense operations are capped at n = {DENSE_N_CAP}"
        )
    if not np.array_equal(delta_dense, delta_dense.T):
        raise InvalidInputError("matrix is not symmetric")
    w = np.linalg.eigvalsh(delta_dense)
    return float(w[0]), float(w[-1])


def deltas_for_common_variance(cs: ClusterStructure, sigma_sq: float):
    """Deltas making every normalized cluster sum have variance sigma_sq.

    Var(n_m^{-1/2} sum_{i in m} X_i) = 1 + (n_m - 1) delta_m, so
    delta_m = (sigma_sq - 1)/(n_m - 1).  All clusters must have n_m >= 2.
    Raises ModelInvalidError when the implied deltas violate positive
    definiteness (feasible exactly when 0 < sigma_sq < min_m n_m).
    """
    sigma_sq = float(sigma_sq)
    if sigma_sq <= 0.0:
        raise InvalidInputError("sigma_sq must be positive")
    if any(k < 2 for k in cs.sizes):
        raise InvalidInputError(
            "common-variance deltas require every cluster size >= 2"
        )
    deltas = [(sigma_sq - 1.0) / (k - 1) for k in cs.sizes]
    block_model(cs, deltas)  # raises ModelInvalidError when infeasible
    return deltas


def dense_sigma(model: BlockEquicorrModel) -> np.ndarray:
    """Materialize Sigma densely (oracle/validator path; capped at DENSE_N_CAP)."""
    cs = model.structure
    if cs.n > DENSE_N_CAP:
        raise InvalidInputError(f"dense operations are capped at n = {DENSE_N_CAP}")
    sigma = np.eye(cs.n)
    for start, k, d in zip(cs.starts, cs.sizes, model.deltas):
        block = np.full((k, k), d)
        np.fill_diagonal(block, 1.0)
        sigma[start : start + k, start : start + k] = block
    return sigma
