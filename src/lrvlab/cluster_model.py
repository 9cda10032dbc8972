"""Cluster structures, block-equicorrelation covariance models, their spectra.

Observations 1..n are partitioned into M clusters occupying consecutive index
ranges (an arbitrary partition can be brought into this form by permuting
indices at ingestion).  The covariance models handled here are block diagonal
with equicorrelated blocks::

    Sigma_m = (1 - delta_m) I + delta_m 11'

Each block has two eigenvalues, top_m = 1 + (n_m - 1) delta_m on the ones
direction and base_m = 1 - delta_m with multiplicity n_m - 1, and the log
determinant log_det_m = log1p((n_m - 1) delta_m) + (n_m - 1) log1p(-delta_m).
A BlockEquicorrModel checks on construction that both eigenvalues are
positive and carries top, base and log_det as arrays, so the sampler, the
likelihood and the CLI read them rather than derive them.

Blocks that share (n_m, delta_m) form a class (BlockEquicorrModel.classes),
and the statistics read a draw through per-class sums.  A model builds its
class reducer once (class_reducer); it gathers the blocks into class order
only when a class is split into several runs of blocks, which only explicit
sizes or deltas can give.  Building a structure and a model costs a few numpy
passes over the M blocks: sizes that are all Python ints and deltas that are
all finite Python floats are checked at once, anything else one element at a
time.

Everything on the production path is closed-form and O(n); dense matrices
appear only in oracles and validators and are capped at DENSE_N_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidInputError,
    ModelInvalidError,
    StructureMismatchError,
    require_float,
    require_int,
)

# Dense-matrix operations (oracles/validators only) refuse larger inputs.
DENSE_N_CAP = 2048

# The largest index numpy can hold: a structure's n and a graph's n above it
# are refused, as their index arrays could not be built.
INDEX_MAX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class ClusterStructure:
    """A partition of {1,..,n} into M consecutive clusters, validated on
    construction.

    sizes holds the cluster sizes n_m in index order; an empty list, a size
    that is not an integer (a float or bool is refused, not converted), a
    size < 1 and sizes that sum to more than INDEX_MAX raise
    InvalidInputError.  dataclasses.replace re-validates, so no invalid
    structure can be built.  The summaries derive from sizes:

    n : total number of observations, sum of sizes.
    n_star : number of observations living in non-singleton clusters.
    M : number of clusters.
    heterogeneity : h = sum over non-singleton clusters of (n_m / n_star)^2,
        in [0, 1]; 0 exactly when there are no non-singleton clusters.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        try:
            sizes = tuple(self.sizes)
        except TypeError:
            raise InvalidInputError(f"cluster sizes must be integers, got {self.sizes!r}") from None
        if not set(map(type, sizes)) <= {int}:  # plain ints need no per-size check
            sizes = tuple(require_int(s, "cluster size") for s in sizes)
        if not sizes:
            raise InvalidInputError("cluster size list is empty")
        if min(sizes) < 1:
            raise InvalidInputError(f"cluster sizes must be >= 1, got {min(sizes)}")
        object.__setattr__(self, "sizes", sizes)
        if self.n > INDEX_MAX:
            raise InvalidInputError(
                f"structure n (the sum of the cluster sizes) must be at most {INDEX_MAX}, got {self.n}"
            )

    @cached_property
    def n(self) -> int:
        return sum(self.sizes)

    @cached_property
    def n_star(self) -> int:
        return self.n - self.sizes.count(1)

    @cached_property
    def M(self) -> int:
        return len(self.sizes)

    @cached_property
    def heterogeneity(self) -> float:
        """Each distinct size's squared share is taken once, with Python's
        float power (numpy's square rounds differently from it about once in
        10^3).  sum adds the shares in cluster order, a singleton's as 0.0,
        which leaves every partial sum as it was: the bits of a sum over the
        non-singleton clusters, without a Python step per cluster."""
        squares = {k: (k / self.n_star) ** 2 if k > 1 else 0.0 for k in set(self.sizes)}
        return sum(map(squares.__getitem__, self.sizes), 0.0)

    @cached_property
    def starts(self) -> np.ndarray:
        """Start offset of each cluster's index range (length M)."""
        return np.concatenate(([0], np.cumsum(self.sizes)[:-1])).astype(np.intp)

    @cached_property
    def sizes_array(self) -> np.ndarray:
        return np.asarray(self.sizes, dtype=np.intp)


build_structure = ClusterStructure


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
    finite nonnegative number (a bool is refused, not converted) raises
    InvalidInputError, and so does a delta that is not a finite number (a
    string or a bool is refused, not converted).  dataclasses.replace
    re-validates, so no invalid model can be built.  deltas_array holds the
    stored deltas as a float64 array.
    """

    structure: ClusterStructure
    deltas: tuple[float, ...]
    c_bound: float | None = None

    def __post_init__(self):
        cs = self.structure
        deltas = tuple(self.deltas)
        # plain finite floats are checked in one pass, anything else one by one
        array = np.array(deltas, dtype=np.float64) if set(map(type, deltas)) <= {float} else None
        plain = array is not None and bool(np.isfinite(array).all())
        if not plain:
            array = np.array([require_float(d, "delta") for d in deltas], dtype=np.float64)
        if array.size != cs.M:
            raise InvalidInputError(
                f"expected {cs.M} deltas (one per cluster), got {array.size}"
            )
        c = self.c_bound
        if c is not None:
            c = require_float(c, "c_bound")
            if not (c >= 0.0):
                raise InvalidInputError(f"c_bound must be nonnegative, got {c}")
        if cs.n_star < cs.n:  # a singleton's delta is stored as 0.0
            plain, array = False, np.where(cs.sizes_array > 1, array, 0.0)
        # plain floats are stored as given: the floats the array holds
        object.__setattr__(self, "deltas", deltas if plain else tuple(array.tolist()))
        object.__setattr__(self, "deltas_array", array)
        object.__setattr__(self, "c_bound", c)
        invalid = ~((self.top > 0.0) & (self.base > 0.0))
        over = False
        if c is not None:
            magnitude = np.abs(self.deltas_array)
            over = (magnitude > c) | ((cs.sizes_array - 1) * magnitude > c)
        for m in np.flatnonzero(invalid | over)[:1]:  # the first offending cluster
            k, d = cs.sizes[m], self.deltas[m]
            if invalid[m]:
                raise ModelInvalidError(
                    f"cluster {m} (size {k}, delta {d}) is not positive definite: "
                    f"requires 1 - delta > 0 and 1 + (k-1) delta > 0"
                )
            raise BudgetExceededError(
                f"cluster {m} (size {k}, delta {d}) exceeds eigenvalue budget c = {c}"
            )

    @cached_property
    def top(self) -> np.ndarray:
        """1 + (n_m - 1) delta_m per block: the eigenvalue on the ones direction."""
        return 1.0 + (self.structure.sizes_array - 1) * self.deltas_array

    @cached_property
    def base(self) -> np.ndarray:
        """1 - delta_m per block: the eigenvalue of multiplicity n_m - 1."""
        return 1.0 - self.deltas_array

    @cached_property
    def log_det(self) -> np.ndarray:
        """log det Sigma_m = log(top_m) + (n_m - 1) log(base_m) per block,
        summed as logs (the product underflows for large blocks) and taken
        with log1p, which keeps the digits that log(1 + x) loses when
        (n_m - 1) delta_m is small, as along local alternatives
        n delta_n -> delta."""
        k, d = self.structure.sizes_array.astype(np.float64), self.deltas_array
        return np.log1p((k - 1.0) * d) + (k - 1.0) * np.log1p(-d)

    @cached_property
    def classes(self) -> np.ndarray:
        """The class of each block (length M).

        Blocks that share (n_m, delta_m) are exchangeable and form one class;
        classes are numbered 0, 1, ... in order of first appearance.  Every
        statistic but the graph estimator reads a draw only through the
        class statistics of class_stats, and so does the graph estimator on
        the graphs generate_graph builds, with each row's first value
        (estimators.graph_stat_rows).
        """
        return self._numbering[0]

    @cached_property
    def class_first(self) -> np.ndarray:
        """The first block of each class (length H); indexing a per-block
        array (sizes_array, deltas_array, top, base, log_det) with it gives the
        class's value."""
        return self._numbering[1]

    @cached_property
    def _numbering(self) -> tuple[np.ndarray, np.ndarray]:
        """(classes, class_first), from one stable sort of the blocks by key."""
        k, d = self.structure.sizes_array, self.deltas_array
        order = np.lexsort((d, k))  # stable: each class's blocks in index order
        k, d = k[order], d[order]
        new = np.ones(k.size, dtype=bool)  # where a class starts in that order
        new[1:] = (k[1:] != k[:-1]) | (d[1:] != d[:-1])
        first = order[new]  # the first block of each class, in key order
        by_appearance = np.argsort(first)
        number = np.empty(first.size, dtype=np.intp)
        number[by_appearance] = np.arange(first.size)
        classes = np.empty(k.size, dtype=np.intp)
        classes[order] = number[np.cumsum(new) - 1]
        return classes, first[by_appearance]

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """k_h: the block size of each class."""
        return self.structure.sizes_array[self.class_first]

    @cached_property
    def class_counts(self) -> np.ndarray:
        """M_h: the number of blocks in each class."""
        return np.bincount(self.classes)

    @cached_property
    def _class_reducer(self):
        """See class_reducer."""
        counts = self.class_counts
        bounds = np.cumsum(counts) - counts  # where each class starts in class order
        # Classes are numbered by first appearance, so each is one run of
        # blocks exactly when it starts where the blocks of the classes before
        # it end; then the blocks already sit in class order.
        if np.array_equal(self.class_first, bounds):
            order = slice(None)  # a view, no copy
        else:
            order = np.argsort(self.classes, kind="stable")
        return lambda v: np.add.reduceat(v[..., order], bounds, axis=-1)

block_model = BlockEquicorrModel


@dataclass(frozen=True)
class BlockSpectrum:
    """Closed-form spectrum of one equicorrelated block of size k.

    Eigenvalue 1 + (k-1) delta has multiplicity 1 with eigenvector ones/sqrt(k);
    eigenvalue 1 - delta has multiplicity k - 1 on the orthogonal complement of
    ones.  log_det() is the log_det of the one-block model.
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
        return float(BlockEquicorrModel(ClusterStructure([self.size]), [self.delta]).log_det[0])

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
    BlockEquicorrModel(ClusterStructure([k]), [delta]).

    Raises InvalidInputError when k is not an integer >= 1 and
    ModelInvalidError when the block is not positive definite.  For k = 1 the
    block is the 1x1 identity regardless of delta.
    """
    model = BlockEquicorrModel(ClusterStructure([k]), [delta])
    k = model.structure.sizes[0]
    return BlockSpectrum(
        size=k, delta=model.deltas[0], top_eigenvalue=float(model.top[0]),
        base_eigenvalue=float(model.base[0]), top_multiplicity=1, base_multiplicity=k - 1,
    )


def long_run_variance(model: BlockEquicorrModel) -> float:
    """Variance of the normalized sum: (1/n) 1' Sigma 1 = sum (n_m/n)(1 + (n_m-1) delta_m).

    The terms n_m top_m are added in cluster order (cumsum is sequential), so
    the value does not depend on numpy's pairwise summation.
    """
    cs = model.structure
    return float(np.cumsum(cs.sizes_array * model.top)[-1]) / cs.n


def block_sums(X, cs: ClusterStructure) -> np.ndarray:
    """S1: the sum of each row of a (B, n) matrix over each block, (B, M).

    np.add.reduceat runs one inner loop per block.  Two or more blocks that
    all have one power-of-two size k >= 2 (pairs, quads) are summed without
    it, on the (B, M, k) view by halving: log2 k strided adds over the whole
    batch, adjacent columns in pairs (about 20 against 260 us for 2**16
    scalars of pairs).  Both are row-independent: a row's sums do not depend
    on the batch it is in.  (np.einsum is not: past 8192 values per block
    its sums depend on the batch.)  Rows whose length is not cs.n raise
    InvalidInputError.
    """
    X = np.asarray(X)
    if X.shape[-1] != cs.n:
        raise InvalidInputError(f"data has length {X.shape[-1]}, structure has n = {cs.n}")
    k = cs.sizes[0]
    if cs.M < 2 or k < 2 or k & (k - 1) or np.any(cs.sizes_array != k):
        return np.add.reduceat(X, cs.starts, axis=-1)
    v = X.reshape(*X.shape[:-1], cs.M, k)
    while k > 1:
        v = v[..., 0::2] + v[..., 1::2]
        k //= 2
    return v[..., 0]


def class_reducer(model: BlockEquicorrModel):
    """The model's function that sums a per-block array (..., M) over the
    blocks of each class, giving (..., H): np.add.reduceat over the blocks
    in class order.  It is built once per model (class_reducer(m) is
    class_reducer(m)).  When each class is one run of consecutive blocks, as
    in every generated pattern, the blocks already sit in class order and
    the array is read in place; only interleaved explicit sizes or deltas
    make it gather a copy of the array in class order first."""
    return model._class_reducer


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
    per_class = class_reducer(model)
    a = per_class(s1)
    dev = s1 - (a / model.class_counts)[..., model.classes]
    resid = X - np.repeat(s1 / cs.sizes_array, cs.sizes_array, axis=-1)
    t_block = np.add.reduceat(resid * resid, cs.starts, axis=-1)
    return a, per_class(dev * dev), per_class(t_block)


def data_row(x) -> np.ndarray:
    """A 1-d data vector as a one-row (1, n) matrix, the input of row_stats
    and the row kernels, which refuse it when it is empty.  Any other shape
    raises InvalidInputError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError(f"expected a 1-d data vector, got shape {x.shape}")
    return x[np.newaxis, :]


def row_stats(X, cs: ClusterStructure | None = None):
    """(A, Q, T, model) of data rows X (B, n), in the argument order of the
    estimator and test kernels: class_stats under the identity model on cs.
    When cs is None the rows are one block of n: the statistics that ignore
    the structure read a row only through its total A and its square mass T
    about the mean, and one block gives both in O(1) model work.  The
    kernels read only the class sizes and counts of that model, so the
    deltas do not matter.  Raises InvalidInputError when the rows are empty
    or do not have length cs.n."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 0 or X.shape[-1] == 0:
        raise InvalidInputError(f"data rows must be nonempty, got shape {X.shape}")
    if cs is None:
        cs = ClusterStructure([X.shape[-1]])
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
    definiteness (feasible exactly when 0 < sigma_sq < min_m n_m), and
    InvalidInputError when sigma_sq is not a finite number.
    """
    sigma_sq = require_float(sigma_sq, "sigma_sq")
    if sigma_sq <= 0.0:
        raise InvalidInputError("sigma_sq must be positive")
    if cs.sizes_array.min() < 2:
        raise InvalidInputError(
            "common-variance deltas require every cluster size >= 2"
        )
    deltas = ((sigma_sq - 1.0) / (cs.sizes_array - 1)).tolist()
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
