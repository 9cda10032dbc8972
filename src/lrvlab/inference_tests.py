"""Three tests for a positive mean under cluster dependence.

- sign_test: the randomized sign test.  It rejects with probability 2*alpha
  when the sample-mean sign is nonnegative, giving exact size alpha under any
  symmetric null — and its power can never exceed 2*alpha, which is the point.
- cluster_t_test: the between-cluster t-test built from per-cluster normalized
  means; needs at least two clusters.
- known_bound_z_test: the one-sided z-test available once an upper bound c on
  the long-run variance is known a priori.

Each test is computed by one kernel over the class statistics (A, Q, T) of
cluster_model.class_stats, *_stat_rows(A, Q, T, model, alpha, c): the
estimator kernels' signature plus the level and the bound (only the z-test
uses c, and only the cluster t-test reads Q).  It returns the statistic, the
critical value and a per-row rejection probability p: 2 alpha 1{V = +1} for
the sign test, 1{statistic > critical} for the others.  A row rejects when
p > u for its randomization uniform u, which the sampler draws strictly
inside (0, 1).  The harness looks the kernels up by name.  The scalar
operations (returning a TestOutcome) and the *_rows forms (per-row rejection
indicators of a (B, n) batch) reduce the data with cluster_model.row_stats,
over singletons for the sign and z tests, and call the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, stdtrit

from .cluster_model import BlockEquicorrModel, ClusterStructure, block_sums, row_stats
from .errors import DegenerateDataError, InvalidInputError


@dataclass(frozen=True)
class TestOutcome:
    """One test evaluation.

    reject_probability is the randomized rejection probability given the data
    (in {0, 1} for non-randomized tests); rejected is the realized decision.
    """

    statistic: float
    reject_probability: float
    rejected: bool
    critical_value: float
    alpha: float


@dataclass(frozen=True)
class ClusterSummary:
    """Per-cluster normalized means and their first two moments.

    xi_m = n_m^{-1/2} * sum of x over cluster m; U_prime is the mean of the
    xi, T_prime their sample variance (divisor M-1).
    """

    xi: tuple[float, ...]
    U_prime: float
    T_prime: float


def _as_row(x) -> np.ndarray:
    """A nonempty 1-d data vector as a one-row (1, n) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("expected a nonempty 1-d data vector")
    return x[np.newaxis, :]


def _outcome(kernel_out, alpha: float, u: float = 0.0) -> TestOutcome:
    """The TestOutcome of a one-row kernel evaluation; it rejects when p > u."""
    statistic, critical, p = kernel_out
    p = float(p[0])
    return TestOutcome(float(statistic[0]), p, p > u, float(critical), float(alpha))


def sign_test_stat_rows(a, q, t, model: BlockEquicorrModel, alpha: float, c=None):
    """(V, 0, p) per row from class statistics: V = sgn(xbar), the tie counted
    as +1, and p = 2 alpha 1{V = +1}.  Requires alpha in (0, 1/2); q, t and c
    are unused."""
    alpha = float(alpha)
    if not (0.0 < alpha < 0.5):
        raise InvalidInputError(f"alpha must lie in (0, 1/2), got {alpha}")
    nonnegative = a.sum(axis=-1) / model.structure.n >= 0.0
    return np.where(nonnegative, 1.0, -1.0), 0.0, np.where(nonnegative, 2.0 * alpha, 0.0)


def sign_test(x, alpha: float, u: float) -> TestOutcome:
    """Randomized sign test; u is the explicit randomization input in [0, 1].

    V = sgn(sqrt(n) xbar) with the tie xbar = 0 counted as +1; the test
    rejects with probability 2*alpha when V = +1 and never when V = -1.
    Requires alpha in (0, 1/2).
    """
    row = _as_row(x)
    u = float(u)
    if not (0.0 <= u <= 1.0):
        raise InvalidInputError(f"randomization input u must lie in [0, 1], got {u}")
    return _outcome(sign_test_stat_rows(*row_stats(row), alpha), alpha, u)


def sign_test_rows(X: np.ndarray, alpha: float, u: np.ndarray) -> np.ndarray:
    """Row-wise rejection indicators of the sign test (one uniform per row)."""
    p = sign_test_stat_rows(*row_stats(X), alpha)[-1]
    return p > np.asarray(u, dtype=np.float64)


def _xi_moments(a: np.ndarray, q: np.ndarray, model: BlockEquicorrModel):
    """The mean U' and sample variance T' (divisor M - 1; 0 for a single
    cluster) of xi = S1 / sqrt(k) over the blocks, per row.

    The square mass of xi about U' splits into the within-class part
    sum_h Q_h / k_h and the between-class part sum_h M_h (xibar_h - U')^2,
    with xibar_h = A_h / (M_h sqrt(k_h)) the class mean of xi.  Both are sums
    of squares of centred terms, so T' stays accurate when the mean is large.
    """
    m = model.structure.M
    root_k = np.sqrt(model.class_sizes)
    u_prime = (a / root_k).sum(axis=-1) / m
    if m < 2:
        return u_prime, np.zeros_like(u_prime)
    offset = a / (model.class_counts * root_k) - u_prime[..., np.newaxis]
    mass = q / model.class_sizes + model.class_counts * offset * offset
    return u_prime, mass.sum(axis=-1) / (m - 1)


def cluster_summary(x, cs: ClusterStructure) -> ClusterSummary:
    """The per-cluster normalized means xi and their moments U', T'."""
    row = _as_row(x)
    a, q, _, model = row_stats(row, cs)
    u_prime, t_prime = _xi_moments(a, q, model)
    xi = block_sums(row, cs)[0] / np.sqrt(cs.sizes_array)
    return ClusterSummary(
        xi=tuple(float(v) for v in xi), U_prime=float(u_prime[0]), T_prime=float(t_prime[0])
    )


def cluster_t_stat_rows(a, q, t, model: BlockEquicorrModel, alpha: float, c=None):
    """(V', t(M-1) quantile at 1 - alpha, p = 1{V' > quantile}) per row, with
    V' = sqrt(M) U'/sqrt(T') (+-inf or nan where T' = 0).  Requires alpha in
    (0, 1) and M >= 2; t and c are unused."""
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    m = model.structure.M
    if m < 2:
        raise InvalidInputError("the cluster t-test needs at least two clusters")
    u_prime, t_prime = _xi_moments(a, q, model)
    critical = student_t_quantile(m - 1, 1.0 - alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = math.sqrt(m) * u_prime / np.sqrt(t_prime)
    return statistic, critical, statistic > critical


def cluster_t_test(x, cs: ClusterStructure, alpha: float) -> TestOutcome:
    """Between-cluster t-test: V' = sqrt(M) U'/sqrt(T') vs the t(M-1) quantile.

    Needs M >= 2 clusters; constant cluster means (T' = 0) raise
    DegenerateDataError.
    """
    outcome = _outcome(cluster_t_stat_rows(*row_stats(_as_row(x), cs), alpha), alpha)
    if not math.isfinite(outcome.statistic):  # T' = 0
        raise DegenerateDataError("all cluster means are equal; T' = 0")
    return outcome


def cluster_t_rows(X: np.ndarray, cs: ClusterStructure, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the cluster t-test."""
    return cluster_t_stat_rows(*row_stats(X, cs), alpha)[-1]


def z_test_stat_rows(a, q, t, model: BlockEquicorrModel, alpha: float, c: float):
    """(z, normal quantile at 1 - alpha, p = 1{z > quantile}) per row, with
    z = sqrt(n) xbar / sqrt(c).  Requires c > 0 and alpha in (0, 1); q and t
    are unused."""
    c = float(c)
    if not (c > 0.0):
        raise InvalidInputError(f"variance bound c must be positive, got {c}")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    n = model.structure.n
    critical = float(ndtri(1.0 - alpha))
    statistic = math.sqrt(n) * (a.sum(axis=-1) / n) / math.sqrt(c)
    return statistic, critical, statistic > critical


def known_bound_z_test(x, c: float, alpha: float) -> TestOutcome:
    """One-sided z-test using a known upper bound c on the long-run variance."""
    return _outcome(z_test_stat_rows(*row_stats(_as_row(x)), alpha, c), alpha)


def z_test_rows(X: np.ndarray, c: float, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the known-bound z-test."""
    return z_test_stat_rows(*row_stats(X), alpha, c)[-1]


def student_t_quantile(df: int, p: float) -> float:
    """p-quantile of Student's t with df degrees of freedom (accuracy <= 1e-8)."""
    df = int(df)
    if df < 1:
        raise InvalidInputError(f"degrees of freedom must be >= 1, got {df}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"p must lie in (0, 1), got {p}")
    return float(stdtrit(df, p))
