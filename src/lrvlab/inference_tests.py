"""Three tests for a positive mean under cluster dependence.

- sign_test: the randomized sign test.  It rejects with probability 2*alpha
  when the sample-mean sign is nonnegative, giving exact size alpha under any
  symmetric null — and its power can never exceed 2*alpha, which is the point.
- cluster_t_test: the between-cluster t-test built from per-cluster normalized
  means; needs at least two clusters.
- known_bound_z_test: the one-sided z-test available once an upper bound c on
  the long-run variance is known a priori.

Scalar operations return a TestOutcome; *_rows variants evaluate whole
(replications, n) batches and return per-row rejection indicators.  The
three tests see the data only through its block sums S1, and each has one
kernel over them (*_stat_rows), which the harness calls on block sums it
draws directly and the *_rows forms call after reducing X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, stdtrit

from .cluster_model import ClusterStructure, block_sums
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


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("expected a nonempty 1-d data vector")
    return x


def sign_test(x, alpha: float, u: float) -> TestOutcome:
    """Randomized sign test; u is the explicit randomization input in [0, 1].

    V = sgn(sqrt(n) xbar) with the tie xbar = 0 counted as +1; the test
    rejects with probability 2*alpha when V = +1 and never when V = -1.
    Requires alpha in (0, 1/2).
    """
    x = _as_vector(x)
    alpha = float(alpha)
    if not (0.0 < alpha < 0.5):
        raise InvalidInputError(f"alpha must lie in (0, 1/2), got {alpha}")
    u = float(u)
    if not (0.0 <= u <= 1.0):
        raise InvalidInputError(f"randomization input u must lie in [0, 1], got {u}")
    v = 1.0 if float(x.mean()) >= 0.0 else -1.0
    reject_probability = 2.0 * alpha if v > 0.0 else 0.0
    return TestOutcome(
        statistic=v,
        reject_probability=reject_probability,
        rejected=reject_probability > u,
        critical_value=0.0,
        alpha=alpha,
    )


def sign_test_stat_rows(s1: np.ndarray, n: int, alpha: float, u: np.ndarray) -> np.ndarray:
    """Row-wise rejection indicators of the sign test from block sums (one uniform per row)."""
    alpha = float(alpha)
    if not (0.0 < alpha < 0.5):
        raise InvalidInputError(f"alpha must lie in (0, 1/2), got {alpha}")
    reject_probability = np.where(s1.sum(axis=-1) / n >= 0.0, 2.0 * alpha, 0.0)
    return reject_probability > np.asarray(u, dtype=np.float64)


def sign_test_rows(X: np.ndarray, alpha: float, u: np.ndarray) -> np.ndarray:
    """Row-wise rejection indicators of the sign test (one uniform per row)."""
    return sign_test_stat_rows(X, X.shape[-1], alpha, u)


def cluster_summary(x, cs: ClusterStructure) -> ClusterSummary:
    """The per-cluster normalized means xi and their moments U', T'."""
    x = _as_vector(x)
    if x.size != cs.n:
        raise InvalidInputError(f"data has length {x.size}, structure has n = {cs.n}")
    xi = np.add.reduceat(x, cs.starts) / np.sqrt(cs.sizes_array)
    u_prime = float(xi.mean())
    t_prime = float(xi.var(ddof=1)) if cs.M > 1 else 0.0
    return ClusterSummary(xi=tuple(float(v) for v in xi), U_prime=u_prime, T_prime=t_prime)


def cluster_t_test(x, cs: ClusterStructure, alpha: float) -> TestOutcome:
    """Between-cluster t-test: V' = sqrt(M) U'/sqrt(T') vs the t(M-1) quantile.

    Needs M >= 2 clusters; constant cluster means (T' = 0) raise
    DegenerateDataError.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    if cs.M < 2:
        raise InvalidInputError("the cluster t-test needs at least two clusters")
    summary = cluster_summary(x, cs)
    if summary.T_prime == 0.0:
        raise DegenerateDataError("all cluster means are equal; T' = 0")
    statistic = math.sqrt(cs.M) * summary.U_prime / math.sqrt(summary.T_prime)
    critical = student_t_quantile(cs.M - 1, 1.0 - alpha)
    rejected = statistic > critical
    return TestOutcome(
        statistic=statistic,
        reject_probability=1.0 if rejected else 0.0,
        rejected=rejected,
        critical_value=critical,
        alpha=alpha,
    )


def cluster_t_stat_rows(s1: np.ndarray, sizes: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the cluster t-test from block sums."""
    m = sizes.size
    if m < 2:
        raise InvalidInputError("the cluster t-test needs at least two clusters")
    xi = s1 / np.sqrt(sizes)
    u_prime = xi.mean(axis=-1)
    t_prime = xi.var(axis=-1, ddof=1)
    critical = student_t_quantile(m - 1, 1.0 - float(alpha))
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = math.sqrt(m) * u_prime / np.sqrt(t_prime)
    return statistic > critical


def cluster_t_rows(X: np.ndarray, cs: ClusterStructure, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the cluster t-test."""
    return cluster_t_stat_rows(block_sums(X, cs), cs.sizes_array, alpha)


def known_bound_z_test(x, c: float, alpha: float) -> TestOutcome:
    """One-sided z-test using a known upper bound c on the long-run variance."""
    x = _as_vector(x)
    c = float(c)
    if c <= 0.0:
        raise InvalidInputError(f"variance bound c must be positive, got {c}")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    statistic = math.sqrt(x.size) * float(x.mean()) / math.sqrt(c)
    critical = float(ndtri(1.0 - alpha))
    rejected = statistic > critical
    return TestOutcome(
        statistic=statistic,
        reject_probability=1.0 if rejected else 0.0,
        rejected=rejected,
        critical_value=critical,
        alpha=alpha,
    )


def z_test_stat_rows(s1: np.ndarray, n: int, c: float, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the known-bound z-test from block sums."""
    c = float(c)
    if c <= 0.0:
        raise InvalidInputError(f"variance bound c must be positive, got {c}")
    critical = float(ndtri(1.0 - float(alpha)))
    statistic = math.sqrt(n) * (s1.sum(axis=-1) / n) / math.sqrt(c)
    return statistic > critical


def z_test_rows(X: np.ndarray, c: float, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the known-bound z-test."""
    return z_test_stat_rows(X, X.shape[-1], c, alpha)


def student_t_quantile(df: int, p: float) -> float:
    """p-quantile of Student's t with df degrees of freedom (accuracy <= 1e-8)."""
    df = int(df)
    if df < 1:
        raise InvalidInputError(f"degrees of freedom must be >= 1, got {df}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"p must lie in (0, 1), got {p}")
    return float(stdtrit(df, p))
