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
indicators of a (B, n) batch) reduce the data with cluster_model.row_stats
and call the same kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cluster_model import BlockEquicorrModel, ClusterStructure, block_sums, data_row, row_stats
from .errors import DegenerateDataError, InvalidInputError, require_float, require_int
from .sampler import _normal_quantile


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


def _outcome(kernel_out, alpha: float, u: float = 0.0) -> TestOutcome:
    """The TestOutcome of a one-row kernel evaluation; it rejects when p > u."""
    statistic, critical, p = kernel_out
    p = float(p[0])
    return TestOutcome(float(statistic[0]), p, p > u, float(critical), float(alpha))


def sign_test_stat_rows(a, q, t, model: BlockEquicorrModel, alpha: float, c=None):
    """(V, 0, p) per row from class statistics: V = sgn(xbar), the tie counted
    as +1, and p = 2 alpha 1{V = +1}.  Requires alpha in (0, 1/2); q, t and c
    are unused."""
    alpha = require_float(alpha, "alpha")
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
    row = data_row(x)
    u = require_float(u, "randomization input u")
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
    row = data_row(x)
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
    alpha = require_float(alpha, "alpha")
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
    outcome = _outcome(cluster_t_stat_rows(*row_stats(data_row(x), cs), alpha), alpha)
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
    c = require_float(c, "variance bound c")
    if not (c > 0.0):
        raise InvalidInputError(f"variance bound c must be positive, got {c}")
    alpha = require_float(alpha, "alpha")
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha}")
    n = model.structure.n
    critical = _normal_quantile(1.0 - alpha)
    statistic = math.sqrt(n) * (a.sum(axis=-1) / n) / math.sqrt(c)
    return statistic, critical, statistic > critical


def known_bound_z_test(x, c: float, alpha: float) -> TestOutcome:
    """One-sided z-test using a known upper bound c on the long-run variance."""
    return _outcome(z_test_stat_rows(*row_stats(data_row(x)), alpha, c), alpha)


def z_test_rows(X: np.ndarray, c: float, alpha: float) -> np.ndarray:
    """Row-wise rejection indicators of the known-bound z-test."""
    return z_test_stat_rows(*row_stats(X), alpha, c)[-1]


def student_t_quantile(df: int, p: float) -> float:
    """p-quantile of Student's t with df degrees of freedom (accuracy <= 1e-8
    relative to max(1, |quantile|); measured against mpmath, within 1e-13
    relative for df from 1 to 4.6e18 and p down to 1e-300).

    The tail P(|T| > t) = 2 min(p, 1 - p) is solved for t > 0 by Newton's
    method on u = log t and log P(|T| > t) (_t_log_tail, one continued
    fraction of the incomplete beta function), from a Cornish-Fisher start.
    log P(|T| > t) is concave in u, so every step after the first nears the
    root from above and no bracket is kept; steps are capped at 64, so that
    a start where the tail is nearly flat cannot leap out of range.  Newton
    stops once a step is at most 1e-10, a relative change of t that the
    tail's rounding (~1e-14) cannot mask, and the step just taken leaves an
    error of order its square; a call that has not stopped after 100 steps
    raises ArithmeticError.  A quantile beyond the float range is returned
    as the nearest float, -inf (at df = 1, p below ~1.77e-309); p = 1 - alpha
    of a sweep never comes near that.  Results are cached per (df, p).
    """
    df = require_int(df, "degrees of freedom")
    if df < 1:
        raise InvalidInputError(f"degrees of freedom must be >= 1, got {df}")
    p = require_float(p, "p")
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"p must lie in (0, 1), got {p}")
    return _t_quantile(df, p)


# A test cell's kernel asks for the same quantile once per chunk and mean.
@functools.lru_cache(maxsize=64)
def _t_quantile(df: int, p: float) -> float:
    """student_t_quantile of checked arguments."""
    if p == 0.5:
        return 0.0
    q = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    log_target = math.log(2.0 * q)
    # below 2^-54, where the normal quantile's q - 1/2 rounds to -1/2, the
    # start is sqrt(-2 log 2q), just above the normal quantile
    z = abs(_normal_quantile(q)) if q > 2.0**-54 else math.sqrt(-2.0 * log_target)
    u = math.log(z + (z**3 + z) / (4.0 * df))  # log t
    for _ in range(100):
        log_tail, log_front = _t_log_tail(df, u)
        # d log P(|T| > t) / d log t = -2 front / P(|T| > t)
        step = max(-64.0, min(64.0, (log_tail - log_target) / (2.0 * math.exp(log_front - log_tail))))
        u += step
        if abs(step) <= 1e-10:
            # 709.782712893384 is the log of the largest float: above it, exp overflows
            t = math.exp(u) if u <= 709.782712893384 else math.inf
            return t if p > 0.5 else -t
    raise ArithmeticError(f"the t quantile did not converge (df = {df}, p = {p!r})")


def _t_log_tail(df: int, u: float) -> tuple[float, float]:
    """(log P(|T| > t), log front) for Student's t with df degrees of
    freedom at t = e^u.

    P(|T| > t) is the regularized incomplete beta function I_x(a, b) with
    x = df / (df + t^2), a = df / 2 and b = 1/2, and front is
    x^a (1 - x)^b / B(a, b).  I_x(a, b) is front cf(a, b, x) / a while
    x < (a + 1) / (a + b + 2), where the continued fraction converges fast,
    and 1 - front cf(b, a, 1 - x) / b otherwise (Numerical Recipes 6.4).
    """
    a = 0.5 * df
    s = 2.0 * u - math.log(df)  # log(t^2 / df)
    log_x = -max(s, 0.0) - math.log1p(math.exp(-abs(s)))  # -log(1 + e^s)
    log_y = log_x + s  # log(1 - x)
    if a > 25.0:  # the difference of two lgamma values loses digits as a grows
        h = 1.0 / (a * a)
        log_ratio = 0.5 * math.log(a) - (1.0 - h / 24.0 + h * h / 80.0 - 17.0 * h**3 / 1792.0) / (8.0 * a)
    else:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    # 1 / B(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi))
    log_front = a * log_x + 0.5 * log_y + log_ratio - 0.5 * math.log(math.pi)
    x, y = math.exp(log_x), math.exp(log_y)
    if y > 1.5 / (a + 2.5):  # x < (a + 1) / (a + b + 2), kept exact as x nears 1
        return log_front + math.log(_beta_cf(a, 0.5, x, y) / a), log_front
    return math.log1p(-2.0 * math.exp(log_front) * _beta_cf(0.5, a, y, x)), log_front


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction cf of I_x(a, b) = x^a y^b cf / (a B(a, b)),
    y = 1 - x, by Lentz's method (Numerical Recipes 6.4).

    Its odd coefficients tend to -1 as a grows and x nears 1, so one plus
    each, and the Lentz updates that add it to 1, are written with y: 1 + odd
    = y + x (a (2m + 1 - b) + m (3m + 2 - b)) / ((a + 2m) (a + 2m + 1)).
    """
    d = 1.0 / (y + x * (1.0 - b) / (a + 1.0))  # 1 / (1 + odd) at m = 0
    c, cf = 1.0, d
    for m in range(1, 1000):
        den = (a + 2.0 * m) * (a + 2.0 * m + 1.0)
        even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
        odd = -(a + m) * (a + b + m) * x / den
        odd_1 = y + x * (a * (2.0 * m + 1.0 - b) + m * (3.0 * m + 2.0 - b)) / den
        d_even, c_even = 1.0 / (1.0 + even * d), 1.0 + even / c
        # 1 + odd d_even = odd_1 - odd even d d_even, c_even + odd = odd_1 + even / c
        d, c = 1.0 / (odd_1 - odd * even * d * d_even), (odd_1 + even / c) / c_even
        cf *= d_even * c_even * d * c
        if abs(d * c - 1.0) <= 1e-15:
            return cf
    raise ArithmeticError(f"the incomplete beta fraction did not converge (a = {a}, b = {b}, x = {x})")
