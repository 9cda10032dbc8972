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
    relative to max(1, |quantile|)).

    The tail P(|T| > t) = 2 min(p, 1 - p) is solved for t >= 0 by Newton's
    method on log t and log P(|T| > t) (_t_log_tail), kept inside the
    bracket of the iterates seen so far, from a Cornish-Fisher start.
    Results are cached per (df, p).
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
    log_target = math.log(2.0 * min(p, 1.0 - p))  # 1 - p is exact for p >= 1/2
    z = abs(_normal_quantile(max(min(p, 1.0 - p), 2.0**-54)))
    u = math.log(z + (z**3 + z) / (4.0 * df))  # log t
    lo, hi = -math.inf, math.inf
    for _ in range(200):
        t = math.exp(u)
        log_tail = _t_log_tail(df, t)
        gap = log_tail - log_target
        if gap > 0.0:
            lo = u  # the tail is too heavy: t is too small
        else:
            hi = u
        # d log P(|T| > t) / d log t = -2 t f(t) / P(|T| > t)
        slope = -2.0 * math.exp(u + _t_log_density(df, t) - log_tail)
        step = max(-8.0, min(8.0, -gap / slope)) if slope < 0.0 else (8.0 if gap > 0.0 else -8.0)
        if abs(step) <= 1e-14 * max(1.0, abs(u)):
            break
        # a step out of the bracket falls back to bisection; both ends are
        # then finite, since a step leaves the side it starts from
        u = u + step if lo < u + step < hi else 0.5 * (lo + hi)
    t = math.exp(u)
    return t if p > 0.5 else -t


def _t_log_density(df: int, t: float) -> float:
    """log of Student's t density with df degrees of freedom at t."""
    return (
        math.lgamma(0.5 * (df + 1))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1) * _log1p_square(t / math.sqrt(df))
    )


def _log1p_square(x: float) -> float:
    """log(1 + x^2) without overflow."""
    return math.log1p(x * x) if x < 1e150 else 2.0 * math.log(x)


def _t_log_tail(df: int, t: float) -> float:
    """log P(|T| > t) for Student's t with integer df at t > 0, from the
    finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df).

    With theta = atan(t / sqrt(df)), y = cos^2 theta and K = df // 2, the
    sums are S = sum_{k < K} c_k y^k, c_0 = 1 and c_k / c_(k-1) = (2k - 1)/(2k)
    (even) or 2k / (2k + 1) (odd), and P(|T| <= t) is sin(theta) S (even) or
    (2 / pi) (theta + sin(theta) cos(theta) S) (odd).  The full series sums to
    1 / sin(theta) (even) or (pi / 2 - theta) / (sin(theta) cos(theta))
    (odd), so the tail is the same prefactor times sum_{k >= K} c_k y^k.  The
    tail is read as 1 minus the finite form while that is above 1e-3, and
    from the remainder of the series below, where the subtraction would
    lose its digits.
    """
    odd, k_terms = df % 2, df // 2
    root = math.hypot(math.sqrt(df), t)
    sin, cos = t / root, math.sqrt(df) / root
    y = cos * cos
    scale = 2.0 / math.pi * sin * cos if odd else sin
    inside = scale * _series(y, 0, k_terms, odd)
    if odd:
        inside += 2.0 / math.pi * math.atan2(t, math.sqrt(df))
    if 1.0 - inside > 1e-3:
        return math.log1p(-inside)
    if odd:  # c_K = (2K)!! / (2K + 1)!!
        log_c = math.lgamma(k_terms + 1.0) + 0.5 * math.log(math.pi) - math.log(2.0) - math.lgamma(k_terms + 1.5)
    else:  # c_K = (2K - 1)!! / (2K)!!
        log_c = math.lgamma(k_terms + 0.5) - math.lgamma(k_terms + 1.0) - 0.5 * math.log(math.pi)
    remainder = _series(y, k_terms, math.inf, odd)
    log_y = -_log1p_square(t / math.sqrt(df))
    return math.log(scale) + log_c + k_terms * log_y + math.log(remainder)


_SERIES_BLOCK = 4096


def _series(y: float, start: int, count, odd: int) -> float:
    """sum_{i < count} prod_{k = start}^{start + i - 1} y (2k + 1 + odd) / (2k + 2 + odd),
    in blocks of _SERIES_BLOCK terms, stopping once the terms no longer
    change the sum (count may be inf)."""
    total, term, k = 0.0, 1.0, start
    while k < start + count and term > 1e-17 * total:
        n = int(min(_SERIES_BLOCK, start + count - k))
        j = np.arange(k, k + n, dtype=np.float64)
        ratios = y * (2.0 * j + 1.0 + odd) / (2.0 * j + 2.0 + odd)
        terms = term * np.cumprod(np.concatenate(([1.0], ratios[:-1])))
        total += float(terms.sum())
        term = float(terms[-1] * ratios[-1])
        k += n
    return total
