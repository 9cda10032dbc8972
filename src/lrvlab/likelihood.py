"""Exact Gaussian log-likelihood ratios and contiguity diagnostics.

The closed forms here compare N(mu_bar * 1, Sigma) against N(0, I) for
block-equicorrelation Sigma.  Rotating one block of size k by any orthogonal
basis whose first vector is ones/sqrt(k) diagonalizes the block, and the
rotated coordinates enter only through two row statistics — the block sum S1
(Z_1 = S1/sqrt(k)) and the residual square mass T = S2 - S1^2/k — so the
evaluation never materializes a rotation.  Blocks that share (k, delta)
share every coefficient, so the log-LR reads a draw only through the class
statistics (A, Q, T) of cluster_model.class_stats.  loglr_stat_rows is the
one kernel over them; loglr_cluster_rows reduces data rows with class_stats
and calls it, and lr_diagnostics calls it on null statistics from the class
draw sampler.class_stat_rows, O(H) per replication for H classes.

For one block of size k with parameter delta (a = 1 + (k-1) delta and
b = 1 - delta, the block's eigenvalues BlockEquicorrModel.top and .base):

    log LR = -log(a)/2 - (k-1) log(b)/2
             + (k-1) delta S1^2 / (2 a k) - delta T / (2 b)
             + mu_bar S1 / a - k mu_bar^2 / (2 a)

A general dense pair is handled twice over: a direct log-density difference
via Cholesky factorizations, and a series-free spectral formula that is valid
whenever the eigenvalues of S^{-1/2} U'(Sigma1 - Sigma0) U S^{-1/2} all lie in
(-1, 1).  The two routes must agree; the dense evaluator asserts that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc

from .cluster_model import (
    DENSE_N_CAP,
    BlockEquicorrModel,
    ClusterStructure,
    block_model,
    build_structure,
    class_stats,
)
from .errors import (
    DegenerateDataError,
    FactorizationError,
    InvalidInputError,
)
from .sampler import _class_chunks, class_stat_rows

# Agreement demanded between the two dense log-LR routes (absolute, scaled up
# by |value| once values leave the unit range).
_DENSE_AGREEMENT = 1e-8


def chi2_cdf_1df(t) -> np.ndarray | float:
    """CDF of a chi-square with one degree of freedom: P(Z^2 <= t) = erf(sqrt(t/2))."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t > 0.0, erf(np.sqrt(np.maximum(t, 0.0) / 2.0)), 0.0)


def loglr_stat_rows(a, q, t, model: BlockEquicorrModel, mu_bar: float) -> np.ndarray:
    """log dN(mu_bar 1, Sigma)/dN(0, I) from the class statistics (A, Q, T),
    each (B, H), of the model's classes: every block term is the same
    function of (k, delta) and the block sum of squares S1_m^2 adds up over
    a class to Q_h + A_h^2 / M_h."""
    mu_bar = float(mu_bar)
    first, counts = model.class_first, model.class_counts
    k = model.class_sizes.astype(np.float64)
    deltas, top, base = model.deltas_array[first], model.top[first], model.base[first]
    log_det = np.log1p((k - 1.0) * deltas) + (k - 1.0) * np.log1p(-deltas)
    const = -float(np.sum(counts * (0.5 * log_det + k * mu_bar * mu_bar / (2.0 * top))))
    coef_s1sq = (k - 1.0) * deltas / (2.0 * top * k)
    coef_t = -deltas / (2.0 * base)
    per_class = coef_s1sq * (q + a * a / counts) + (mu_bar / top) * a + coef_t * t
    return const + per_class.sum(axis=-1)


def loglr_cluster_rows(X: np.ndarray, model: BlockEquicorrModel, mu_bar: float) -> np.ndarray:
    """log dN(mu_bar 1, Sigma)/dN(0, I) evaluated on each row of a (B, n) matrix."""
    return loglr_stat_rows(*class_stats(X, model), model, mu_bar)


def loglr_equicorr(x, mu_bar: float, delta: float) -> float:
    """Single-block closed form: loglr_cluster on one block of size len(x).

    A block of size n >= 2 needs 1 - delta > 0 and 1 + (n-1) delta > 0 (n delta
    may lie anywhere those allow); a singleton ignores delta.
    """
    x = np.asarray(x, dtype=np.float64)
    return loglr_cluster(x, build_structure([x.size]), [delta], mu_bar)


def loglr_cluster(x, cs: ClusterStructure, deltas, mu_bar: float) -> float:
    """Block-diagonal closed form: the sum of per-block evaluations.

    Each block carries the same mean shift mu_bar on its own ones vector, so
    the value is exactly the sum over blocks of loglr_equicorr restricted to
    the block's coordinates.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != cs.n:
        raise InvalidInputError(f"expected a data vector of length {cs.n}")
    model = block_model(cs, deltas)
    return float(loglr_cluster_rows(x[np.newaxis, :], model, float(mu_bar))[0])


@dataclass(frozen=True, eq=False)
class DenseGaussianPair:
    """Two small-n Gaussian measures for oracle likelihood-ratio evaluation."""

    mu0: np.ndarray
    mu1: np.ndarray
    sigma0: np.ndarray
    sigma1: np.ndarray

    def __post_init__(self):
        for name in ("mu0", "mu1", "sigma0", "sigma1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = self.mu0.shape[0] if self.mu0.ndim == 1 else -1
        if n < 1:
            raise InvalidInputError("mu0 must be a nonempty vector")
        if n > DENSE_N_CAP:
            raise InvalidInputError(f"dense operations are capped at n = {DENSE_N_CAP}")
        if self.mu1.shape != (n,):
            raise InvalidInputError("mu0 and mu1 must have the same length")
        for name in ("sigma0", "sigma1"):
            s = getattr(self, name)
            if s.shape != (n, n):
                raise InvalidInputError(f"{name} must be {n}x{n}")
            if not np.array_equal(s, s.T):
                raise InvalidInputError(f"{name} must be symmetric")

    @property
    def n(self) -> int:
        return self.mu0.shape[0]


def _chol_quad(sigma: np.ndarray, resid: np.ndarray, name: str):
    """(log det sigma, resid' sigma^{-1} resid) via one Cholesky factor."""
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{name} is not positive definite: {exc}") from exc
    import scipy.linalg  # the dense oracle only; no sweep pays for the import

    half = scipy.linalg.solve_triangular(lower, resid, lower=True)
    return 2.0 * float(np.sum(np.log(np.diagonal(lower)))), float(half @ half)


def loglr_dense(x, pair: DenseGaussianPair) -> float:
    """log [dN(mu1, Sigma1)/dN(mu0, Sigma0)](x) for a dense pair (oracle path).

    Always evaluates the direct log-density difference; additionally evaluates
    the series-free spectral formula whenever its eigenvalue condition
    max|lambda_i| < 1 holds, and asserts the two routes agree.  Returns the
    direct value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (pair.n,):
        raise InvalidInputError(f"expected a data vector of length {pair.n}")

    logdet0, quad0 = _chol_quad(pair.sigma0, x - pair.mu0, "sigma0")
    logdet1, quad1 = _chol_quad(pair.sigma1, x - pair.mu1, "sigma1")
    direct = -0.5 * (logdet1 - logdet0) - 0.5 * (quad1 - quad0)

    formula = _loglr_spectral(x, pair)
    if formula is not None:
        tol = _DENSE_AGREEMENT * max(1.0, abs(direct))
        assert abs(direct - formula) <= tol, (
            f"dense log-LR routes disagree: direct {direct!r} vs spectral {formula!r}"
        )
    return direct


def _loglr_spectral(x: np.ndarray, pair: DenseGaussianPair) -> float | None:
    """The spectral route: valid only when all |lambda_i| < 1; else None.

    With Sigma0 = U S U' and lambda, B the eigensystem of
    S^{-1/2} U'(Sigma1 - Sigma0) U S^{-1/2}, q_i = sqrt(1 + lambda_i),
    Z = B' S^{-1/2} U'(x - mu0) and mu~ = B' S^{-1/2} U'(mu1 - mu0):

        log LR = -sum log q_i
                 + (1/2) sum (1/q_i^2) (Z_i (q_i+1) - mu~_i)(Z_i (q_i-1) + mu~_i)
    """
    s, u = np.linalg.eigh(pair.sigma0)
    if s[0] <= 0.0:
        return None
    inv_root = 1.0 / np.sqrt(s)
    a = u.T @ (pair.sigma1 - pair.sigma0) @ u
    c = inv_root[:, np.newaxis] * a * inv_root[np.newaxis, :]
    lam, b = np.linalg.eigh(c)
    if np.max(np.abs(lam)) >= 1.0:
        return None
    q = np.sqrt(1.0 + lam)
    z = b.T @ (inv_root * (u.T @ (x - pair.mu0)))
    mu_t = b.T @ (inv_root * (u.T @ (pair.mu1 - pair.mu0)))
    return float(
        -np.sum(np.log(q))
        + 0.5 * np.sum((z * (q + 1.0) - mu_t) * (z * (q - 1.0) + mu_t) / (q * q))
    )


@dataclass(frozen=True)
class LimitLaw:
    """The limit of single-cluster log-LRs when n * delta_n -> delta != 0.

    W = -log sqrt(1 + delta) + delta Z^2 / (2 (1 + delta)) with Z standard
    normal; support is bounded below by -log sqrt(1 + delta) for delta > 0 and
    above by it for delta < 0.
    """

    delta: float

    def __post_init__(self):
        d = float(self.delta)
        object.__setattr__(self, "delta", d)
        if not (-1.0 < d <= 1.0) or d == 0.0:
            raise InvalidInputError(
                f"limit law requires delta in (-1, 1] with delta != 0, got {d}"
            )

    @property
    def support_bound(self) -> float:
        return -0.5 * math.log1p(self.delta)

    def cdf(self, w) -> np.ndarray | float:
        """P(W <= w); vectorized over w."""
        w = np.asarray(w, dtype=np.float64)
        t = 2.0 * (1.0 + self.delta) * (w - self.support_bound) / self.delta
        if self.delta > 0.0:
            out = chi2_cdf_1df(t)
        else:
            out = np.where(t > 0.0, erfc(np.sqrt(np.maximum(t, 0.0) / 2.0)), 1.0)
        if out.ndim == 0:
            return float(out)
        return out


def limit_law_cdf(delta: float, w: float) -> float:
    """CDF of the contiguity limit law at w (see LimitLaw)."""
    return float(LimitLaw(delta).cdf(w))


def ks_distance(values: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    m = values.size
    if m == 0:
        raise InvalidInputError("empty sample")
    f = np.asarray(cdf(values), dtype=np.float64)
    i = np.arange(1, m + 1, dtype=np.float64)
    return float(max(np.max(i / m - f), np.max(f - (i - 1.0) / m)))


def lr_diagnostics(model: BlockEquicorrModel, epsilon: float, reps: int, seed: int) -> dict:
    """Monte Carlo diagnostics of the likelihood ratio under N(0, I).

    Draws the null class statistics of `reps` independent replications
    from the class draw (streams keyed (seed, rep), see
    sampler.class_stat_rows), and evaluates
    W = log dN(0, Sigma)/dN(0, I).  Reports the mean of exp(W)
    (identically 1 in expectation), its (1+epsilon)-th moment, and — when the
    model is a single non-singleton cluster whose n*delta lies in the limit
    law's domain — the Kolmogorov-Smirnov distance to the limit CDF.

    Standard errors accompany both moments; `ks` carries no SE of its own
    (the report's conservative 0.5/sqrt(reps) bound is the harness's
    convention).  Keys: mean_lr, se_mean_lr, moment_1pe, se_moment_1pe, ks,
    n, reps, seed.

    Raises DegenerateDataError when exp(W) overflows in some replication or
    underflows to 0 in all of them: the moments would then be printed as
    confident numbers while carrying no information.
    """
    epsilon = float(epsilon)
    reps = int(reps)
    if not (epsilon > 0.0):
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    if reps < 1000:
        raise InvalidInputError("lr diagnostics need reps >= 1000")
    cs = model.structure
    n = cs.n
    # Null data N(0, I) are Sigma^{-1/2} X for X drawn from the model; on a
    # class that divides A by sqrt(top), Q by top and T by base.
    first = model.class_first
    top, base = model.top[first], model.base[first]
    w = np.empty(reps, dtype=np.float64)
    for lo, hi in _class_chunks(model, reps):
        a, q, t, _ = class_stat_rows(model, 0.0, seed, range(lo, hi))
        w[lo:hi] = loglr_stat_rows(a / np.sqrt(top), q / top, t / base, model, 0.0)

    with np.errstate(over="ignore"):
        lr = np.exp(w)
    mean_lr = float(np.mean(lr))
    if mean_lr == 0.0 or not np.all(np.isfinite(lr)):
        reason = (
            "underflows to 0 in every replication"
            if mean_lr == 0.0
            else "is not finite in some replication"
        )
        raise DegenerateDataError(
            f"likelihood ratios are degenerate: exp(W) {reason} "
            f"(W in [{float(np.min(w)):.6g}, {float(np.max(w)):.6g}])"
        )
    se_mean_lr = float(np.std(lr, ddof=1) / math.sqrt(reps))
    # A heavy tail may overflow the power or its squares; the moment or its
    # se is then not finite, and the harness quarantines the cell.
    with np.errstate(over="ignore"):
        powered = lr ** (1.0 + epsilon)
        moment_1pe = float(np.mean(powered))
        se_moment_1pe = float(np.std(powered, ddof=1) / math.sqrt(reps))

    ks = None
    if cs.M == 1 and n >= 2:
        delta_star = n * model.deltas[0]
        if delta_star != 0.0 and -1.0 < delta_star <= 1.0:
            ks = ks_distance(w, LimitLaw(delta_star).cdf)

    return {
        "mean_lr": mean_lr,
        "se_mean_lr": se_mean_lr,
        "moment_1pe": moment_1pe,
        "se_moment_1pe": se_moment_1pe,
        "ks": ks,
        "n": n,
        "reps": reps,
        "seed": int(seed),
    }
