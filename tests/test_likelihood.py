"""Exact log-likelihood ratios, the limit law, and the Monte Carlo diagnostics.

The closed forms are validated three ways: point examples computable by hand,
agreement with a dense density-ratio oracle built from Cholesky factors, and
the measure-theoretic unit-mean identity E[exp(W)] = 1 under the null, both
by quadrature (for the limit law) and by seeded simulation.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats
from numpy.testing import assert_allclose

import lrvlab
from lrvlab import (
    DegenerateDataError,
    DenseGaussianPair,
    FactorizationError,
    InvalidInputError,
    LimitLaw,
    ModelInvalidError,
    block_model,
    build_structure,
    derive_stream,
    limit_law_cdf,
    loglr_cluster,
    loglr_dense,
    loglr_equicorr,
    lr_diagnostics,
)
from lrvlab.cluster_model import class_stats, dense_sigma
from lrvlab.likelihood import chi2_cdf_1df, ks_distance, loglr_cluster_rows, loglr_stat_rows, lr_metrics


def dense_loglr_oracle(x, mu0, mu1, sigma0, sigma1):
    """Independent log-density difference via scipy's multivariate normal."""
    return scipy.stats.multivariate_normal(mu1, sigma1).logpdf(
        x
    ) - scipy.stats.multivariate_normal(mu0, sigma0).logpdf(x)


def random_spd(rng, n, jitter=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + jitter * np.eye(n)


def test_cdf_helpers_match_scipy():
    tgrid = np.linspace(0.0, 30.0, 31)
    assert_allclose(
        chi2_cdf_1df(tgrid), scipy.stats.chi2.cdf(tgrid, df=1), rtol=0, atol=1e-12
    )
    assert chi2_cdf_1df(-1.0) == 0.0


def test_equicorr_point_example():
    # one observation, unit mean shift, independent: log phi(x-1)/phi(x) at 0
    assert loglr_equicorr([0.0], 1.0, 0.0) == pytest.approx(-0.5)


def test_equicorr_independent_case_reduces_to_mean_shift_terms():
    rng = np.random.default_rng(3001)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        x = rng.normal(size=n)
        mu = float(rng.normal())
        z1 = math.sqrt(n) * float(x.mean())
        want = math.sqrt(n) * mu * z1 - n * mu * mu / 2.0
        assert_allclose(loglr_equicorr(x, mu, 0.0), want, rtol=1e-12, atol=1e-12)


def test_equicorr_matches_dense_oracle():
    rng = np.random.default_rng(3002)
    n, delta, mu = 6, 0.1, 0.3
    sigma = (1.0 - delta) * np.eye(n) + delta * np.ones((n, n))
    for _ in range(20):
        x = rng.normal(size=n)
        want = dense_loglr_oracle(x, np.zeros(n), np.full(n, mu), np.eye(n), sigma)
        assert abs(loglr_equicorr(x, mu, delta) - want) < 1e-8


def test_equicorr_rejects_non_positive_definite_blocks():
    with pytest.raises(ModelInvalidError):
        loglr_equicorr([1.0, 2.0, 3.0], 0.0, -0.5)
    with pytest.raises(ModelInvalidError):
        loglr_equicorr([1.0, 2.0], 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        loglr_equicorr([], 0.0, 0.1)


@pytest.mark.parametrize("mu", [True, "0.5", math.inf])
def test_mu_bar_must_be_a_finite_number(mu):
    # float() ran True as mu_bar = 1.0 and "0.5" as 0.5
    cs = build_structure([2, 1])
    model = block_model(cs, [0.3, 0.0])
    x = np.array([0.1, -0.4, 1.2])
    calls = [
        lambda: loglr_stat_rows(*class_stats(x[np.newaxis, :], model), model, mu),
        lambda: loglr_cluster_rows(x[np.newaxis, :], model, mu),
        lambda: loglr_cluster(x, cs, [0.3, 0.0], mu),
        lambda: loglr_equicorr(x, mu, 0.1),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="^mu_bar must be a finite number, got "):
            call()


def test_cluster_loglr_identical_measures_give_zero():
    cs = build_structure([2, 3])
    assert loglr_cluster(np.ones(5), cs, [0.0, 0.0], 0.0) == 0.0


def test_cluster_loglr_single_cluster_equals_equicorr():
    rng = np.random.default_rng(3003)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        x = rng.normal(size=n)
        delta = float(rng.uniform(-0.9 / (n - 1), 0.9))
        mu = float(rng.normal())
        assert loglr_cluster(x, build_structure([n]), [delta], mu) == loglr_equicorr(
            x, mu, delta
        )


def test_cluster_loglr_is_the_sum_of_per_block_terms():
    rng = np.random.default_rng(3004)
    for _ in range(15):
        sizes = rng.integers(1, 7, size=rng.integers(2, 6)).tolist()
        cs = build_structure(sizes)
        deltas = []
        for k in sizes:
            deltas.append(0.0 if k == 1 else float(rng.uniform(-0.8 / (k - 1), 0.8)))
        mu = float(rng.normal())
        x = rng.normal(size=cs.n)
        total = loglr_cluster(x, cs, deltas, mu)
        per_block = 0.0
        for start, k, d in zip(cs.starts, cs.sizes, deltas):
            per_block += loglr_equicorr(x[start : start + k], mu, d)
        assert_allclose(total, per_block, rtol=0, atol=1e-12)


def test_cluster_loglr_matches_dense_oracle():
    rng = np.random.default_rng(3005)
    cs = build_structure([3, 4])
    deltas = [0.2, -0.1]
    mu = 0.5
    model = block_model(cs, deltas)
    sigma = dense_sigma(model)
    for _ in range(20):
        x = rng.normal(size=7)
        want = dense_loglr_oracle(
            x, np.zeros(7), np.full(7, mu), np.eye(7), sigma
        )
        assert abs(loglr_cluster(x, cs, deltas, mu) - want) < 1e-8


def test_cluster_loglr_random_designs_against_dense():
    rng = np.random.default_rng(3006)
    for _ in range(40):
        sizes = rng.integers(1, 9, size=rng.integers(1, 9)).tolist()
        cs = build_structure(sizes)
        deltas = []
        for k in sizes:
            deltas.append(0.0 if k == 1 else float(rng.uniform(-0.9 / (k - 1), 0.9)))
        mu = float(rng.normal() * 0.5)
        model = block_model(cs, deltas)
        sigma = dense_sigma(model)
        x = rng.normal(size=cs.n)
        want = dense_loglr_oracle(
            x, np.zeros(cs.n), np.full(cs.n, mu), np.eye(cs.n), sigma
        )
        assert abs(loglr_cluster(x, cs, deltas, mu) - want) < 1e-8


def test_data_of_the_wrong_length_is_refused():
    with pytest.raises(InvalidInputError) as info:
        loglr_cluster(np.zeros(4), build_structure([2, 3]), [0.1, 0.2], 0.0)
    assert str(info.value) == "expected a data vector of length 5"
    pair = DenseGaussianPair(mu0=[0.0, 0.0], mu1=[0.0, 1.0], sigma0=np.eye(2), sigma1=np.eye(2))
    with pytest.raises(InvalidInputError) as info:
        loglr_dense(np.zeros(3), pair)
    assert str(info.value) == "expected a data vector of length 2"


# The cap is checked with the other dense operations (test_cluster_model).
@pytest.mark.parametrize(
    "mu0, sigma0, message",
    [
        (np.zeros(0), np.eye(1), "mu0 must be a nonempty vector"),
        (np.zeros(2), np.eye(3), "sigma0 must be 2x2"),
    ],
    ids=["empty", "sigma-shape"],
)
def test_dense_pair_refusals(mu0, sigma0, message):
    with pytest.raises(InvalidInputError) as info:
        DenseGaussianPair(mu0=mu0, mu1=mu0, sigma0=sigma0, sigma1=sigma0)
    assert str(info.value) == message


class TestLoglrDense:
    def test_identical_pair_is_zero(self):
        rng = np.random.default_rng(3007)
        sigma = random_spd(rng, 4)
        mu = rng.normal(size=4)
        pair = DenseGaussianPair(mu0=mu, mu1=mu, sigma0=sigma, sigma1=sigma)
        for _ in range(5):
            assert loglr_dense(rng.normal(size=4), pair) == 0.0

    def test_one_dimensional_mean_shift(self):
        pair = DenseGaussianPair(
            mu0=[0.0], mu1=[1.0], sigma0=[[1.0]], sigma1=[[1.0]]
        )
        assert loglr_dense([0.0], pair) == pytest.approx(-0.5)
        assert loglr_dense([0.0], pair) == pytest.approx(loglr_equicorr([0.0], 1.0, 0.0))

    def test_agrees_with_scipy_logpdf_difference(self):
        rng = np.random.default_rng(3008)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            pair = DenseGaussianPair(
                mu0=rng.normal(size=n),
                mu1=rng.normal(size=n),
                sigma0=random_spd(rng, n),
                sigma1=random_spd(rng, n),
            )
            x = rng.normal(size=n)
            want = dense_loglr_oracle(x, pair.mu0, pair.mu1, pair.sigma0, pair.sigma1)
            assert_allclose(loglr_dense(x, pair), want, rtol=1e-9, atol=1e-9)

    def test_formula_path_runs_on_contractive_perturbations(self):
        """Perturbations scaled inside the |lambda| < 1 window exercise both routes."""
        from lrvlab.likelihood import _loglr_spectral

        rng = np.random.default_rng(3009)
        ran_formula = 0
        for _ in range(40):
            n = int(rng.integers(2, 16))
            sigma0 = random_spd(rng, n)
            bump = rng.normal(size=(n, n)) * 0.1
            bump = (bump + bump.T) / 2.0
            sigma1 = sigma0 + bump
            if np.linalg.eigvalsh(sigma1)[0] <= 0.0:
                continue
            pair = DenseGaussianPair(
                mu0=rng.normal(size=n),
                mu1=rng.normal(size=n),
                sigma0=sigma0,
                sigma1=sigma1,
            )
            x = rng.normal(size=n)
            direct = loglr_dense(x, pair)  # asserts agreement internally
            formula = _loglr_spectral(x, pair)
            if formula is not None:
                ran_formula += 1
                assert abs(direct - formula) < 1e-8 * max(1.0, abs(direct))
        assert ran_formula >= 30  # the window must actually be exercised

    def test_formula_path_skipped_outside_eigenvalue_window(self):
        from lrvlab.likelihood import _loglr_spectral

        pair = DenseGaussianPair(
            mu0=np.zeros(3), mu1=np.zeros(3), sigma0=np.eye(3), sigma1=3.0 * np.eye(3)
        )
        assert _loglr_spectral(np.ones(3), pair) is None
        # the direct path still evaluates fine
        want = dense_loglr_oracle(
            np.ones(3), np.zeros(3), np.zeros(3), np.eye(3), 3.0 * np.eye(3)
        )
        assert_allclose(loglr_dense(np.ones(3), pair), want, rtol=1e-12)

    def test_spectral_route_skipped_for_a_sigma0_that_is_not_positive_definite(self):
        from lrvlab.likelihood import _loglr_spectral

        pair = DenseGaussianPair(
            mu0=np.zeros(2), mu1=np.zeros(2), sigma0=np.diag([1.0, -1.0]), sigma1=np.eye(2)
        )
        assert _loglr_spectral(np.ones(2), pair) is None

    def test_disagreeing_routes_raise_under_python_O(self):
        """The cross-check raises rather than asserts, so python -O keeps it."""
        script = (
            "import numpy as np\n"
            "from lrvlab import likelihood\n"
            "print(__debug__)\n"
            "likelihood._loglr_spectral = lambda x, pair: 1.0\n"
            "pair = likelihood.DenseGaussianPair(np.zeros(2), np.ones(2), np.eye(2), np.eye(2))\n"
            "try:\n"
            "    likelihood.loglr_dense(np.zeros(2), pair)\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lrvlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\ndense log-LR routes disagree: direct -1.0 vs spectral 1.0\n"

    def test_rejects_non_spd_and_bad_shapes(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        pair = DenseGaussianPair(
            mu0=np.zeros(2), mu1=np.zeros(2), sigma0=bad, sigma1=np.eye(2)
        )
        with pytest.raises(FactorizationError):
            loglr_dense(np.zeros(2), pair)
        with pytest.raises(InvalidInputError):
            DenseGaussianPair(
                mu0=np.zeros(2), mu1=np.zeros(3), sigma0=np.eye(2), sigma1=np.eye(2)
            )
        with pytest.raises(InvalidInputError):
            DenseGaussianPair(
                mu0=np.zeros(2),
                mu1=np.zeros(2),
                sigma0=np.array([[1.0, 0.5], [0.4, 1.0]]),
                sigma1=np.eye(2),
            )

    def test_unit_mean_under_the_null_measure(self):
        """E[exp(log LR)] = 1 under the denominator measure, n = 5.

        The pair is kept inside the |lambda| < 1 window, which is also the
        condition for exp(log LR) to have a finite second moment under the
        denominator measure — outside it the sample standard error stops
        meaning anything.  loglr_dense is first verified pointwise against a
        batched Cholesky evaluation of the same density difference; the
        batched values then drive the million-draw mean, keeping the runtime
        sane.
        """
        rng = np.random.default_rng(3010)
        n = 5
        sigma0 = random_spd(rng, n)
        bump = rng.normal(size=(n, n))
        bump = (bump + bump.T) / 2.0
        scale = 0.6 * np.linalg.eigvalsh(sigma0)[0] / np.linalg.norm(bump, 2)
        mu0 = rng.normal(size=n) * 0.3
        pair = DenseGaussianPair(
            mu0=mu0,
            mu1=mu0 + rng.normal(size=n) * 0.2,
            sigma0=sigma0,
            sigma1=sigma0 + scale * bump,
        )
        reps = 1_000_000
        l0 = np.linalg.cholesky(pair.sigma0)
        l1 = np.linalg.cholesky(pair.sigma1)
        x = pair.mu0 + rng.standard_normal(size=(reps, n)) @ l0.T

        half0 = scipy.linalg.solve_triangular(l0, (x - pair.mu0).T, lower=True)
        half1 = scipy.linalg.solve_triangular(l1, (x - pair.mu1).T, lower=True)
        logdet0 = 2.0 * np.sum(np.log(np.diagonal(l0)))
        logdet1 = 2.0 * np.sum(np.log(np.diagonal(l1)))
        w = -0.5 * (logdet1 - logdet0) - 0.5 * (
            np.einsum("ij,ij->j", half1, half1) - np.einsum("ij,ij->j", half0, half0)
        )
        for r in range(0, reps, reps // 200):
            assert_allclose(loglr_dense(x[r], pair), w[r], rtol=0, atol=1e-10)

        lr = np.exp(w)
        se = lr.std(ddof=1) / math.sqrt(reps)
        assert abs(lr.mean() - 1.0) < 3.0 * se


class TestLimitLaw:
    def test_support_boundary_and_tails(self):
        law = LimitLaw(0.5)
        bound = -0.5 * math.log(1.5)
        assert law.support_bound == pytest.approx(bound)
        assert limit_law_cdf(0.5, bound) == 0.0
        assert limit_law_cdf(0.5, bound - 1.0) == 0.0
        assert limit_law_cdf(0.5, 50.0) == pytest.approx(1.0)

    def test_negative_delta_mirrors(self):
        law = LimitLaw(-0.5)
        bound = -0.5 * math.log(0.5)  # positive; support is (-inf, bound]
        assert law.support_bound == pytest.approx(bound)
        assert limit_law_cdf(-0.5, bound) == 1.0
        assert limit_law_cdf(-0.5, bound + 1.0) == 1.0
        assert limit_law_cdf(-0.5, -50.0) == pytest.approx(0.0)

    def test_cdf_is_monotone_and_bounded(self):
        for delta in (0.3, 1.0, -0.3, -0.9):
            law = LimitLaw(delta)
            grid = np.linspace(-3.0, 3.0, 301)
            vals = law.cdf(grid)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) >= 0.0)

    def test_domain_validation(self):
        for bad in (0.0, -1.0, -1.5, 1.2, True):  # True was delta = 1
            with pytest.raises(InvalidInputError):
                LimitLaw(bad)
        LimitLaw(1.0)  # the right endpoint is allowed
        assert LimitLaw(np.float32(0.5)).delta == 0.5

    @pytest.mark.parametrize("delta", [1.0, 0.3, -0.3, -0.9])
    def test_cdf_matches_scipy_erf_and_erfc(self, delta):
        """The CDF is erf(sqrt(t / 2)) for delta > 0 and erfc(sqrt(t / 2))
        for delta < 0, t = 2 (1 + delta)(w - bound) / delta; it takes them
        from math, point by point."""
        from scipy.special import erf, erfc

        law = LimitLaw(delta)
        w = law.support_bound + np.sign(delta) * np.geomspace(1e-12, 60.0, 10_000)
        t = 2.0 * (1.0 + delta) * (w - law.support_bound) / delta
        want = (erf if delta > 0.0 else erfc)(np.sqrt(t / 2.0))
        assert_allclose(law.cdf(w), want, rtol=1e-13, atol=0.0)
        assert law.cdf(w.reshape(100, 100)).shape == (100, 100)

    def test_unit_mean_by_quadrature(self):
        """E[e^W] = 1: integrate exp(w(z)) against the standard normal density."""
        for delta in (0.5, -0.5, 0.9, 1.0):

            def integrand(z, d=delta):
                # exponents combined before exp so the tails never overflow
                w = -0.5 * math.log1p(d) + d * z * z / (2.0 * (1.0 + d))
                return math.exp(w - z * z / 2.0) / math.sqrt(2.0 * math.pi)

            value, err = scipy.integrate.quad(integrand, -np.inf, np.inf)
            assert abs(value - 1.0) < 1e-6
            assert err < 1e-6

    def test_cdf_matches_simulated_law(self):
        rng = np.random.default_rng(3011)
        for delta in (0.5, -0.4):
            z = rng.standard_normal(100_000)
            w = -0.5 * math.log1p(delta) + delta * z * z / (2.0 * (1.0 + delta))
            assert ks_distance(w, LimitLaw(delta).cdf) < 0.01


def test_ks_distance_point_mass():
    # single observation at 0.5 against the uniform CDF on [0, 1]
    assert ks_distance(np.array([0.5]), lambda v: np.clip(v, 0.0, 1.0)) == 0.5
    with pytest.raises(InvalidInputError):
        ks_distance(np.array([]), lambda v: v)


def test_ks_distance_large_uniform_sample():
    rng = np.random.default_rng(3012)
    u = rng.uniform(size=200_000)
    assert ks_distance(u, lambda v: np.clip(v, 0.0, 1.0)) < 0.005


class TestLrDiagnostics:
    def test_report_fields_and_serialization(self):
        model = block_model(build_structure([5, 5]), [0.2, 0.2])
        diag = lr_diagnostics(model, 0.1, 2000, seed=90)
        assert set(diag) == {
            "mean_lr",
            "se_mean_lr",
            "moment_1pe",
            "se_moment_1pe",
            "ks",
            "n",
            "reps",
            "seed",
        }
        assert diag["n"] == 10
        assert diag["reps"] == 2000
        assert diag["seed"] == 90
        assert diag["ks"] is None  # two clusters: no limit-law comparison
        json.dumps(diag)  # must be JSON-ready as-is

    def test_unit_mean_headline_check(self):
        model = block_model(build_structure([4] * 25), [0.15] * 25)
        diag = lr_diagnostics(model, 0.1, 100_000, seed=91)
        assert abs(diag["mean_lr"] - 1.0) < 3.0 * diag["se_mean_lr"]
        assert diag["moment_1pe"] > 0.0

    def test_single_cluster_scaled_delta_reports_ks(self):
        n = 1000
        model = block_model(build_structure([n]), [0.5 / n])
        diag = lr_diagnostics(model, 0.1, 20_000, seed=92)
        assert diag["ks"] is not None
        assert 0.0 < diag["ks"] < 0.1

    def test_ks_absent_when_limit_law_does_not_apply(self):
        # single cluster but n * delta far outside the law's domain
        model = block_model(build_structure([10]), [0.3])
        assert lr_diagnostics(model, 0.1, 1000, seed=93)["ks"] is None
        # identity model: delta = 0 has no limit law either
        ident = block_model(build_structure([10]), [0.0])
        assert lr_diagnostics(ident, 0.1, 1000, seed=94)["ks"] is None

    def test_deterministic_under_fixed_seed(self):
        model = block_model(build_structure([3, 3]), [0.3, -0.2])
        a = lr_diagnostics(model, 0.2, 1500, seed=95)
        b = lr_diagnostics(model, 0.2, 1500, seed=95)
        assert a == b

    def test_identity_model_has_unit_ratios(self):
        ident = block_model(build_structure([2] * 50), [0.0] * 50)
        diag = lr_diagnostics(ident, 0.1, 1000, seed=96)
        assert (diag["mean_lr"], diag["se_mean_lr"]) == (1.0, 0.0)
        assert (diag["moment_1pe"], diag["se_moment_1pe"]) == (1.0, 0.0)

    def test_underflowing_weights_raise(self):
        # pairs with delta = 0.9 at n = 2000: log LR is about -3000 in every
        # replication, so every exp(W) underflows and mean_lr would read 0 +- 0
        model = block_model(build_structure([2] * 1000), [0.9] * 1000)
        with pytest.raises(DegenerateDataError, match="underflows to 0"):
            lr_diagnostics(model, 0.1, 1000, seed=97)

    def test_overflowing_weights_raise(self):
        # one exp(W) is inf: the mean would print as inf, not a moment
        model = block_model(build_structure([4]), [0.1])
        w = np.zeros(1000)
        w[7] = 800.0
        with pytest.raises(DegenerateDataError) as info:
            lr_metrics(model, 0.1, w)
        assert str(info.value) == (
            "likelihood ratios are degenerate: exp(W) is not finite in some replication (W in [0, 800])"
        )

    def test_chunk_size_does_not_move_diagnostics(self, monkeypatch):
        from lrvlab import sampler

        model = block_model(build_structure([3, 1, 4, 3]), [0.2, 0.0, -0.1, 0.2])
        wide = lr_diagnostics(model, 0.1, 1200, seed=98)
        monkeypatch.setattr(sampler, "_CHUNK_SCALARS", 64)
        assert lr_diagnostics(model, 0.1, 1200, seed=98) == wide

    def test_validation(self):
        model = block_model(build_structure([4]), [0.1])
        with pytest.raises(InvalidInputError):
            lr_diagnostics(model, 0.0, 2000, seed=0)
        with pytest.raises(InvalidInputError):
            lr_diagnostics(model, math.nan, 1000, seed=1)
        with pytest.raises(InvalidInputError):
            lr_diagnostics(model, 0.1, 999, seed=0)
        # each of these ran: 1000.9 as 1000 replications, True as epsilon = 1
        with pytest.raises(InvalidInputError, match="^reps must be an integer"):
            lr_diagnostics(model, 0.1, 1000.9, seed=3)
        with pytest.raises(InvalidInputError, match="^seed must be an integer"):
            lr_diagnostics(model, 0.1, 1000, seed=3.0)
        with pytest.raises(InvalidInputError, match="^epsilon must be a finite number"):
            lr_diagnostics(model, True, 1000, seed=3)


def test_batched_loglr_rows_match_scalar():
    model = block_model(build_structure([2, 3]), [0.4, -0.3])
    x = np.stack([derive_stream(17, r).normals(5) for r in range(8)])
    w = loglr_cluster_rows(x, model, 0.25)
    for r in range(8):
        assert_allclose(
            w[r],
            loglr_cluster(x[r], model.structure, list(model.deltas), 0.25),
            rtol=0,
            atol=1e-12,
        )
