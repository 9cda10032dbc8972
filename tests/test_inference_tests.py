"""The randomized sign test, the between-cluster t-test, and the z-test.

Exact finite-sample properties (size of the sign test, the t-distribution of
the cluster statistic under common-variance nulls, the standard-normal z
statistic at the true variance bound) are checked by seeded Monte Carlo with
binomial standard errors; the t quantile is checked against an independent
quadrature-plus-bisection inversion of the t CDF.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from numpy.testing import assert_allclose

from lrvlab import (
    DegenerateDataError,
    InvalidInputError,
    block_model,
    build_structure,
    cluster_summary,
    cluster_t_test,
    deltas_for_common_variance,
    known_bound_z_test,
    long_run_variance,
    sign_test,
    student_t_quantile,
)
from lrvlab.inference_tests import cluster_t_rows, sign_test_rows, z_test_rows
from lrvlab.sampler import _to_uniform, raw_rows, sample_rows

ALPHA = 0.05


def rows_and_uniform(model, seed, reps):
    """Null data rows and, from word n of the same streams, one uniform each."""
    n = model.structure.n
    u = _to_uniform(raw_rows(seed, range(reps), n + 1)[:, n])
    return sample_rows(model, 0.0, seed, range(reps)), u


def t_quantile_by_quadrature(df, p):
    """Invert the t CDF computed by adaptive quadrature of the density."""
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(
        df * math.pi
    )

    def pdf(t):
        return c * (1.0 + t * t / df) ** (-(df + 1) / 2.0)

    def cdf_minus_p(x):
        tail, _ = scipy.integrate.quad(pdf, 0.0, x, epsabs=1e-12, epsrel=1e-12)
        return 0.5 + tail - p

    return scipy.optimize.brentq(cdf_minus_p, 0.0, 1e4, xtol=1e-12, rtol=1e-14)


class TestSignTest:
    def test_negative_mean_never_rejects(self):
        out = sign_test([-1.0, -2.0, 0.5], ALPHA, u=0.0)
        assert out.statistic == -1.0
        assert out.reject_probability == 0.0
        assert out.rejected is False

    def test_positive_mean_rejects_with_probability_two_alpha(self):
        out = sign_test([1.0, 2.0], ALPHA, u=0.09)
        assert out.statistic == 1.0
        assert out.reject_probability == pytest.approx(2.0 * ALPHA)
        assert out.rejected is True  # 0.10 > 0.09
        assert sign_test([1.0, 2.0], ALPHA, u=0.11).rejected is False

    def test_tie_counts_as_positive(self):
        out = sign_test([1.0, -1.0], ALPHA, u=0.5)
        assert out.statistic == 1.0
        assert out.reject_probability == pytest.approx(2.0 * ALPHA)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4001)
        for _ in range(20):
            x = rng.normal(size=7)
            s = float(rng.uniform(0.01, 100.0))
            a = sign_test(x, ALPHA, u=0.3)
            b = sign_test(s * x, ALPHA, u=0.3)
            assert a.reject_probability == b.reject_probability
            assert a.rejected == b.rejected

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sign_test([1.0], 0.5, u=0.1)
        with pytest.raises(InvalidInputError):
            sign_test([1.0], 0.0, u=0.1)
        with pytest.raises(InvalidInputError):
            sign_test([1.0], ALPHA, u=1.5)

    def test_size_is_alpha_under_the_null(self):
        model = block_model(build_structure([1] * 100), [0.0] * 100)
        reps = 10_000
        x, u = rows_and_uniform(model, 4002, reps)
        rate = float(sign_test_rows(x, ALPHA, u).mean())
        se = math.sqrt(ALPHA * (1.0 - ALPHA) / reps)
        assert abs(rate - ALPHA) < 3.0 * se

    def test_power_never_exceeds_two_alpha(self):
        # an enormous mean shift on a strongly dependent design: the rate
        # climbs to 2 alpha and stops there
        model = block_model(build_structure([50]), [0.3])
        reps = 10_000
        x, u = rows_and_uniform(model, 4003, reps)
        rate = float(sign_test_rows(x + 10.0, ALPHA, u).mean())
        cap = 2.0 * ALPHA
        se = math.sqrt(cap * (1.0 - cap) / reps)
        assert rate <= cap + 3.0 * se


class TestClusterSummary:
    def test_two_singleton_example(self):
        summary = cluster_summary([1.0, 3.0], build_structure([1, 1]))
        assert summary.xi == (1.0, 3.0)
        assert summary.U_prime == 2.0
        assert summary.T_prime == 2.0

    def test_normalization_by_root_cluster_size(self):
        summary = cluster_summary([1.0, 1.0, 1.0, 1.0], build_structure([4]))
        assert summary.xi == (2.0,)  # 4 / sqrt(4)
        assert summary.T_prime == 0.0  # single cluster: no variance defined

    def test_moments_equal_the_direct_mean_and_variance_of_xi(self):
        # U' and T' come from class statistics (T' as a within-class plus a
        # between-class mass); the oracle is numpy on the per-block xi
        rng = np.random.default_rng(4010)
        for _ in range(20):
            sizes = rng.choice([1, 2, 3, 5], size=int(rng.integers(2, 12))).tolist()
            cs = build_structure(sizes)
            x = rng.normal(size=cs.n)
            for shift in (0.0, 1e6):
                y = x + shift
                xi = [y[s : s + k].sum() / math.sqrt(k) for s, k in zip(cs.starts, sizes)]
                summary = cluster_summary(y, cs)
                assert_allclose(summary.U_prime, np.mean(xi), rtol=1e-12)
                assert_allclose(summary.T_prime, np.var(xi, ddof=1), rtol=1e-9)


class TestClusterTTest:
    def test_two_singleton_example(self):
        out = cluster_t_test([1.0, 3.0], build_structure([1, 1]), ALPHA)
        assert out.statistic == pytest.approx(2.0)  # sqrt(2) * 2 / sqrt(2)
        assert out.critical_value == pytest.approx(student_t_quantile(1, 0.95))
        assert out.rejected is False  # 2.0 < 6.31...
        assert out.reject_probability == 0.0

    def test_outcome_indicator_invariant(self):
        rng = np.random.default_rng(4004)
        cs = build_structure([2, 3, 2])
        for _ in range(20):
            out = cluster_t_test(rng.normal(size=7), cs, ALPHA)
            assert out.reject_probability == (
                1.0 if out.statistic > out.critical_value else 0.0
            )
            assert out.rejected == (out.reject_probability == 1.0)

    def test_scale_invariance_and_location_drift(self):
        rng = np.random.default_rng(4005)
        cs = build_structure([3, 2, 4])
        equal = build_structure([3, 3, 3])
        for _ in range(15):
            x = rng.normal(size=9)
            s = float(rng.uniform(0.1, 10.0))
            a = cluster_t_test(x, cs, ALPHA)
            b = cluster_t_test(s * x, cs, ALPHA)
            assert_allclose(a.statistic, b.statistic, rtol=1e-12)
            # a location shift enters each xi as mu * sqrt(n_m); U' moves by
            # the average of those, and with equal sizes the spread is fixed
            mu = float(rng.normal())
            shifted = cluster_summary(x + mu, cs)
            base = cluster_summary(x, cs)
            drift = mu * np.mean(np.sqrt(cs.sizes_array))
            assert_allclose(shifted.U_prime, base.U_prime + drift, rtol=1e-10, atol=1e-12)
            assert_allclose(
                shifted.xi,
                np.asarray(base.xi) + mu * np.sqrt(cs.sizes_array),
                rtol=1e-10,
                atol=1e-12,
            )
            eq_shift = cluster_summary(x + mu, equal)
            eq_base = cluster_summary(x, equal)
            assert_allclose(eq_shift.T_prime, eq_base.T_prime, rtol=1e-9, atol=1e-12)

    def test_degenerate_and_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            cluster_t_test([1.0, 2.0], build_structure([2]), ALPHA)
        # equal cluster sizes with constant data: every xi coincides
        with pytest.raises(DegenerateDataError):
            cluster_t_test([1.0, 1.0, 1.0, 1.0], build_structure([2, 2]), ALPHA)
        with pytest.raises(InvalidInputError):
            cluster_t_test([1.0, 2.0], build_structure([1, 1]), 1.5)

    def test_size_under_common_variance_null(self):
        """xi are iid normal under these deltas, so V' is exactly t(M-1)."""
        cs = build_structure([25] * 4)
        model = block_model(cs, deltas_for_common_variance(cs, 1.5))
        reps = 10_000
        x = sample_rows(model, 0.0, 4006, range(reps))
        rate = float(cluster_t_rows(x, cs, ALPHA).mean())
        se = math.sqrt(ALPHA * (1.0 - ALPHA) / reps)
        assert abs(rate - ALPHA) < 3.0 * se

    def test_power_at_root_n_drift(self):
        cs = build_structure([25] * 4)
        model = block_model(cs, deltas_for_common_variance(cs, 1.5))
        sigma_sq = long_run_variance(model)
        mu = 5.0 * math.sqrt(sigma_sq) / math.sqrt(cs.n)
        reps = 4000
        x = sample_rows(model, mu, 4007, range(reps))
        rate = float(cluster_t_rows(x, cs, ALPHA).mean())
        assert rate >= 0.9


class TestKnownBoundZTest:
    def test_zero_vector(self):
        out = known_bound_z_test([0.0, 0.0, 0.0], 1.0, ALPHA)
        assert out.statistic == 0.0
        assert out.rejected is False
        assert out.critical_value == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            known_bound_z_test([1.0], 0.0, ALPHA)
        with pytest.raises(InvalidInputError):
            known_bound_z_test([5.0] * 10, math.nan, ALPHA)
        with pytest.raises(InvalidInputError):
            known_bound_z_test([1.0], 1.0, 0.0)

    def test_exact_size_at_the_true_variance(self):
        cs = build_structure([2] * 50)
        model = block_model(cs, [0.3] * 50)
        c = long_run_variance(model)
        reps = 10_000
        x = sample_rows(model, 0.0, 4008, range(reps))
        rate = float(z_test_rows(x, c, ALPHA).mean())
        se = math.sqrt(ALPHA * (1.0 - ALPHA) / reps)
        assert abs(rate - ALPHA) < 3.0 * se

    def test_conservative_under_a_slack_bound(self):
        cs = build_structure([2] * 50)
        model = block_model(cs, [0.3] * 50)  # sigma_LR^2 = 1.3
        reps = 10_000
        x = sample_rows(model, 0.0, 4009, range(reps))
        rate = float(z_test_rows(x, 2.0, ALPHA).mean())
        se = math.sqrt(ALPHA * (1.0 - ALPHA) / reps)
        assert rate <= ALPHA + 3.0 * se


class TestStudentTQuantile:
    def test_cauchy_closed_forms(self):
        assert student_t_quantile(1, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert student_t_quantile(1, 0.75) == pytest.approx(1.0, abs=1e-10)

    def test_matches_quadrature_inversion(self):
        for df in (1, 2, 3, 5, 30):
            for p in (0.9, 0.95, 0.975):
                want = t_quantile_by_quadrature(df, p)
                assert abs(student_t_quantile(df, p) - want) < 1e-8, (df, p)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            student_t_quantile(0, 0.5)
        with pytest.raises(InvalidInputError):
            student_t_quantile(3, 1.0)


def test_row_kernels_match_scalar_decisions():
    rng = np.random.default_rng(4010)
    cs = build_structure([3, 3, 2])
    X = rng.normal(size=(20, 8))
    u = rng.uniform(size=20)
    sign_rows = sign_test_rows(X, ALPHA, u)
    t_rows = cluster_t_rows(X, cs, ALPHA)
    z_rows = z_test_rows(X, 1.7, ALPHA)
    for r in range(20):
        assert sign_rows[r] == sign_test(X[r], ALPHA, u[r]).rejected
        assert t_rows[r] == cluster_t_test(X[r], cs, ALPHA).rejected
        assert z_rows[r] == known_bound_z_test(X[r], 1.7, ALPHA).rejected
