"""Deterministic streams and the exact block-equicorrelation sampler.

Distributional checks compare empirical moments of large seeded batches
against the model covariance with explicit standard-error budgets; exactness
checks (bit-identical replay, the identity-covariance collapse) use equality.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtri

from lrvlab import (
    FactorizationError,
    InvalidInputError,
    ModelInvalidError,
    block_model,
    build_structure,
    derive_stream,
    sample,
    sample_dense,
    sampler,
)
from lrvlab.cluster_model import BlockEquicorrModel, block_stats, dense_sigma
from lrvlab.sampler import (
    _VECTOR_WIDTH,
    _to_uniform,
    block_stat_rows,
    block_stat_words,
    raw_rows,
    sample_rows,
    standard_block_rows,
)


def test_stream_replay_is_bit_identical():
    a = derive_stream(42, 0).normals(1000)
    b = derive_stream(42, 0).normals(1000)
    assert_array_equal(a, b)


def test_streams_differ_across_keys():
    base = derive_stream(42, 0).raw(64)
    assert not np.array_equal(base, derive_stream(42, 1).raw(64))
    assert not np.array_equal(base, derive_stream(43, 0).raw(64))


def test_uniforms_live_strictly_inside_unit_interval():
    u = derive_stream(7, 3).uniforms(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_paired_streams_are_empirically_independent():
    m = 100_000
    a = derive_stream(42, 7).normals(m)
    b = derive_stream(42, 8).normals(m)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 3.0 / np.sqrt(m)


def test_normal_moments():
    m = 1_000_000
    z = derive_stream(42, 7).normals(m)
    assert abs(z.mean()) < 4.0 / np.sqrt(m)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / m)


def test_identity_model_returns_shifted_normals_exactly():
    """With every delta zero the draw must equal mu + g bit for bit."""
    model = block_model(build_structure([2, 3]), [0.0, 0.0])
    x = sample(model, 1.5, derive_stream(11, 4))
    g = derive_stream(11, 4).normals(5)
    assert_array_equal(x, 1.5 + g)


def test_scalar_sample_matches_batched_rows_bitwise():
    model = block_model(build_structure([3, 1, 4]), [0.3, 0.0, -0.2])
    batch = sample_rows(model, 0.7, 99, range(10))
    for rep in range(10):
        one = sample(model, 0.7, derive_stream(99, rep))
        assert_array_equal(one, batch[rep])


class TestRawRows:
    """raw_rows re-keys one generator per call; rows must equal fresh streams."""

    @staticmethod
    def assert_rows_match_streams(seed, ids, width):
        rows = raw_rows(seed, ids, width)
        assert rows.shape == (len(ids), width)
        assert rows.dtype == np.uint64
        for r, rep in enumerate(ids):
            assert_array_equal(rows[r], derive_stream(seed, rep).raw(width))

    def test_ids_out_of_order_repeated_and_past_2_63(self):
        ids = [9, 2, 2, 0, 2**63, 2**63 + 17, 2**64 - 1, 9, -1]
        self.assert_rows_match_streams(31, ids, 7)

    @pytest.mark.parametrize("seed", [-5, -(2**63), 2**63, 2**64 - 1, 0])
    def test_negative_and_large_master_seeds(self, seed):
        self.assert_rows_match_streams(seed, [0, 3, 1, 2**63 + 1], 6)

    # Each width stops one word into Philox's four-word block, so a buffer
    # left over from the previous row would show up in the next one.
    @pytest.mark.parametrize("width", [1, 5, 13])
    def test_widths(self, width):
        self.assert_rows_match_streams(2026, list(range(8)) + [4], width)

    def test_concurrent_calls_share_no_generator(self):
        ids = list(range(400))
        jobs = {seed: raw_rows(seed, ids, 5) for seed in (101, 202)}
        results, errors = {}, []

        def work(seed):
            try:
                for attempt in range(20):
                    results[(seed, attempt)] = raw_rows(seed, ids, 5)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 40
        for (seed, _), rows in results.items():
            assert_array_equal(rows, jobs[seed])

    def test_concurrent_calls_on_the_loop_path_share_no_generator(self):
        # width 5 above takes the vectorized path; this width takes the
        # re-keyed generator loop
        width = _VECTOR_WIDTH + 5
        ids = list(range(200))
        jobs = {seed: raw_rows(seed, ids, width) for seed in (101, 202)}
        results, errors = {}, []

        def work(seed):
            try:
                for attempt in range(10):
                    results[(seed, attempt)] = raw_rows(seed, ids, width)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 20
        for (seed, _), rows in results.items():
            assert_array_equal(rows, jobs[seed])


class TestPhiloxPaths:
    """Both raw_rows paths against fresh streams: the vectorized Philox at
    widths up to _VECTOR_WIDTH and the re-keyed generator loop above it."""

    # Keys reduce mod 2**64, so the ids cover negatives, ids past 2**63,
    # repeats and descending order, given in each form callers pass.
    IDS = {
        "list": [9, 2, 2, 0, -1, -(2**63), 2**63, 2**63 + 17, 2**64 - 1, 9, 5],
        "range across 2**63": range(2**63 - 3, 2**63 + 3),
        "descending range": range(4, -9, -3),
        "numpy uint64": np.array([7, 2**63 + 1, 7, 2**64 - 1, 3], dtype=np.uint64),
        "numpy int64": np.array([-4, 11, -4, -(2**63)], dtype=np.int64),
        "numpy scalars": [np.uint64(2**64 - 1), np.int64(-2), np.int32(6), np.uint8(6)],
    }

    @pytest.mark.parametrize(
        "width", [1, 4, 5, 8, _VECTOR_WIDTH, _VECTOR_WIDTH + 1, 100, 1001]
    )
    @pytest.mark.parametrize("seed", [-(2**63), 0, 2**63, 2**64 - 1])
    def test_rows_equal_fresh_streams(self, seed, width):
        for ids in self.IDS.values():
            TestRawRows.assert_rows_match_streams(seed, ids, width)

    @pytest.mark.parametrize("lanes", [1, 3, 7, 64])
    def test_narrow_sub_batches_change_no_row(self, monkeypatch, lanes):
        ids = list(range(37)) + [2**64 - 1, -1, 2**63]
        widths = [1, 5, 13, _VECTOR_WIDTH]
        want = {w: raw_rows(2026, ids, w) for w in widths}
        monkeypatch.setattr(sampler, "_PHILOX_LANES", lanes)
        for w in widths:
            assert_array_equal(raw_rows(2026, ids, w), want[w])


def test_pair_covariance():
    model = block_model(build_structure([2]), [0.5])
    reps = 300_000
    x = sample_rows(model, 0.0, 2024, range(reps))
    cov = np.cov(x, rowvar=False)
    se_var = np.sqrt(2.0 / reps)
    se_cov = np.sqrt((1.0 + 0.5**2) / reps)
    assert abs(cov[0, 0] - 1.0) < 4.0 * se_var
    assert abs(cov[1, 1] - 1.0) < 4.0 * se_var
    assert abs(cov[0, 1] - 0.5) < 4.0 * se_cov


def test_mixed_sign_block_covariance():
    """Entrywise empirical covariance of a [3, 4] model within 4 SE."""
    cs = build_structure([3, 4])
    model = block_model(cs, [0.3, -0.2])
    sigma = dense_sigma(model)
    reps = 300_000
    x = sample_rows(model, 0.0, 31337, range(reps))
    cov = np.cov(x, rowvar=False)
    for i in range(7):
        for j in range(7):
            se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / reps)
            assert abs(cov[i, j] - sigma[i, j]) < 4.0 * se, (i, j)


def test_mean_shift():
    model = block_model(build_structure([4]), [0.25])
    reps = 100_000
    x = sample_rows(model, 2.0, 8, range(reps))
    se = 1.0 / np.sqrt(reps)
    assert np.all(np.abs(x.mean(axis=0) - 2.0) < 4.0 * se)


def test_negative_delta_near_boundary():
    # k = 4 allows delta down to -1/3; sample close to it and check the
    # within-block correlation empirically.
    d = -0.32
    model = block_model(build_structure([4]), [d])
    reps = 200_000
    x = sample_rows(model, 0.0, 606, range(reps))
    cov = np.cov(x, rowvar=False)
    se = np.sqrt((1.0 + d * d) / reps)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(cov[i, j] - d) < 4.0 * se


def test_sampling_an_unvalidated_model_raises():
    # the dataclass validates itself, so the sampler never sees a
    # non-positive-definite model, however it was built
    cs = build_structure([3])
    with pytest.raises(ModelInvalidError):
        BlockEquicorrModel(structure=cs, deltas=(1.5,), c_bound=None)
    with pytest.raises(ModelInvalidError):
        dataclasses.replace(block_model(cs, [0.2]), deltas=(1.5,))


class TestSampleDense:
    def test_moments(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        mean = np.array([1.0, -1.0])
        stream = derive_stream(404, 0)
        reps = 30_000
        draws = np.empty((reps, 2))
        for r in range(reps):
            draws[r] = sample_dense(mean, sigma, stream)
        emp = np.cov(draws, rowvar=False)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * np.sqrt(np.diag(sigma) / reps))
        for i in range(2):
            for j in range(2):
                se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / reps)
                assert abs(emp[i, j] - sigma[i, j]) < 4.0 * se

    def test_strong_correlation(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        stream = derive_stream(405, 0)
        reps = 40_000
        draws = np.empty((reps, 2))
        for r in range(reps):
            draws[r] = sample_dense(np.zeros(2), sigma, stream)
        corr = float(np.corrcoef(draws, rowvar=False)[0, 1])
        se = (1.0 - 0.9**2) / np.sqrt(reps)
        assert abs(corr - 0.9) < 4.0 * se

    def test_agrees_with_block_sampler_in_distribution(self):
        """Normalized sums from the two samplers pass a two-sample KS test."""
        import scipy.stats

        cs = build_structure([3])
        model = block_model(cs, [0.4])
        reps = 50_000
        x_block = sample_rows(model, 0.0, 171, range(reps))
        sums_block = x_block.sum(axis=1) / np.sqrt(3.0)

        sigma = dense_sigma(model)
        stream = derive_stream(172, 0)
        sums_dense = np.empty(reps)
        for r in range(reps):
            sums_dense[r] = sample_dense(np.zeros(3), sigma, stream).sum() / np.sqrt(3.0)

        result = scipy.stats.ks_2samp(sums_block, sums_dense)
        assert result.pvalue > 0.001

    def test_rejects_non_spd(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(FactorizationError):
            sample_dense(np.zeros(2), sigma, derive_stream(0, 0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            sample_dense(np.zeros(3), np.eye(2), derive_stream(0, 0))
        with pytest.raises(InvalidInputError):
            sample_dense(np.zeros(2), np.ones((2, 3)), derive_stream(0, 0))
        with pytest.raises(InvalidInputError):
            sample_dense(np.zeros(4096), np.eye(4096), derive_stream(0, 0))


class TestBlockStatRows:
    """The O(M) draw of block statistics: exact moments, the O(n) path in
    distribution, the per-replication stream contract and the chi-square
    inversion."""

    DESIGNS = {
        "single": ([50], [0.3]),
        "pairs": ([2] * 20, [0.5] * 20),
        # negative deltas, a delta = 0 group of non-singletons, singletons,
        # and groups whose blocks are not adjacent
        "mixed": ([3, 1, 4, 2, 5, 1, 3, 6], [0.3, 0.0, -0.2, 0.0, 0.3, 0.0, -0.2, 0.0]),
    }

    @staticmethod
    def model(name):
        sizes, deltas = TestBlockStatRows.DESIGNS[name]
        return block_model(build_structure(sizes), deltas)

    def test_mixed_design_groups_by_delta_in_order_of_appearance(self):
        model = self.model("mixed")
        assert_array_equal(model.residual_groups, [0, -1, 1, 2, 0, -1, 1, 2])
        deltas, nu = model.residual_params
        assert_array_equal(deltas, [0.3, -0.2, 0.0])
        assert_array_equal(nu, [2 + 4, 3 + 2, 1 + 5])
        assert block_stat_words(model) == 8 + 3 + 1
        assert block_stat_words(self.model("pairs")) == 20 + 1 + 1

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_exact_moments_within_six_se(self, name):
        model = self.model(name)
        mu = 0.7
        reps = 40_000
        s1, t, u = block_stat_rows(model, mu, 8080, range(reps))
        sizes = model.structure.sizes_array
        var = sizes * (1.0 + (sizes - 1) * model.deltas_array)
        assert np.all(np.abs(s1.mean(axis=0) - sizes * mu) < 6.0 * np.sqrt(var / reps))
        se_var = var * np.sqrt(2.0 / (reps - 1))
        assert np.all(np.abs(s1.var(axis=0, ddof=1) - var) < 6.0 * se_var)

        deltas, nu = model.residual_params
        assert t.shape == (reps, nu.size)
        mean_t = (1.0 - deltas) * nu
        var_t = 2.0 * (1.0 - deltas) ** 2 * nu
        assert np.all(np.abs(t.mean(axis=0) - mean_t) < 6.0 * np.sqrt(var_t / reps))
        # a scaled chi-square has excess kurtosis 12/nu
        se_var_t = var_t * np.sqrt((2.0 + 12.0 / nu) / reps)
        assert np.all(np.abs(t.var(axis=0, ddof=1) - var_t) < 6.0 * se_var_t)

        assert u.shape == (reps,)
        assert abs(u.mean() - 0.5) < 6.0 * np.sqrt(1.0 / 12.0 / reps)

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_matches_block_stats_of_mixed_draws_in_distribution(self, name):
        import scipy.stats

        model = self.model(name)
        reps = 20_000
        s1, t, _ = block_stat_rows(model, -0.4, 9090, range(reps))
        x = sample_rows(model, -0.4, 9091, range(reps))
        s1_ref, t_ref = block_stats(x, model.structure, model.residual_groups)
        assert s1_ref.shape == s1.shape and t_ref.shape == t.shape
        for m in range(s1.shape[1]):
            assert scipy.stats.ks_2samp(s1[:, m], s1_ref[:, m]).pvalue > 1e-6, m
        for g in range(t.shape[1]):
            assert scipy.stats.ks_2samp(t[:, g], t_ref[:, g]).pvalue > 1e-6, g

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_rows_depend_only_on_their_own_stream(self, name):
        model = self.model(name)
        ids = [7, 3, 11, 0, 5, 2**63 + 1, 3]
        batch = block_stat_rows(model, 0.2, 4242, ids)
        for r, rep in enumerate(ids):
            one = block_stat_rows(model, 0.2, 4242, [rep])
            for got, want in zip(batch, one):
                assert_array_equal(got[r], want[0])
        for width in (1, 2, 4):
            parts = [
                block_stat_rows(model, 0.2, 4242, ids[lo : lo + width])
                for lo in range(0, len(ids), width)
            ]
            for k, got in enumerate(batch):
                assert_array_equal(got, np.concatenate([p[k] for p in parts]))
        reordered = block_stat_rows(model, 0.2, 4242, ids[::-1])
        for got, want in zip(reordered, batch):
            assert_array_equal(got, want[::-1])

    def test_words_follow_the_documented_layout(self):
        from scipy.special import gammaincinv

        model = self.model("mixed")
        ids = range(5)
        m, g = 8, 3
        words = _to_uniform(raw_rows(31, ids, m + g + 1))
        deltas, nu = model.residual_params
        z, c, u = standard_block_rows(model, 31, ids)
        assert_array_equal(z, ndtri(words[:, :m]))
        assert_array_equal(c, 2.0 * gammaincinv(nu / 2.0, words[:, m : m + g]))
        assert_array_equal(u, words[:, m + g])

        s1, t, u = block_stat_rows(model, 1.25, 31, ids)
        sizes = model.structure.sizes_array
        scale = np.sqrt(sizes * (1.0 + (sizes - 1) * model.deltas_array))
        assert_array_equal(s1, sizes * 1.25 + scale * z)
        assert_array_equal(t, (1.0 - deltas) * c)
        assert_array_equal(u, words[:, m + g])

    @pytest.mark.parametrize("nu", [1, 19, 9999])
    def test_residual_masses_invert_the_chi_square_cdf(self, nu):
        from scipy.special import gammainc

        delta = 0.25
        model = block_model(build_structure([nu + 1]), [delta])
        ids = range(500)
        _, t, _ = block_stat_rows(model, 0.0, 77, ids)
        u = _to_uniform(raw_rows(77, ids, 3))[:, 1]
        back = gammainc(nu / 2.0, t[:, 0] / (2.0 * (1.0 - delta)))
        assert_allclose(back, u, rtol=0, atol=1e-13)

    def test_rejects_unvalidated_models(self):
        with pytest.raises(ModelInvalidError):
            BlockEquicorrModel(structure=build_structure([3]), deltas=(1.5,), c_bound=None)
        with pytest.raises(ModelInvalidError):
            dataclasses.replace(self.model("single"), deltas=(1.5,))

