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
from lrvlab.cluster_model import BlockEquicorrModel, class_stats, dense_sigma
from lrvlab.sampler import (
    _centered,
    _inverse_normal,
    _uniforms,
    class_stat_rows,
    mixed_class_stats,
    normal_rows,
    sample_rows,
)

_MASK = (1 << 64) - 1


def normals_of_words(words) -> np.ndarray:
    """The documented transform, out of place: x = (w >> 11) 2**-53,
    q = (x - 1/2) + 2**-54 and the inverse normal of q."""
    x = (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53
    return _inverse_normal(_centered(x))


def ulps_apart(a, b) -> np.ndarray:
    """Distance in units in the last place between float arrays."""
    def ordered(v):
        i = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.int64(-(2**63)) - i, i)

    return np.abs(ordered(a) - ordered(b))


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


# Words at the ends and the middle of the range: m = w >> 11 is 0, 2**52 - 1,
# 2**52, 2**53 - 2 and 2**53 - 1.  With u = ((w >> 11) + 1/2) 2**-53 the top
# 2**11 words rounded to u = 1.0 and an infinite normal.
EDGE_WORDS = [0, 2**63 - 1, 2**63, 2**64 - 2**11 - 1, 2**64 - 1]


@pytest.mark.parametrize("word", EDGE_WORDS)
def test_the_transform_is_exact_at_every_word(word):
    m = word >> 11
    q = _centered(np.array([m * 2.0**-53]))
    # q 2**54 is the odd integer 2 (m - 2**52) + 1
    assert int(q[0] * 2.0**54) == 2 * (m - 2**52) + 1
    g = normals_of_words([word])
    assert np.isfinite(g[0])
    # complementing the top 53 bits negates the normal bit for bit
    flipped = normals_of_words([word ^ (((1 << 53) - 1) << 11)])
    assert_array_equal(flipped.view(np.uint64), (-g).view(np.uint64))
    # the uniforms of the randomization and of Marsaglia-Tsang
    u = _uniforms(q.copy())
    assert 0.0 < u[0] < 1.0


# ulps between the inverse normal and scipy's ndtri.  4 is not enough: over
# 10^6 words scipy's own value is up to 5 ulps from the exact quantile
# (mpmath, 40 digits) and AS241's up to 2 (central) or 4 (tails).
NDTRI_ULPS = 6


def test_inverse_normal_matches_scipy_ndtri_within_a_few_ulps():
    """On 10^6 stream words, the inverse normal at 1/2 + q equals ndtri(p)
    below 1/2 and -ndtri(p) above, with p = 1/2 - |q| exact, within
    NDTRI_ULPS; and so down to p = 2**-54 on the odd multiples of 2**-54."""
    q = _centered((derive_stream(2028, 0).raw(10**6) >> np.uint64(11)) * 2.0**-53)
    got = _inverse_normal(q.copy())
    p = 0.5 - np.abs(q)
    want = np.where(q < 0.0, ndtri(p), -ndtri(p))
    assert ulps_apart(got, want).max() <= NDTRI_ULPS
    # every p = k 2**-54 with k odd below 2**12, and 2**12 of them after each
    # power of two from 2**-42 up to 1/4
    k = np.concatenate(
        [np.arange(1, 2**12, 2)] + [2**e + np.arange(1, 2**13, 2) for e in range(12, 53)]
    ).astype(np.float64)
    p = k * 2.0**-54
    p = p[p < 0.5]
    lower = _inverse_normal(p - 0.5)
    assert ulps_apart(lower, ndtri(p)).max() <= NDTRI_ULPS
    assert_array_equal(_inverse_normal(0.5 - p), -lower)
    assert p[0] == 2.0**-54 and np.all(np.isfinite(lower))


def test_concurrent_inverse_normals_share_no_scratch():
    """Calls in progress at once each take their own scratch buffer; a
    shared one would mix the values of different arrays."""
    inputs = [
        _centered((derive_stream(7, k).raw(3 * 10**4 + k) >> np.uint64(11)) * 2.0**-53) for k in range(4)
    ]
    want = [_inverse_normal(q.copy()) for q in inputs]
    errors = []

    def work(k):
        try:
            for _ in range(30):
                assert_array_equal(_inverse_normal(inputs[k].copy()), want[k])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


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


@pytest.mark.parametrize(
    "sizes,deltas,mu",
    [([3, 1, 4], [0.3, 0.0, -0.2], 0.7), ([2] * 60, [0.4] * 60, 0.0), ([5, 5], [0.0, 0.0], -1.25)],
)
def test_in_place_rows_equal_the_documented_expressions(sizes, deltas, mu):
    """sample_rows works in place; its rows must equal the out-of-place
    transform of each stream's raw words (normals_of_words) and the mixing
    mu + a (g - means) + b means (or mu + g at delta = 0) bit for bit."""
    model = block_model(build_structure(sizes), deltas)
    cs = model.structure
    g = np.stack([normals_of_words(derive_stream(13, r).raw(cs.n)) for r in range(9)])
    if any(deltas):
        means = np.repeat(np.add.reduceat(g, cs.starts, axis=-1) / cs.sizes_array, sizes, axis=-1)
        a = np.repeat(np.sqrt(model.base), sizes)
        b = np.repeat(np.sqrt(model.top), sizes)
        want = mu + a * (g - means) + b * means
    else:
        want = mu + g
    assert_array_equal(sample_rows(model, mu, 13, range(9)), want)


def test_normal_rows_are_each_streams_normals():
    ids = [3, 0, 2**63 + 5, 3]
    rows = normal_rows(21, ids, 17)
    for row, rep in zip(rows, ids):
        assert_array_equal(row, derive_stream(21, rep).normals(17))


@pytest.mark.parametrize("mu", [True, "0.5", float("nan")])
def test_mu_bar_must_be_a_finite_number(mu):
    # float() ran True as mu_bar = 1.0 and "0.5" as 0.5
    model = block_model(build_structure([2, 1]), [0.3, 0.0])
    calls = [
        lambda: sample(model, mu, derive_stream(1, 0)),
        lambda: sample_rows(model, mu, 1, range(2)),
        lambda: mixed_class_stats(normal_rows(1, range(2), 3), model, mu),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="^mu_bar must be a finite number, got "):
            call()


# Designs for the reduction of normal rows: pairs and equal blocks of 4
# (block sums by halving), one block of 10^4 and equal blocks of 12 (by
# reduceat), unequal blocks with singletons, negative deltas and classes
# whose blocks are not adjacent, and the identity model.
MIXED_DESIGNS = [
    ([2] * 10, [0.4] * 10, 0.0),
    ([4] * 5, [-0.3] * 5, 0.0),
    ([10_000], [0.5e-4], 0.0),
    ([12] * 3, [0.2, -0.05, 0.2], 0.3),
    ([3, 1, 4, 3, 1, 2, 6], [-0.2, 0.0, 0.3, -0.2, 0.0, -0.5, 0.1], 0.7),
    ([6, 6], [0.0, 0.0], -1.25),
]


@pytest.mark.parametrize("sizes,deltas,mu", MIXED_DESIGNS)
def test_mixed_class_stats_are_class_stats_of_the_mixed_rows(sizes, deltas, mu):
    model = block_model(build_structure(sizes), deltas)
    n = model.structure.n
    X = sample_rows(model, mu, 31, range(7))
    a, q, t, x0 = mixed_class_stats(normal_rows(31, range(7), n), model, mu)
    want_a, want_q, want_t = class_stats(X, model)
    # A is O(sqrt n) and Q, T are O(n); the mixed rows round at O(1) each
    assert_allclose(a, want_a, rtol=1e-12, atol=1e-13 * n)
    assert_allclose(q, want_q, rtol=1e-12, atol=1e-13 * n)
    assert_allclose(t, want_t, rtol=1e-12, atol=1e-13 * n)
    assert_allclose(x0, X[:, 0], rtol=1e-13, atol=1e-14)
    # the singleton class has exactly no residual mass
    assert np.all(t[:, model.class_sizes == 1] == 0.0)


@pytest.mark.parametrize("sizes,deltas,mu", MIXED_DESIGNS)
def test_mixed_class_stats_of_a_row_do_not_depend_on_its_batch(sizes, deltas, mu):
    model = block_model(build_structure(sizes), deltas)
    g = normal_rows(5, range(6), model.structure.n)
    batch = mixed_class_stats(g.copy(), model, mu)
    for r in range(6):
        one = mixed_class_stats(g[r : r + 1].copy(), model, mu)
        for got, want in zip(one, batch):
            assert_array_equal(got[0], want[r])


class TestRawRows:
    """normal_rows re-keys one generator per call; rows must equal the
    normals of fresh streams, and those the transform of their raw words."""

    @staticmethod
    def assert_rows_match_streams(seed, ids, width):
        rows = normal_rows(seed, ids, width)
        assert rows.shape == (len(ids), width)
        assert rows.dtype == np.float64
        for r, rep in enumerate(ids):
            assert_array_equal(rows[r], derive_stream(seed, rep).normals(width))
            assert_array_equal(rows[r], normals_of_words(derive_stream(seed, rep).raw(width)))

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

    # Each was truncated: derive_stream(1.9, 0.5) gave the words of
    # derive_stream(1, 0), so two keys shared one stream.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: derive_stream(1.9, 0), "master seed"),
            (lambda: derive_stream(1, 0.5), "replication id"),
            (lambda: derive_stream(True, 0), "master seed"),
            (lambda: normal_rows(1.9, range(2), 3), "master seed"),
            (lambda: normal_rows(1, range(2), 3.0), "width"),
            (
                lambda: class_stat_rows(block_model(build_structure([2]), [0.1]), 1.9, range(2)),
                "master seed",
            ),
        ],
        ids=["stream-seed", "stream-id", "stream-bool-seed", "rows-seed", "rows-width", "class-seed"],
    )
    def test_non_integer_keys_and_widths_are_refused(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message} must be an integer"):
            call()

    def test_concurrent_calls_share_no_generator(self):
        ids = list(range(400))
        jobs = {seed: normal_rows(seed, ids, 5) for seed in (101, 202)}
        results, errors = {}, []

        def work(seed):
            try:
                for attempt in range(20):
                    results[(seed, attempt)] = normal_rows(seed, ids, 5)
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


class TestPhiloxPaths:
    """normal_rows against fresh streams, for every form of the ids callers
    pass and for widths that do and do not fill Philox's 4-word blocks."""

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

    @pytest.mark.parametrize("width", [1, 4, 5, 8, 96, 97, 100, 1001])
    @pytest.mark.parametrize("seed", [-(2**63), 0, 2**63, 2**64 - 1])
    def test_rows_equal_fresh_streams(self, seed, width):
        for ids in self.IDS.values():
            TestRawRows.assert_rows_match_streams(seed, ids, width)


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

    def test_rejects_an_asymmetric_sigma(self):
        # the Cholesky factor reads only the lower triangle, so unchecked this
        # sigma would draw exactly as [[1, 0.5], [0.5, 1]]
        with pytest.raises(InvalidInputError) as info:
            sample_dense(np.zeros(2), [[1.0, 5.0], [0.5, 1.0]], derive_stream(0, 0))
        assert str(info.value) == "sigma must be symmetric"

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            sample_dense(np.zeros(3), np.eye(2), derive_stream(0, 0))
        with pytest.raises(InvalidInputError) as info:
            sample_dense(np.zeros(2), np.ones((2, 3)), derive_stream(0, 0))
        assert str(info.value) == "sigma must be a square matrix"
        with pytest.raises(InvalidInputError):
            sample_dense(np.zeros(4096), np.eye(4096), derive_stream(0, 0))


class TestBlockStatRows:
    """The O(H) draw of the blocks' statistics by class
    (sampler.class_stat_rows): exact moments, the O(n) path in distribution,
    rows that do not depend on the range they are drawn in, the word layout
    and the law of the chi-squares."""

    DESIGNS = {
        "single": ([50], [0.3]),
        "pairs": ([2] * 20, [0.5] * 20),
        # classes that are not adjacent, a singleton class, one block size
        # under two deltas, a delta = 0 class of non-singletons, a negative
        # delta and classes of one block (no within-class mass)
        "mixed": ([3, 1, 2, 3, 2, 1, 3, 4], [0.3, 0.9, -0.2, 0.3, -0.2, 0.0, -0.1, 0.0]),
    }

    @staticmethod
    def model(name):
        sizes, deltas = TestBlockStatRows.DESIGNS[name]
        return block_model(build_structure(sizes), deltas)

    @staticmethod
    def class_words(seed, reps, h):
        """Centred words q of replications 0..reps-1 by the documented
        layout: replication r takes the first 5H + 1 words of the 4-word
        blocks [r b, (r + 1) b) of the stream keyed (seed, 2**64 - 1), with
        b = ceil((5H + 1) / 4)."""
        b = -(-(5 * h + 1) // 4)
        stream = derive_stream(seed, 2**64 - 1).raw(reps * 4 * b)
        x = (stream.reshape(reps, 4 * b)[:, : 5 * h + 1] >> np.uint64(11)) * 2.0**-53
        return _centered(x)

    @staticmethod
    def chi_square_words(words, h, j):
        """(z, u) words of chi-square j (Q_h for j < H, T_(j - H) after), one
        row per replication."""
        return [words[:, h + 2 * h * role + j] for role in range(2)]

    @staticmethod
    def retry_words(seed, r, j, k):
        """Centred words of round k of the retries of chi-square j of
        replication r: the first block Philox emits keyed like the class
        stream at counter (k, j, r, 1)."""
        key = np.array([seed & _MASK, _MASK], dtype=np.uint64)
        counter = np.array([k, j, r, 1], dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=counter).random_raw(4)
        return _centered((raw >> np.uint64(11)) * 2.0**-53)

    @staticmethod
    def attempt(nu, z_word, u_word):
        """One Marsaglia-Tsang attempt at Gamma(nu / 2), as documented, from
        centred words: (accepted, 2 d v).  The cube is two products, as in
        the sampler, so the bits agree."""
        d = nu / 2.0 - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        z = _inverse_normal(np.array(z_word, dtype=np.float64))
        u_word = _uniforms(np.array(u_word, dtype=np.float64))
        v = 1.0 + c * z
        v = v * v * v
        with np.errstate(invalid="ignore", divide="ignore"):
            accepted = (v > 0.0) & (np.log(u_word) < 0.5 * z * z + d - d * v + d * np.log(v))
        return accepted, 2.0 * d * v

    @staticmethod
    def laws(model):
        """Per class: mean and variance of A at mu_bar = 1, scale and dof of
        the chi-squares of Q and T."""
        k, m = model.class_sizes, model.class_counts
        top, base = model.top[model.class_first], model.base[model.class_first]
        return m * k, m * k * top, k * top, m - 1, base, m * (k - 1)

    def test_classes_are_numbered_by_first_appearance(self):
        model = self.model("mixed")
        # the singletons share a class: the delta given for one is ignored
        assert_array_equal(model.classes, [0, 1, 2, 0, 2, 1, 3, 4])
        assert_array_equal(model.class_first, [0, 1, 2, 6, 7])
        assert_array_equal(model.class_sizes, [3, 1, 2, 3, 4])
        assert_array_equal(model.class_counts, [2, 2, 2, 1, 1])
        assert_array_equal(self.model("pairs").classes, np.zeros(20, dtype=int))

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_exact_moments_within_six_se(self, name):
        model = self.model(name)
        mu = 0.7
        reps = 40_000
        mass, var_a, scale_q, dof_q, scale_t, dof_t = self.laws(model)
        a, q, t, u = class_stat_rows(model, 8080, range(reps))
        a = a + mass * mu
        assert a.shape == q.shape == t.shape == (reps, mass.size)
        assert np.all(np.abs(a.mean(axis=0) - mass * mu) < 6.0 * np.sqrt(var_a / reps))
        se_var = var_a * np.sqrt(2.0 / (reps - 1))
        assert np.all(np.abs(a.var(axis=0, ddof=1) - var_a) < 6.0 * se_var)
        for stat, scale, dof in ((q, scale_q, dof_q), (t, scale_t, dof_t)):
            live = dof > 0
            stat, scale, dof = stat[:, live], scale[live], dof[live]
            mean, var = scale * dof, 2.0 * scale**2 * dof
            assert np.all(np.abs(stat.mean(axis=0) - mean) < 6.0 * np.sqrt(var / reps))
            # a scaled chi-square has excess kurtosis 12/nu
            se_var = var * np.sqrt((2.0 + 12.0 / dof) / reps)
            assert np.all(np.abs(stat.var(axis=0, ddof=1) - var) < 6.0 * se_var)
        assert u.shape == (reps,)
        assert abs(u.mean() - 0.5) < 6.0 * np.sqrt(1.0 / 12.0 / reps)

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_matches_class_stats_of_mixed_draws_in_distribution(self, name):
        import scipy.stats

        model = self.model(name)
        reps = 20_000
        a, q, t, _ = class_stat_rows(model, 9090, range(reps))
        drawn = (a + self.laws(model)[0] * -0.4, q, t)
        reduced = class_stats(sample_rows(model, -0.4, 9091, range(reps)), model)
        for got, want in zip(drawn, reduced):
            assert got.shape == want.shape
            for h in range(got.shape[1]):
                assert scipy.stats.ks_2samp(got[:, h], want[:, h]).pvalue > 1e-6, h

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_rows_depend_only_on_their_own_stream(self, name):
        model = self.model(name)
        reps = 13
        batch = class_stat_rows(model, 4242, range(reps))
        for r in range(reps):
            one = class_stat_rows(model, 4242, range(r, r + 1))
            for got, want in zip(batch, one):
                assert_array_equal(got[r], want[0])
        for width in (1, 2, 4):
            parts = [
                class_stat_rows(model, 4242, range(lo, min(lo + width, reps)))
                for lo in range(0, reps, width)
            ]
            for k, got in enumerate(batch):
                assert_array_equal(got, np.concatenate([p[k] for p in parts]))
        with pytest.raises(InvalidInputError):
            class_stat_rows(model, 4242, range(0, reps, 2))

    def test_concurrent_draws_of_one_range_agree(self):
        model = self.model("mixed")
        want = class_stat_rows(model, 4343, range(3, 2000))
        results, errors = [], []

        def work():
            try:
                for _ in range(10):
                    results.append(class_stat_rows(model, 4343, range(3, 2000)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 20
        for got in results:
            for g, w in zip(got, want):
                assert_array_equal(g, w)

    def first_attempt_and_retries(self, seed, r, j, nu, z_word, u_word):
        """(branch, 2 d v) of one chi-square by the module docstring: its
        first attempt, then rounds k = 0, 1, ... of two attempts each."""
        accepted, value = self.attempt(nu, z_word, u_word)
        if accepted:
            return "first", value
        k = 0
        while True:
            q = self.retry_words(seed, r, j, k)
            for z_word, u_word in ((q[0], q[1]), (q[2], q[3])):
                accepted, value = self.attempt(nu, z_word, u_word)
                if accepted:
                    return "retry", value
            k += 1

    def test_words_follow_the_documented_layout(self):
        model = self.model("mixed")
        h = 5
        reps = 3000
        words = self.class_words(31, reps, h)
        mass, var_a, scale_q, dof_q, scale_t, dof_t = self.laws(model)
        a, q, t, u = class_stat_rows(model, 31, range(reps))
        assert_array_equal(a, np.sqrt(var_a) * _inverse_normal(words[:, :h].copy()))
        assert_array_equal(u, 1.0 - 2.0 * np.abs(words[:, 5 * h]))
        branches = {"first": 0, "retry": 0}
        for j, (got, scale, nu) in enumerate(
            [(q[:, i], scale_q[i], dof_q[i]) for i in range(h)]
            + [(t[:, i], scale_t[i], dof_t[i]) for i in range(h)]
        ):
            z_words, u_words = self.chi_square_words(words, h, j)
            if nu == 0:
                assert_array_equal(got, 0.0)
                continue
            z = _inverse_normal(z_words.copy())
            if nu == 1:
                assert_array_equal(got, scale * (z * z))
                continue
            accepted, value = self.attempt(nu, z_words, u_words)
            assert_array_equal(got[accepted], scale * value[accepted])
            branches["first"] += int(np.count_nonzero(accepted))
            # the rejected values one at a time, as the docstring states them
            for r in np.flatnonzero(~accepted):
                branch, chi2 = self.first_attempt_and_retries(31, r, j, nu, z_words[r], u_words[r])
                assert branch == "retry"
                assert got[r] == scale * chi2, (j, r)
                branches[branch] += 1
        # both branches of the draw were compared (dof 2 rejects ~4.8% of the time)
        assert min(branches.values()) > 0, branches

    @pytest.mark.parametrize("nu", [1, 2, 3, 19, 9999])
    def test_chi_squares_follow_their_law(self, nu):
        import scipy.stats

        delta = 0.25
        ids = range(40_000)
        law = scipy.stats.chi2(nu).cdf
        # one block of size nu + 1: T ~ (1 - delta) chi^2(nu)
        one = block_model(build_structure([nu + 1]), [delta])
        t = class_stat_rows(one, 77, ids)[2][:, 0]
        assert scipy.stats.kstest(t / (1.0 - delta), law).pvalue > 1e-6
        # nu + 1 pairs: Q ~ 2 (1 + delta) chi^2(nu)
        pairs = block_model(build_structure([2] * (nu + 1)), [delta] * (nu + 1))
        q = class_stat_rows(pairs, 77, ids)[1][:, 0]
        assert scipy.stats.kstest(q / (2.0 * (1.0 + delta)), law).pvalue > 1e-6

    @pytest.mark.parametrize("nu", [2, 3, 10])
    def test_rejected_values_follow_the_chi_square_law(self, nu):
        """The values whose first attempt rejects are made by the retries
        alone, which are independent of that attempt, so they follow
        chi^2(nu) themselves; and they are the same in any range."""
        import scipy.stats

        reps = 60_000
        # nu + 1 pairs: Q ~ 2 (1 + delta) chi^2(nu)
        model = block_model(build_structure([2] * (nu + 1)), [0.25] * (nu + 1))
        q = class_stat_rows(model, 79, range(reps))[1][:, 0] / 2.5
        z_words, u_words = self.chi_square_words(self.class_words(79, reps, 1), 1, 0)
        missed = np.flatnonzero(~self.attempt(nu, z_words, u_words)[0])
        # 4.8% of 60000 at nu = 2, 0.6% at nu = 10
        assert missed.size > 300
        assert scipy.stats.kstest(q[missed], scipy.stats.chi2(nu).cdf).pvalue > 1e-6
        for r in missed[:20]:
            for lo in (r, max(0, r - 7)):
                alone = class_stat_rows(model, 79, range(lo, r + 3))[1][r - lo, 0] / 2.5
                assert alone == q[r]

    def test_zero_dof_classes_give_zero_not_nan(self):
        ids = range(50)
        # one block: no within-class mass; singletons: no residual mass
        _, q, t, _ = class_stat_rows(self.model("single"), 5, ids)
        assert np.all(q == 0.0) and np.all(t > 0.0)
        singles = block_model(build_structure([1] * 30), [0.0] * 30)
        _, q, t, _ = class_stat_rows(singles, 5, ids)
        assert np.all(q > 0.0) and np.all(t == 0.0)
        _, q, t, _ = class_stat_rows(self.model("mixed"), 5, ids)
        assert not np.any(np.isnan(q)) and not np.any(np.isnan(t))
        assert_array_equal(q[:, 3:], 0.0)  # classes of one block
        assert_array_equal(t[:, 1], 0.0)  # the singleton class

    def test_rejects_unvalidated_models(self):
        with pytest.raises(ModelInvalidError):
            BlockEquicorrModel(structure=build_structure([3]), deltas=(1.5,), c_bound=None)
        with pytest.raises(ModelInvalidError):
            dataclasses.replace(self.model("single"), deltas=(1.5,))
