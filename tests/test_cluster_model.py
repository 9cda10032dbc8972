"""Structures, block models, spectra, and the closed-form long-run variance.

Closed forms are checked against independently constructed dense matrices and
generic eigensolvers; nothing here reuses the package's own dense helpers as
an oracle for itself.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lrvlab import (
    BudgetExceededError,
    InvalidInputError,
    ModelInvalidError,
    StructureMismatchError,
    block_model,
    build_structure,
    deltas_for_common_variance,
    eigen_bounds,
    long_run_variance,
    max_cluster_share,
    permutation_average,
    spectral_block,
)
from lrvlab.cluster_model import class_stats, row_stats
from lrvlab.sampler import sample_rows


def dense_block(k, delta):
    """Independent construction of (1 - delta) I + delta 11'."""
    return (1.0 - delta) * np.eye(k) + delta * np.ones((k, k))


def dense_model_sigma(sizes, deltas):
    """Block-diagonal covariance assembled without the package's helpers."""
    n = sum(sizes)
    sigma = np.zeros((n, n))
    pos = 0
    for k, d in zip(sizes, deltas):
        sigma[pos : pos + k, pos : pos + k] = dense_block(k, d)
        pos += k
    return sigma


def random_valid_delta(rng, k, margin=0.05):
    """A delta keeping both eigenvalues of the block at least `margin`."""
    if k == 1:
        return 0.0
    lo = (margin - 1.0) / (k - 1)
    hi = 1.0 - margin
    return rng.uniform(lo, hi)


def charpoly_extremes(a):
    """Eigenvalue extremes via Faddeev-LeVerrier coefficients and np.roots.

    A deliberately different algorithm from any LAPACK eigensolver, used as
    the oracle for eigen_bounds on small matrices.
    """
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(mk) / k)
    roots = np.roots(coeffs)
    return float(roots.real.min()), float(roots.real.max())


def test_build_structure_summaries():
    cs = build_structure([3, 1, 2])
    assert cs.n == 6
    assert cs.M == 3
    assert cs.n_star == 5
    assert cs.sizes == (3, 1, 2)
    assert_allclose(cs.heterogeneity, 0.52, rtol=0, atol=1e-15)

    assert build_structure([8]).heterogeneity == 1.0

    iid = build_structure([1, 1, 1, 1])
    assert iid.n_star == 0
    assert iid.heterogeneity == 0.0


def test_build_structure_starts_and_arrays():
    cs = build_structure([3, 1, 2])
    assert cs.starts.tolist() == [0, 3, 4]
    assert cs.sizes_array.tolist() == [3, 1, 2]


@pytest.mark.parametrize("sizes", [[1.9, 2.1], [2.0], ["2"], 5, [True, 2]])
def test_build_structure_refuses_non_integer_sizes(sizes):
    with pytest.raises(InvalidInputError):
        build_structure(sizes)


def test_build_structure_rejects_bad_sizes():
    with pytest.raises(InvalidInputError):
        build_structure([])
    with pytest.raises(InvalidInputError):
        build_structure([3, 0])
    with pytest.raises(InvalidInputError):
        build_structure([2, -1, 2])


def test_max_cluster_share():
    assert max_cluster_share(build_structure([2, 2, 2, 2])) == 0.25
    assert max_cluster_share(build_structure([8])) == 1.0
    assert max_cluster_share(build_structure([50, 50])) == 0.5


def test_heterogeneity_range_and_zero_condition():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        sizes = rng.integers(1, 9, size=rng.integers(1, 12)).tolist()
        cs = build_structure(sizes)
        assert 0.0 <= cs.heterogeneity <= 1.0
        assert (cs.heterogeneity == 0.0) == (cs.n_star == 0)


def test_heterogeneity_strictly_decreases_when_a_cluster_splits():
    # Splitting one cluster of size 2k into two of size k keeps n_star fixed
    # and replaces (2k)^2 by 2 k^2 in the numerator.
    for k in range(1, 51):
        whole = build_structure([2 * k, 5, 5])
        split = build_structure([k, k, 5, 5])
        if k >= 2:
            assert split.heterogeneity < whole.heterogeneity
        else:
            # splitting into singletons removes mass from n_star instead
            assert split.n_star == whole.n_star - 2


def test_block_model_validation_and_normalization():
    cs = build_structure([2, 1])
    model = block_model(cs, [0.3, 0.9])
    assert model.deltas == (0.3, 0.0)  # singleton delta is ignored
    assert model.top.tolist() == [1.0 + 0.3, 1.0] and model.base.tolist() == [1.0 - 0.3, 1.0]

    with pytest.raises(ModelInvalidError):
        block_model(build_structure([3]), [-0.5])
    with pytest.raises(ModelInvalidError):
        block_model(build_structure([4]), [1.0])
    with pytest.raises(InvalidInputError):
        block_model(cs, [0.3])  # wrong length


def test_block_model_eigenvalue_budget():
    cs = build_structure([4])
    with pytest.raises(BudgetExceededError) as info:
        block_model(cs, [0.4], c_bound=1.0)
    assert "cluster 0" in str(info.value)
    # the same delta passes once the budget covers (k-1) * delta = 1.2
    model = block_model(cs, [0.4], c_bound=1.25)
    assert model.c_bound == 1.25
    with pytest.raises(InvalidInputError):
        block_model(cs, [0.1], c_bound=-0.5)
    with pytest.raises(InvalidInputError):
        block_model(build_structure([3]), [0.2], c_bound=float("nan"))
    # clusters are checked in order: cluster 0's budget fails before
    # cluster 1's positive definiteness is looked at
    with pytest.raises(BudgetExceededError):
        block_model(build_structure([4, 3]), [0.4, 1.5], c_bound=1.0)


def first_invalid_cluster(sizes, deltas, c_bound):
    """(error type, cluster) that a per-cluster loop finds first, or None."""
    for m, (k, d) in enumerate(zip(sizes, deltas)):
        if k == 1:
            continue
        if not (1.0 - d > 0.0 and 1.0 + (k - 1) * d > 0.0):
            return ModelInvalidError, m
        if c_bound is not None and (abs(d) > c_bound or abs((k - 1) * d) > c_bound):
            return BudgetExceededError, m
    return None


def test_block_model_validation_matches_a_per_cluster_loop():
    rng = np.random.default_rng(1005)
    for _ in range(500):
        sizes = rng.integers(1, 6, size=rng.integers(1, 6)).tolist()
        deltas = rng.uniform(-1.2, 1.2, size=len(sizes)).tolist()
        c_bound = None if rng.random() < 0.3 else float(rng.uniform(0.0, 3.0))
        want = first_invalid_cluster(sizes, deltas, c_bound)
        if want is None:
            block_model(build_structure(sizes), deltas, c_bound=c_bound)
            continue
        with pytest.raises(want[0]) as info:
            block_model(build_structure(sizes), deltas, c_bound=c_bound)
        assert str(info.value).startswith(f"cluster {want[1]} ")


def test_spectral_block_closed_form():
    spec = spectral_block(5, 0.1)
    assert spec.top_eigenvalue == pytest.approx(1.4)
    assert spec.base_eigenvalue == pytest.approx(0.9)
    assert spec.top_multiplicity == 1
    assert spec.base_multiplicity == 4
    assert spec.log_det() == pytest.approx(np.log(1.4 * 0.9**4))
    # the det of this block, 99900.001 * 0.001**99999, underflows to 0.0
    big = spectral_block(100000, 0.999)
    assert big.log_det() == pytest.approx(np.log(99900.001) + 99999 * np.log(0.001), rel=1e-12)

    one = spectral_block(1, 0.7)  # 1x1 block ignores delta
    assert one.eigenvalues().tolist() == [1.0]

    with pytest.raises(ModelInvalidError):
        spectral_block(3, -0.5)
    with pytest.raises(InvalidInputError):
        spectral_block(0, 0.1)
    with pytest.raises(InvalidInputError):
        spectral_block(2.7, 0.1)
    with pytest.raises(InvalidInputError):
        spectral_block(True, 0.5)


def test_spectral_block_matches_dense_eigensolver():
    rng = np.random.default_rng(1002)
    for _ in range(50):
        k = int(rng.integers(1, 13))
        d = random_valid_delta(rng, k)
        spec = spectral_block(k, d)
        want = np.linalg.eigvalsh(dense_block(k, d))
        assert_allclose(np.sort(spec.eigenvalues()), want, rtol=0, atol=1e-10)


def test_spectral_block_basis_diagonalizes():
    rng = np.random.default_rng(1003)
    for _ in range(25):
        k = int(rng.integers(2, 10))
        d = random_valid_delta(rng, k)
        spec = spectral_block(k, d)
        b = spec.basis()
        assert_allclose(b.T @ b, np.eye(k), rtol=0, atol=1e-12)
        assert_allclose(b[:, 0], np.full(k, 1.0 / np.sqrt(k)), rtol=0, atol=1e-12)
        lam = np.concatenate(([spec.top_eigenvalue], np.full(k - 1, spec.base_eigenvalue)))
        assert_allclose(b @ np.diag(lam) @ b.T, dense_block(k, d), rtol=0, atol=1e-12)


def test_long_run_variance_closed_form():
    assert long_run_variance(block_model(build_structure([4]), [0.1])) == pytest.approx(1.3)
    model = block_model(build_structure([2, 2]), [0.5, -0.5])
    assert long_run_variance(model) == pytest.approx(1.0)


def test_long_run_variance_adds_clusters_in_order():
    # report bytes depend on the summation order: the value must equal the
    # sequential sum over clusters exactly, not just to rounding
    rng = np.random.default_rng(1006)
    sizes = rng.integers(1, 9, size=300).tolist()
    deltas = [random_valid_delta(rng, k) for k in sizes]
    total = 0.0
    for k, d in zip(sizes, deltas):
        total += k * (1.0 + (k - 1) * d)
    assert long_run_variance(block_model(build_structure(sizes), deltas)) == total / sum(sizes)


def test_long_run_variance_matches_dense_quadratic_form():
    rng = np.random.default_rng(1004)
    for _ in range(30):
        sizes = rng.integers(1, 9, size=rng.integers(1, 10)).tolist()
        deltas = [random_valid_delta(rng, k) for k in sizes]
        model = block_model(build_structure(sizes), deltas)
        sigma = dense_model_sigma(sizes, deltas)
        n = sigma.shape[0]
        ones = np.ones(n)
        assert_allclose(
            long_run_variance(model), ones @ sigma @ ones / n, rtol=1e-12, atol=0
        )
    # one larger structure, still comfortably inside the dense cap
    sizes = [7] * 70 + [1] * 22  # n = 512
    deltas = [0.12] * 70 + [0.0] * 22
    model = block_model(build_structure(sizes), deltas)
    sigma = dense_model_sigma(sizes, deltas)
    ones = np.ones(512)
    assert_allclose(long_run_variance(model), ones @ sigma @ ones / 512, rtol=1e-12)


def test_permutation_average_of_a_single_block():
    # off-diagonal entries {0.3, 0.1, 0.2} average to 0.2
    delta = np.array(
        [
            [0.0, 0.3, 0.1],
            [0.3, 0.0, 0.2],
            [0.1, 0.2, 0.0],
        ]
    )
    cs = build_structure([3])
    assert_allclose(permutation_average(delta, cs), [0.2], rtol=0, atol=1e-15)


def test_permutation_average_properties():
    rng = np.random.default_rng(1005)
    for _ in range(25):
        sizes = rng.integers(1, 7, size=rng.integers(1, 6)).tolist()
        cs = build_structure(sizes)
        delta = np.zeros((cs.n, cs.n))
        for start, k in zip(cs.starts, cs.sizes):
            block = rng.uniform(-0.2, 0.2, size=(k, k))
            block = (block + block.T) / 2.0
            np.fill_diagonal(block, 0.0)
            delta[start : start + k, start : start + k] = block
        out = permutation_average(delta, cs)
        assert len(out) == cs.M
        # total off-diagonal mass is preserved block by block
        for start, k, d in zip(cs.starts, cs.sizes, out):
            block = delta[start : start + k, start : start + k]
            assert_allclose(d * k * (k - 1), block.sum(), rtol=0, atol=1e-12)
        # averaging an already-equicorrelated matrix is the identity
        again = np.zeros_like(delta)
        for start, k, d in zip(cs.starts, cs.sizes, out):
            block = np.full((k, k), d)
            np.fill_diagonal(block, 0.0)
            again[start : start + k, start : start + k] = block
        assert_allclose(permutation_average(again, cs), out, rtol=0, atol=1e-14)

    assert permutation_average(np.zeros((4, 4)), build_structure([2, 2])) == [0.0, 0.0]


def test_permutation_average_rejects_structure_violations():
    cs = build_structure([2, 2])
    leak = np.zeros((4, 4))
    leak[0, 3] = leak[3, 0] = 0.1
    with pytest.raises(StructureMismatchError):
        permutation_average(leak, cs)

    asym = np.zeros((4, 4))
    asym[0, 1] = 0.1
    with pytest.raises(InvalidInputError):
        permutation_average(asym, cs)

    diag = np.eye(4)
    with pytest.raises(InvalidInputError):
        permutation_average(diag, cs)

    with pytest.raises(InvalidInputError):
        permutation_average(np.zeros((3, 3)), cs)


def test_eigen_bounds_on_a_rank_one_perturbation():
    # delta (11' - I) for k = 3, delta = 0.2 has spectrum {0.4, -0.2, -0.2}
    k, d = 3, 0.2
    mat = d * (np.ones((k, k)) - np.eye(k))
    lo, hi = eigen_bounds(mat)
    assert_allclose([lo, hi], [-0.2, 0.4], rtol=0, atol=1e-12)
    assert eigen_bounds(np.zeros((4, 4))) == (0.0, 0.0)


def test_eigen_bounds_against_characteristic_polynomial():
    rng = np.random.default_rng(1006)
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, size=(8, 8))
        a = (a + a.T) / 2.0
        lo, hi = eigen_bounds(a)
        want_lo, want_hi = charpoly_extremes(a)
        assert_allclose([lo, hi], [want_lo, want_hi], rtol=0, atol=1e-9)


def test_eigen_bounds_input_validation():
    with pytest.raises(InvalidInputError):
        eigen_bounds(np.ones((2, 3)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        eigen_bounds(skew)
    with pytest.raises(InvalidInputError):
        eigen_bounds(np.zeros((4096, 4096)))


def test_deltas_for_common_variance_closed_form():
    cs = build_structure([3, 5])
    assert_allclose(deltas_for_common_variance(cs, 1.8), [0.4, 0.2], rtol=0, atol=1e-15)
    assert deltas_for_common_variance(cs, 1.0) == [0.0, 0.0]

    # sigma_sq must stay below the smallest cluster size
    with pytest.raises(ModelInvalidError):
        deltas_for_common_variance(build_structure([2, 4]), 3.5)
    with pytest.raises(InvalidInputError):
        deltas_for_common_variance(cs, 0.0)
    with pytest.raises(InvalidInputError):
        deltas_for_common_variance(build_structure([3, 1]), 1.5)


def test_deltas_for_common_variance_feasibility_boundary():
    cs = build_structure([2, 4])
    for sigma_sq in (0.25, 1.0, 1.5, 1.99):
        deltas = deltas_for_common_variance(cs, sigma_sq)
        for k, d in zip(cs.sizes, deltas):
            assert 1.0 + (k - 1) * d == pytest.approx(sigma_sq)
    with pytest.raises(ModelInvalidError):
        deltas_for_common_variance(cs, 2.0)


def test_common_variance_deltas_equalize_simulated_cluster_sums():
    """Every normalized cluster sum should have variance sigma_sq, by simulation."""
    cs = build_structure([2, 4])
    sigma_sq = 1.5
    model = block_model(cs, deltas_for_common_variance(cs, sigma_sq))
    reps = 400_000
    x = sample_rows(model, 0.0, 777, range(reps))
    for start, k in zip(cs.starts, cs.sizes):
        xi = x[:, start : start + k].sum(axis=1) / np.sqrt(k)
        var = xi.var()
        se = sigma_sq * np.sqrt(2.0 / reps)
        assert abs(var - sigma_sq) < 3.0 * se


def test_class_stats_against_per_block_loops():
    """A, Q and T equal plain loops over the blocks of each class."""
    rng = np.random.default_rng(3301)
    cs = build_structure([3, 1, 4, 3, 1, 2, 4])
    model = block_model(cs, [0.2, 0.0, -0.1, 0.2, 0.0, 0.3, 0.4])
    x = rng.normal(size=(6, cs.n)) * 3.0 + 2.0
    a, q, t = class_stats(x, model)
    want_a, want_q, want_t = np.zeros((3, 6, model.class_counts.size))
    blocks = [(h, x[:, s : s + k]) for h, s, k in zip(model.classes, cs.starts, cs.sizes)]
    for h, block in blocks:
        want_a[:, h] += block.sum(axis=1)
        want_t[:, h] += ((block - block.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    for h, block in blocks:
        want_q[:, h] += (block.sum(axis=1) - want_a[:, h] / model.class_counts[h]) ** 2
    assert_allclose(a, want_a, rtol=1e-13)
    assert_allclose(q, want_q, rtol=1e-12)
    assert_allclose(t, want_t, rtol=1e-12)
    # all singletons: one class, with no residual mass
    ones = block_model(build_structure([1] * cs.n), [0.0] * cs.n)
    a, q, t = class_stats(x, ones)
    assert_allclose(a[:, 0], x.sum(axis=1), rtol=1e-13)
    assert_allclose(q[:, 0], ((x - x.mean(axis=1, keepdims=True)) ** 2).sum(axis=1), rtol=1e-12)
    assert np.all(t == 0.0)


def test_class_stats_masses_survive_a_large_mean():
    # the one-pass forms S2 - S1^2/k and sum S1^2 - A^2/M lose every digit
    # of these masses at this mean
    x = 1e9 + np.array([[0.0, 1.0, 2.0, 0.0, 0.0, 0.0]])
    _, q, t = class_stats(x, block_model(build_structure([3, 3]), [0.1, 0.1]))
    assert t[0, 0] == 2.0
    assert q[0, 0] == 4.5  # block sums 3e9 + 3 and 3e9 about their mean


def test_row_stats_shares_one_singleton_model_per_n():
    X = np.random.default_rng(2013).normal(size=(3, 50))
    *stats, model = row_stats(X)
    assert row_stats(X[:1])[3] is model
    assert row_stats(X[:, :40])[3].structure.n == 40
    fresh = block_model(build_structure([1] * 50), [0.0] * 50)
    for got, want in zip(stats, class_stats(X, fresh)):
        assert_array_equal(got, want)
