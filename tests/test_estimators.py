"""The four long-run-variance estimators.

Each O(n) implementation is checked against a brute-force double sum over
pairs, and the estimators' algebraic identities (singleton collapse, clique
graphs vs clusters) are asserted on random data.  Distributional behavior —
the sparse-graph case that works and the unbiasedness on a dense star design
— is checked by seeded Monte Carlo against closed-form targets.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lrvlab import (
    InvalidInputError,
    block_model,
    build_structure,
    generate_graph,
    lrv_cluster,
    lrv_graph,
    lrv_sample_variance,
    lrv_second_moment,
    make_graph,
)
from lrvlab.estimators import (
    cluster_rows,
    graph_rows,
    sample_variance_rows,
    second_moment_rows,
)
from lrvlab.sampler import sample_rows


def naive_cluster(x, sizes):
    """Sum of within-cluster cross products of deviations, by explicit loops."""
    d = x - x.mean()
    total = 0.0
    pos = 0
    for k in sizes:
        for i in range(pos, pos + k):
            for j in range(pos, pos + k):
                total += d[i] * d[j]
        pos += k
    return total / x.size


def naive_graph(x, n, edges):
    """Closed-neighborhood cross products of deviations, by explicit loops."""
    d = x - x.mean()
    total = float(np.sum(d * d))
    for i, j in edges:
        total += 2.0 * d[i] * d[j]
    return total / n


def test_point_examples():
    assert lrv_sample_variance([1.0, -1.0]).value == pytest.approx(1.0)
    assert lrv_sample_variance([3.0, 3.0, 3.0]).value == 0.0
    assert lrv_cluster([1.0, -1.0], build_structure([2])).value == 0.0
    assert lrv_second_moment([3.0]).value == pytest.approx(9.0)
    assert lrv_second_moment([0.0, 0.0]).value == 0.0


def test_estimate_metadata():
    est = lrv_sample_variance([1.0, -1.0])
    assert est.estimator_kind == "sample_variance"
    assert est.negative_flag is False
    est = lrv_second_moment([2.0])
    assert est.estimator_kind == "second_moment"


def test_input_validation():
    with pytest.raises(InvalidInputError):
        lrv_sample_variance([1.0])
    with pytest.raises(InvalidInputError):
        lrv_sample_variance(np.ones((2, 2)))
    with pytest.raises(InvalidInputError):
        lrv_cluster([1.0, 2.0, 3.0], build_structure([2]))
    with pytest.raises(InvalidInputError):
        lrv_graph([1.0, 2.0], make_graph(3, [(0, 1)]))


def test_cluster_estimator_matches_double_sum():
    rng = np.random.default_rng(2001)
    for _ in range(30):
        sizes = rng.integers(1, 6, size=rng.integers(1, 8)).tolist()
        cs = build_structure(sizes)
        x = rng.normal(size=cs.n)
        got = lrv_cluster(x, cs).value
        assert_allclose(got, naive_cluster(x, sizes), rtol=1e-12, atol=1e-14)


def test_graph_estimator_matches_double_sum():
    rng = np.random.default_rng(2002)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take = rng.random(len(possible)) < 0.3
        edges = [e for e, t in zip(possible, take) if t]
        g = make_graph(n, edges)
        x = rng.normal(size=n)
        got = lrv_graph(x, g).value
        assert_allclose(got, naive_graph(x, n, edges), rtol=1e-12, atol=1e-14)


def test_singleton_structure_collapses_to_sample_variance():
    rng = np.random.default_rng(2003)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        cs = build_structure([1] * n)
        assert lrv_cluster(x, cs).value == lrv_sample_variance(x).value


def test_empty_graph_collapses_to_sample_variance():
    rng = np.random.default_rng(2004)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        g = generate_graph("empty", n=n)
        assert_allclose(
            lrv_graph(x, g).value, lrv_sample_variance(x).value, rtol=1e-12, atol=0
        )


def test_clique_union_graph_equals_cluster_estimator():
    rng = np.random.default_rng(2005)
    for _ in range(15):
        sizes = rng.integers(1, 7, size=rng.integers(1, 7)).tolist()
        cs = build_structure(sizes)
        g = generate_graph("cluster", cs=cs)
        x = rng.normal(size=cs.n)
        assert_allclose(
            lrv_graph(x, g).value, lrv_cluster(x, cs).value, rtol=1e-12, atol=1e-14
        )


def test_location_invariance_of_centered_estimators():
    rng = np.random.default_rng(2006)
    cs = build_structure([3, 2, 4])
    g = generate_graph("star", n=9)
    for _ in range(10):
        x = rng.normal(size=9)
        shift = rng.normal() * 10.0
        assert_allclose(
            lrv_sample_variance(x + shift).value,
            lrv_sample_variance(x).value,
            rtol=0,
            atol=1e-10,
        )
        assert_allclose(
            lrv_cluster(x + shift, cs).value, lrv_cluster(x, cs).value, rtol=0, atol=1e-9
        )
        assert_allclose(
            lrv_graph(x + shift, g).value, lrv_graph(x, g).value, rtol=0, atol=1e-9
        )


def test_scale_equivariance():
    rng = np.random.default_rng(2007)
    cs = build_structure([2, 3])
    for _ in range(10):
        x = rng.normal(size=5)
        c = float(rng.uniform(0.1, 5.0))
        assert_allclose(
            lrv_sample_variance(c * x).value,
            c * c * lrv_sample_variance(x).value,
            rtol=1e-12,
        )
        assert_allclose(
            lrv_cluster(c * x, cs).value, c * c * lrv_cluster(x, cs).value, rtol=1e-12
        )
        assert_allclose(
            lrv_second_moment(c * x).value,
            c * c * lrv_second_moment(x).value,
            rtol=1e-12,
        )


def test_graph_estimate_can_go_negative_and_is_flagged():
    """A star with deviations (2, -1, -1): cross terms outweigh the squares."""
    g = generate_graph("star", n=3)
    est = lrv_graph([2.0, -1.0, -1.0], g)
    assert est.value == pytest.approx(-2.0 / 3.0)
    assert est.negative_flag is True
    # cluster estimator on a 3-cycle-free structure stays nonnegative
    assert lrv_cluster([2.0, -1.0, -1.0], build_structure([3])).value >= 0.0


def test_complete_graph_estimate_is_zero_up_to_rounding():
    """d'11'd = 0 for centred d, so on the complete graph the estimate is
    rounding noise, of either sign: negative_flag may be set."""
    x = np.random.default_rng(2).normal(size=1414)
    est = lrv_graph(x, generate_graph("complete", n=1414))
    assert abs(est.value) <= 1e-12 * lrv_sample_variance(x).value
    assert est.negative_flag is True  # here the noise is negative (-1.6e-16)


def test_cluster_estimator_is_always_nonnegative():
    # each term is the square of a cluster's deviation total
    rng = np.random.default_rng(2008)
    for _ in range(50):
        sizes = rng.integers(1, 6, size=rng.integers(1, 8)).tolist()
        cs = build_structure(sizes)
        x = rng.normal(size=cs.n) * float(rng.uniform(0.1, 10.0))
        assert lrv_cluster(x, cs).value >= 0.0


def test_row_kernels_match_scalar_operations():
    rng = np.random.default_rng(2009)
    cs = build_structure([2, 4, 1])
    g = make_graph(7, [(0, 1), (2, 5), (5, 6), (3, 4)])
    X = rng.normal(size=(6, 7))
    sv = sample_variance_rows(X)
    cl = cluster_rows(X, cs)
    gr = graph_rows(X, g)
    sm = second_moment_rows(X)
    for r in range(6):
        assert sv[r] == lrv_sample_variance(X[r]).value
        assert cl[r] == lrv_cluster(X[r], cs).value
        assert gr[r] == lrv_graph(X[r], g).value
        assert sm[r] == lrv_second_moment(X[r]).value


def _irregular_graph(n: int, seed: int):
    """About 3n random edges: uneven degrees and neighbors in no block order."""
    edges = np.random.default_rng(seed).integers(0, n, size=(3 * n, 2))
    return make_graph(n, edges[edges[:, 0] != edges[:, 1]].tolist())


@pytest.mark.parametrize("n", [100, 101, 2000, 10_000])
@pytest.mark.parametrize("kind", ["cluster", "cliques", "empty", "irregular"])
def test_graph_rows_do_not_depend_on_the_batch(n, kind):
    """Each row's estimate is the same bits alone as inside any batch, so
    reports do not depend on how replications are chunked."""
    if kind == "cluster":
        g = generate_graph("cluster", cs=[4] * (n // 4) + [n % 4] * (n % 4 > 0))
    elif kind == "cliques":  # cliques of 3 between isolated nodes
        g = generate_graph("cluster", cs=[3, 1] * (n // 4) + [1] * (n % 4))
    elif kind == "empty":
        g = generate_graph("empty", n=n)
    else:
        g = _irregular_graph(n, 2012 + n)
    X = np.random.default_rng(n).normal(loc=3.0, size=(7, n))
    batch = graph_rows(X, g)
    for r in range(7):
        assert graph_rows(X[r : r + 1], g)[0] == batch[r]
    assert_array_equal(np.concatenate((graph_rows(X[:3], g), graph_rows(X[3:], g))), batch)


def test_graph_rows_refuse_rows_of_another_width():
    g = make_graph(4, [(0, 1), (2, 3)])
    for width in (3, 5):
        with pytest.raises(InvalidInputError, match=f"length {width}, graph has n = 4"):
            graph_rows(np.ones((2, width)), g)


def _random_components(rng, n):
    """Components of random sizes on shuffled nodes: each is complete,
    complete but for one missing edge, or a random sparse graph (possibly
    disconnected, possibly with isolated nodes)."""
    nodes = rng.permutation(n)
    edges, pos = [], 0
    while pos < n:
        k = int(rng.integers(1, 7))
        comp = nodes[pos : pos + k].tolist()
        pos += k
        pairs = [(a, b) for i, a in enumerate(comp) for b in comp[i + 1 :]]
        shape = rng.integers(3)
        if shape == 1 and pairs:
            pairs.pop(int(rng.integers(len(pairs))))
        elif shape == 2:
            pairs = [e for e in pairs if rng.random() < 0.4]
        edges.extend(pairs)
    return make_graph(n, edges)


def _cluster_plus_edges(rng, n):
    """A cluster graph of random block sizes plus a few edges across blocks."""
    sizes, left = [], n
    while left:
        sizes.append(min(left, int(rng.integers(1, 8))))
        left -= sizes[-1]
    edges = set(map(tuple, generate_graph("cluster", cs=sizes).edges.tolist()))
    for _ in range(int(rng.integers(1, 4)) if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False).tolist()
        edges.add((min(i, j), max(i, j)))
    return make_graph(n, edges)


def _few_random_edges(rng, n):
    """About n/4 random edges, so that most nodes are isolated."""
    ends = rng.integers(0, n, size=(n // 4, 2))
    return make_graph(n, ends[ends[:, 0] != ends[:, 1]].tolist())


_ORACLE_GRAPHS = {
    "components": _random_components,
    "isolated": _few_random_edges,
    "cluster-plus-edges": _cluster_plus_edges,
    "star": lambda rng, n: generate_graph("star", n=n),
    "complete": lambda rng, n: generate_graph("complete", n=n),
    "empty": lambda rng, n: generate_graph("empty", n=n),
}


@pytest.mark.parametrize("family", list(_ORACLE_GRAPHS))
def test_graph_rows_match_the_dense_quadratic_form(family):
    """Over random graphs, (1/n) d'(I + A)d by a dense product, per row."""
    rng = np.random.default_rng(2013)
    for _ in range(35):
        n = int(rng.integers(1, 40))
        g = _ORACLE_GRAPHS[family](rng, n)
        A = np.zeros((n, n))
        for i, j in g.edges:
            A[i, j] = A[j, i] = 1.0
        X = rng.normal(loc=rng.normal(scale=5.0), size=(5, n))
        d = X - X.mean(axis=1, keepdims=True)
        want = np.einsum("ri,ij,rj->r", d, np.eye(n) + A, d) / n
        tol = 1e-13 * (d * d).sum(axis=1) / n
        assert np.all(np.abs(graph_rows(X, g) - want) <= tol), (family, n, sorted(g.edges))


def test_sample_variance_on_one_long_iid_draw():
    n = 100_000
    x = np.random.default_rng(2010).standard_normal(n)
    est = lrv_sample_variance(x).value
    assert abs(est - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_sparse_clique_graph_recovers_iid_variance():
    """Cliques of 4 on iid data: d_max stays 3, the estimate centers on 1."""
    sizes = [4] * 500  # n = 2000
    cs = build_structure(sizes)
    model = block_model(cs, [0.0] * 500)
    g = generate_graph("cluster", cs=cs)
    reps = 2000
    X = sample_rows(model, 0.0, 7171, range(reps))
    values = graph_rows(X, g)
    se = values.std(ddof=1) / np.sqrt(reps)
    assert abs(values.mean() - 1.0) < 4.0 * se


def test_star_design_with_small_covariance_mass():
    """A hub node correlated with everyone: d_max = n - 1 yet estimation works.

    The design keeps the total covariance mass sum_j |theta_j| bounded, so
    both the star-graph estimator and the known-mean second moment recover
    sigma_LR^2 = (1/n) 1' Sigma 1 despite the dense degree.
    """
    n = 1024
    signs = np.where(np.arange(n - 1) % 2 == 0, 1.0, -1.0)
    theta = 0.5 / np.sqrt(n - 1.0) * signs
    sigma = np.eye(n)
    sigma[0, 1:] = theta
    sigma[1:, 0] = theta
    truth = float(sigma.sum()) / n

    rng = np.random.default_rng(2011)
    lower = np.linalg.cholesky(sigma)
    reps = 400
    X = rng.standard_normal(size=(reps, n)) @ lower.T

    g = generate_graph("star", n=n)
    graph_vals = graph_rows(X, g)
    se = graph_vals.std(ddof=1) / np.sqrt(reps)
    assert abs(graph_vals.mean() - truth) < 4.0 * se

    sm_vals = second_moment_rows(X)
    se = sm_vals.std(ddof=1) / np.sqrt(reps)
    assert abs(sm_vals.mean() - 1.0) < 4.0 * se
