"""Dependency graphs: construction, statistics, and serialization.

The branch-and-bound clique search is validated against networkx's
clique enumeration on random graphs; the greedy fallback for large graphs is
checked on constructions whose clique number is known by design.
"""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from lrvlab import (
    DependencyGraph,
    InvalidInputError,
    build_structure,
    generate_graph,
    graph_from_dict,
    graph_stats,
    graph_to_dict,
    lrv_graph,
    make_graph,
)
from lrvlab import graphs
from lrvlab.cluster_model import INDEX_MAX
from lrvlab.graphs import EXACT_CLIQUE_CAP


def test_make_graph_normalizes_edges():
    g = make_graph(4, [(1, 0), (0, 1), (2, 3)])
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert g.degrees().tolist() == [1, 1, 1, 1]


def test_make_graph_validation():
    with pytest.raises(InvalidInputError):
        make_graph(0, [])
    with pytest.raises(InvalidInputError):
        make_graph(3, [(1, 1)])
    with pytest.raises(InvalidInputError):
        make_graph(3, [(0, 3)])
    with pytest.raises(InvalidInputError):
        make_graph(3, [(-1, 0)])


@pytest.mark.parametrize(
    "edges, message",
    [
        (np.array([[1, 2], [3, 3]]), "^self-loop at node 3$"),
        (np.array([[0, 1], [4, 2]]), r"^edge \(4, 2\) out of range for n = 4$"),
        (np.array([[-1, 2]]), r"^edge \(-1, 2\) out of range for n = 4$"),
        (np.array([[0.0, 1.0]]), "^edges must be integer pairs, got float64 "),
        (np.array([[True, False]]), "^edges must be integer pairs, got bool "),
        (np.array([0, 1, 2]), "^edges must be integer pairs, got int64 "),
        ([(0, 1), (1, 2, 0)], "^edges must be integer pairs, got a ragged sequence$"),
    ],
    ids=["self-loop", "out-of-range", "negative", "float", "bool", "flat", "ragged"],
)
def test_graph_validates_itself_also_under_replace(edges, message):
    with pytest.raises(InvalidInputError, match=message):
        DependencyGraph(4, edges)
    with pytest.raises(InvalidInputError, match=message):
        dataclasses.replace(generate_graph("empty", n=4), edges=edges)


def test_graph_edges_are_one_sorted_read_only_array():
    assert [f.name for f in dataclasses.fields(DependencyGraph)] == ["n", "edges"]
    g = DependencyGraph(np.int64(4), np.array([[2, 1], [1, 2], [3, 0], [0, 3], [1, 2], [0, 1]]))
    want = make_graph(4, [(0, 1), (0, 3), (1, 2)])
    assert g.edges.tolist() == want.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert type(g.n) is int and g.edges.dtype == np.intp and not g.edges.flags.writeable
    assert g.degrees().tolist() == [2, 2, 1, 1]
    x = [1.0, 2.0, 3.0, 5.0]
    assert lrv_graph(x, g).value == lrv_graph(x, want).value
    with pytest.raises(InvalidInputError, match="out of range for n = 2"):
        dataclasses.replace(g, n=2)


def test_self_loop_graph_is_refused():
    # stored unchecked, the loop at node 0 read as an edge gave lrv_graph
    # 3.71875 for these data, where the true (empty) graph gives 2.1875
    x = [1.0, 2.0, 3.0, 5.0]
    assert lrv_graph(x, generate_graph("empty", n=4)).value == 2.1875
    with pytest.raises(InvalidInputError):
        DependencyGraph(4, frozenset({(0, 0)}))
    with pytest.raises(InvalidInputError, match="self-loop at node 0"):
        DependencyGraph(4, [(0, 0)])


def test_star_statistics():
    stats = graph_stats(generate_graph("star", n=5))
    assert stats.d_max == 4
    assert stats.d_avg == pytest.approx(1.6)
    assert stats.clique_number == 2
    assert stats.clique_exact is True
    assert stats.sparsity_ratio == pytest.approx(16 * 1.6 / 5)


def test_complete_graph_clique_number():
    for k in (1, 2, 3, 5, 9):
        stats = graph_stats(generate_graph("complete", n=k))
        assert stats.clique_number == k
        assert stats.d_max == k - 1


def test_disjoint_clique_statistics():
    g = generate_graph("cluster", cs=build_structure([3, 4]))
    stats = graph_stats(g)
    assert stats.clique_number == 4
    assert stats.d_max == 3
    assert stats.d_avg == pytest.approx((3 * 2 + 4 * 3) / 7)


def test_empty_graph_statistics():
    stats = graph_stats(generate_graph("empty", n=6))
    assert stats.d_max == 0
    assert stats.d_avg == 0.0
    assert stats.clique_number == 1
    assert stats.sparsity_ratio == 0.0


def test_clique_number_against_networkx():
    rng = np.random.default_rng(5001)
    for trial in range(30):
        n = int(rng.integers(2, 21))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = make_graph(n, edges)
        stats = graph_stats(g)
        assert stats.clique_exact is True

        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        want = max((len(c) for c in nx.find_cliques(ref)), default=1)
        assert stats.clique_number == want, (trial, n, p)


def test_exact_search_at_the_cap_boundary():
    # disjoint cliques of 8 fill exactly 64 nodes: still exact
    g = generate_graph("cluster", cs=build_structure([8] * 8))
    stats = graph_stats(g)
    assert stats.clique_exact is True
    assert stats.clique_number == 8


def test_large_graph_uses_flagged_greedy_bound():
    # one clique of 8 among cliques of 3: 8 * 3 + 76 * 3 > 64 nodes, and the
    # greedy growth from the highest-degree seeds finds the true clique here
    sizes = [8] + [3] * 31  # n = 101
    g = generate_graph("cluster", cs=build_structure(sizes))
    stats = graph_stats(g)
    assert g.n > EXACT_CLIQUE_CAP
    assert stats.clique_exact is False
    assert stats.clique_number == 8  # a lower bound that is tight by design
    assert stats.d_max == 7


def test_generate_graph_examples():
    assert generate_graph("star", n=1).edges.tolist() == []
    assert generate_graph("cluster", cs=[2, 2]).edges.tolist() == [[0, 1], [2, 3]]
    assert len(generate_graph("complete", n=4).edges) == 6
    with pytest.raises(InvalidInputError):
        generate_graph("lattice", n=4)
    with pytest.raises(InvalidInputError):
        generate_graph("star")
    with pytest.raises(InvalidInputError):
        generate_graph("cluster")
    for kind, params in [("lattice", {"n": 4}), ("star", {}), ("cluster", {}), ("empty", {"n": 0})]:
        with pytest.raises(InvalidInputError):
            generate_graph(kind, **params)


def test_generated_edges_match_loops():
    """The numpy generators against the pairs written out by loops."""
    rng = np.random.default_rng(1901)
    for _ in range(20):
        sizes = rng.integers(1, 9, size=int(rng.integers(1, 12))).tolist()
        want, start = [], 0
        for k in sizes:
            want += [[i, j] for i in range(start, start + k) for j in range(i + 1, start + k)]
            start += k
        assert generate_graph("cluster", cs=sizes).edges.tolist() == want
        n = int(rng.integers(1, 30))
        assert generate_graph("complete", n=n).edges.tolist() == [
            [i, j] for i in range(n) for j in range(i + 1, n)
        ]
        assert generate_graph("star", n=n).edges.tolist() == [[0, i] for i in range(1, n)]


@pytest.mark.parametrize("kind,params", [("cluster", {"cs": [10**4]}), ("complete", {"n": 10**4})])
def test_generated_graphs_over_the_edge_cap_are_refused(kind, params):
    # 49,995,000 edges: refused from the count, before any edge is built
    with pytest.raises(InvalidInputError, match="49995000 edges, above the cap"):
        generate_graph(kind, **params)


def test_edge_cap_boundary(monkeypatch):
    monkeypatch.setattr(graphs, "GENERATED_EDGE_CAP", 6)
    assert len(generate_graph("complete", n=4).edges) == 6
    assert len(generate_graph("cluster", cs=[3, 1, 3]).edges) == 6
    with pytest.raises(InvalidInputError):
        generate_graph("complete", n=5)
    with pytest.raises(InvalidInputError):
        generate_graph("cluster", cs=[3, 2, 3])


@pytest.mark.parametrize("n", [3.7, "4", True])
def test_generated_graph_node_count_is_checked(n):
    # a float or bool n is refused, not converted, as make_graph refuses it
    with pytest.raises(InvalidInputError):
        generate_graph("star", n=n)


@pytest.mark.parametrize("n", [INDEX_MAX + 1, 10**30])
def test_node_counts_beyond_the_index_range_are_refused(n):
    # np.bincount and np.arange could not take such an n
    message = f"^graph n must be at most {INDEX_MAX}, got n = {n}$"
    with pytest.raises(InvalidInputError, match=message):
        DependencyGraph(n, [])
    with pytest.raises(InvalidInputError, match=message):
        make_graph(n, [])
    with pytest.raises(InvalidInputError, match=message):
        graph_from_dict({"n": n, "edges": []})
    for kind in ("star", "empty", "complete"):
        with pytest.raises(InvalidInputError, match=message):
            generate_graph(kind, n=n)
    assert DependencyGraph(INDEX_MAX, []).n == INDEX_MAX


def test_serialization_round_trip():
    # graph_from_dict passes the edges through make_graph, so the round trip
    # also checks that each generated kind, built without make_graph, is the
    # graph make_graph makes of its edges
    rng = np.random.default_rng(5002)
    drawn = []
    for _ in range(10):
        n = int(rng.integers(1, 15))
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        drawn.append(make_graph(n, edges))
    generated = [
        generate_graph("star", n=7),
        generate_graph("empty", n=3),
        generate_graph("complete", n=6),
        generate_graph("cluster", cs=[3, 1, 4, 2]),
        generate_graph("cluster", cs=build_structure([2] * 5)),
    ]
    for g in drawn + generated:
        obj = graph_to_dict(g)
        assert sorted(obj) == ["edges", "n"]
        back = graph_from_dict(obj)
        assert back.n == g.n and back.edges.tolist() == g.edges.tolist()
        assert graph_to_dict(back) == obj


def test_graph_from_dict_validation():
    with pytest.raises(InvalidInputError):
        graph_from_dict({"n": 3})
    with pytest.raises(InvalidInputError):
        graph_from_dict({"n": 2, "edges": [[0, 2]]})
