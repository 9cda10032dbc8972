"""Dependency graphs and their degree/clique statistics.

A dependency graph declares which pairs of observations may be dependent;
cliques generalize clusters (a cluster structure is exactly a disjoint union
of cliques).  The statistics reported here are the ones the estimation theory
is phrased in: maximum degree, average degree, clique number, and the
composite ratio d_max^2 * d_avg / n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .cluster_model import ClusterStructure, build_structure
from .errors import InvalidInputError, require_int

# Exact max-clique search is confined to graphs this small; beyond it a
# flagged greedy lower bound is returned instead.
EXACT_CLIQUE_CAP = 64

# Number of highest-degree seeds the greedy lower bound grows cliques from.
_GREEDY_SEEDS = 64


@dataclass(frozen=True)
class DependencyGraph:
    """An undirected graph on n nodes; edges are (i, j) pairs with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def _edge_array(self) -> np.ndarray:
        if not self.edges:
            return np.empty((0, 2), dtype=np.intp)
        return np.asarray(sorted(self.edges), dtype=np.intp)

    def edge_array(self) -> np.ndarray:
        """Edges as a deterministically ordered (E, 2) array."""
        return self._edge_array

    @cached_property
    def neighborhood_operator(self) -> scipy.sparse.csr_array:
        """Sparse A + I (adjacency plus identity), built once per graph:
        x @ it sums each node's closed neighborhood."""
        edges = self.edge_array()
        nodes = np.arange(self.n)
        rows = np.concatenate((edges[:, 0], edges[:, 1], nodes))
        cols = np.concatenate((edges[:, 1], edges[:, 0], nodes))
        vals = np.ones(rows.shape[0], dtype=np.float64)
        return scipy.sparse.csr_array((vals, (rows, cols)), shape=(self.n, self.n))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.intp)
        edges = self.edge_array()
        if edges.size:
            np.add.at(deg, edges[:, 0], 1)
            np.add.at(deg, edges[:, 1], 1)
        return deg


def make_graph(n: int, edges) -> DependencyGraph:
    """Validate and normalize an edge list into a DependencyGraph.

    Edges are deduplicated and stored with i < j; an n that is not an
    integer, edges that are not a list of integer pairs (a float or bool
    endpoint is refused), self-loops and out-of-range endpoints raise
    InvalidInputError.
    """
    n = _node_count(n)
    try:
        edges = iter(edges)
    except TypeError:
        raise InvalidInputError(f"graph edges must be a list of pairs, got {edges!r}") from None
    normalized = set()
    for e in edges:
        try:
            i, j = (require_int(v, "edge endpoint") for v in e)
        except (TypeError, ValueError):
            raise InvalidInputError(f"edge {e!r} is not a pair of integers") from None
        if i == j:
            raise InvalidInputError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"edge ({i}, {j}) out of range for n = {n}")
        normalized.add((min(i, j), max(i, j)))
    return DependencyGraph(n=n, edges=frozenset(normalized))


def _node_count(n) -> int:
    n = require_int(n, "graph n")
    if n < 1:
        raise InvalidInputError(f"graph needs at least one node, got n = {n}")
    return n


@dataclass(frozen=True)
class GraphStats:
    """Degree and clique statistics; sparsity_ratio = d_max^2 * d_avg / n."""

    d_max: int
    d_avg: float
    clique_number: int
    clique_exact: bool
    sparsity_ratio: float


def graph_stats(g: DependencyGraph) -> GraphStats:
    """Exact degrees always; exact clique number for n <= EXACT_CLIQUE_CAP,
    otherwise a greedy lower bound with clique_exact = False."""
    deg = g.degrees()
    d_max = int(deg.max()) if g.n else 0
    d_avg = float(deg.mean()) if g.n else 0.0
    masks = _adjacency_masks(g)
    if g.n <= EXACT_CLIQUE_CAP:
        clique, exact = _max_clique_exact(masks), True
    else:
        clique, exact = _greedy_clique_bound(masks, deg), False
    return GraphStats(
        d_max=d_max,
        d_avg=d_avg,
        clique_number=clique,
        clique_exact=exact,
        sparsity_ratio=d_max * d_max * d_avg / g.n,
    )


def _adjacency_masks(g: DependencyGraph) -> list[int]:
    masks = [0] * g.n
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _max_clique_exact(masks: list[int]) -> int:
    """Branch-and-bound max clique over bitmask adjacency.

    Candidates are consumed in ascending bit order; each branch keeps only
    candidates adjacent to the chosen vertex, and a popcount bound prunes."""
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            expand(cand & masks[v], size + 1)

    expand((1 << len(masks)) - 1, 0)
    return best


def _greedy_clique_bound(masks: list[int], deg: np.ndarray) -> int:
    """Grow a clique greedily from each of the highest-degree seeds."""
    n = len(masks)
    if n == 0:
        return 0
    order = np.argsort(deg, kind="stable")[::-1][:_GREEDY_SEEDS]
    best = 1
    for seed in order:
        size = 1
        cand = masks[int(seed)]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            size += 1
            cand &= masks[v]
        best = max(best, size)
    return best


def generate_graph(kind: str, **params) -> DependencyGraph:
    """Deterministic named graphs: star, cluster, empty, complete.

    star/empty/complete take n; cluster takes cs (a ClusterStructure or a
    list of sizes) and yields the disjoint union of complete blocks.
    """
    if kind == "star":
        n = _node_count(params.get("n"))
        return make_graph(n, ((0, i) for i in range(1, n)))
    if kind == "empty":
        return make_graph(_node_count(params.get("n")), ())
    if kind == "complete":
        n = _node_count(params.get("n"))
        return make_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "cluster":
        cs = params.get("cs")
        if cs is None:
            raise InvalidInputError("cluster graph requires cs=<structure or sizes>")
        if not isinstance(cs, ClusterStructure):
            cs = build_structure(cs)
        edges = []
        for start, k in zip(cs.starts, cs.sizes):
            for i in range(start, start + k):
                for j in range(i + 1, start + k):
                    edges.append((i, j))
        return make_graph(cs.n, edges)
    raise InvalidInputError(f"unknown graph kind {kind!r}")


def graph_to_dict(g: DependencyGraph) -> dict:
    """JSON-ready form: {"n": n, "edges": [[i, j], ...]} with 0-indexed nodes."""
    return {"n": g.n, "edges": [[int(i), int(j)] for i, j in g.edge_array()]}


def graph_from_dict(obj: dict) -> DependencyGraph:
    """Inverse of graph_to_dict, with full validation."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidInputError('graph JSON must have the form {"n": ..., "edges": [[i, j], ...]}')
    return make_graph(obj["n"], obj["edges"])
