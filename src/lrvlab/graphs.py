"""Dependency graphs and their degree/clique statistics.

A dependency graph declares which pairs of observations may be dependent;
cliques generalize clusters (a cluster structure is exactly a disjoint union
of cliques).  The statistics reported here are the ones the estimation theory
is phrased in: maximum degree, average degree, clique number, and the
composite ratio d_max^2 * d_avg / n.

A graph keeps its edges once, as a sorted (E, 2) array; the graph estimator
(estimators.graph_rows) evaluates the quadratic form d'(I + A)d as one
product per edge, in O(n + E) and without a sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster_model import INDEX_MAX, ClusterStructure
from .errors import InvalidInputError, require_int

# Exact max-clique search is confined to graphs this small; beyond it a
# flagged greedy lower bound is returned instead.
EXACT_CLIQUE_CAP = 64

# generate_graph refuses a graph with more edges than this before building
# any: it bounds the memory of its edge array (16 bytes an edge).  Graph cells
# build no edges (estimators.graph_stat_rows), so the cap does not bound them.
GENERATED_EDGE_CAP = 10**6

# Number of highest-degree seeds the greedy lower bound grows cliques from.
_GREEDY_SEEDS = 64


@dataclass(frozen=True, eq=False)
class DependencyGraph:
    """An undirected graph on n nodes, validated on construction.

    edges may be given as any (E, 2) array of integer pairs; it is stored as
    a read-only (E, 2) intp array of the distinct pairs (i, j) with i < j in
    lexicographic order, so reversed and repeated pairs are one edge.  An n
    that is not an integer in [1, INDEX_MAX], an edge array of another shape
    or of a non-integer dtype (floats and bools are refused, not converted),
    a ragged sequence, a self-loop and an out-of-range endpoint raise
    InvalidInputError; dataclasses.replace re-validates.  Graphs compare by
    identity.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = _node_count(self.n)
        try:
            edges = np.asarray(self.edges)
        except ValueError:  # a ragged sequence has no array shape
            raise InvalidInputError("edges must be integer pairs, got a ragged sequence") from None
        if not edges.size:
            edges = np.empty((0, 2), dtype=np.intp)
        if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
            raise InvalidInputError(f"edges must be integer pairs, got {edges.dtype} {edges.shape}")
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        for e in edges[(lo < 0) | (hi >= n)][:1]:
            raise InvalidInputError(f"edge ({e[0]}, {e[1]}) out of range for n = {n}")
        for node in lo[lo == hi][:1]:
            raise InvalidInputError(f"self-loop at node {node}")
        # Sort the pairs (i, j), i < j, and keep the first of each run of equals.
        edges = np.column_stack((lo, hi)).astype(np.intp)[np.lexsort((hi, lo))]
        edges = edges[np.diff(edges, axis=0, prepend=-1).any(axis=1)]
        edges.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def make_graph(n: int, edges) -> DependencyGraph:
    """A DependencyGraph from outside input: n and a list of integer pairs.

    Each endpoint must be an integer (a float, bool or null is refused, not
    converted) and each edge a pair, else InvalidInputError; the graph's
    constructor checks and normalizes the rest.
    """
    try:
        pairs = [_endpoints(e) for e in edges]
    except TypeError:
        raise InvalidInputError(f"graph edges must be a list of pairs, got {edges!r}") from None
    try:
        pairs = np.array(pairs, dtype=np.intp)
    except OverflowError:
        raise InvalidInputError(f"an edge endpoint is out of range for n = {n!r}") from None
    return DependencyGraph(n, pairs)


def _endpoints(e) -> tuple[int, int]:
    try:
        i, j = (require_int(v, "edge endpoint") for v in e)
    except (TypeError, ValueError):
        raise InvalidInputError(f"edge {e!r} is not a pair of integers") from None
    return i, j


def _node_count(n) -> int:
    n = require_int(n, "graph n")
    if n < 1:
        raise InvalidInputError(f"graph needs at least one node, got n = {n}")
    if n > INDEX_MAX:
        raise InvalidInputError(f"graph n must be at most {INDEX_MAX}, got n = {n}")
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
    d_max, d_avg = int(deg.max()), float(deg.mean())
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
    for i, j in g.edges.tolist():
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
    list of sizes) and yields the disjoint union of complete blocks, and a
    complete graph is the cluster graph of one block.  A complete or cluster
    graph of more than GENERATED_EDGE_CAP edges raises InvalidInputError
    before any edge is built.  The edges are built as arrays and go through
    the graph's constructor, without make_graph's check of each endpoint.
    """
    if kind in ("star", "empty"):
        n = _node_count(params.get("n"))
        if kind == "empty":
            return DependencyGraph(n, [])
        return DependencyGraph(n, np.column_stack((np.zeros(n - 1, np.intp), np.arange(1, n))))
    if kind == "complete":
        cs = [_node_count(params.get("n"))]
    elif kind == "cluster":
        cs = params.get("cs")
        if cs is None:
            raise InvalidInputError("cluster graph requires cs=<structure or sizes>")
    else:
        raise InvalidInputError(f"unknown graph kind {kind!r}")
    if not isinstance(cs, ClusterStructure):
        cs = ClusterStructure(cs)
    count = sum(k * (k - 1) // 2 for k in cs.sizes)
    if count > GENERATED_EDGE_CAP:
        raise InvalidInputError(
            f"{kind} graph would have {count} edges, above the cap of {GENERATED_EDGE_CAP}"
        )
    # The pairs of each block size once, offset by the starts of its blocks.
    sizes, starts = cs.sizes_array, cs.starts
    blocks = [
        (starts[sizes == k, None, None] + np.column_stack(np.triu_indices(k, 1))).reshape(-1, 2)
        for k in np.unique(sizes)
    ]
    return DependencyGraph(cs.n, np.concatenate(blocks))


def graph_to_dict(g: DependencyGraph) -> dict:
    """JSON-ready form: {"n": n, "edges": [[i, j], ...]} with 0-indexed nodes."""
    return {"n": g.n, "edges": g.edges.tolist()}


def graph_from_dict(obj: dict) -> DependencyGraph:
    """Inverse of graph_to_dict, with full validation."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InvalidInputError('graph JSON must have the form {"n": ..., "edges": [[i, j], ...]}')
    return make_graph(obj["n"], obj["edges"])
