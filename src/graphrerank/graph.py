"""Per-query image graphs built from rank tables.

Two constructions are provided:

- the improved directed graph: an edge i -> i' whenever i' is in the top-k
  list of i, weighted by the reciprocal of the two mutual list positions;
- the undirected baseline: an edge only for mutual top-k pairs, weighted by
  neighborhood Jaccard consistency.

Both discount edges by alpha0 ** (larger hop distance of the endpoints from
the query). Hop distances are computed on the unweighted adjacency before
weights are assigned; an unreachable endpoint gives decay 0 and the edge is
dropped.

Neighborhood sets used by the Jaccard weight include the owner image itself
(the image is rank 1 of its own retrieval), i.e. {i} plus the top k-1
entries of its stored list. List positions used by `rank_of` and the
reciprocal test are 1-based over the stored owner-excluded lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphParams",
    "ImageGraph",
    "neighbors",
    "reciprocal",
    "rank_of",
    "jaccard_weight",
    "rank_weight",
    "bfs_depths",
    "decay",
    "build_directed_graph",
    "build_undirected_graph",
    "graph_to_text",
]


@dataclass(frozen=True)
class GraphParams:
    k: int
    alpha0: float = 0.8
    depth: int = 2
    max_nodes: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError("alpha0 must lie in (0, 1]")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1 when given")


@dataclass(frozen=True)
class ImageGraph:
    """Weighted per-query graph; edge keys are (src, dst) pairs.

    Undirected graphs store each edge once under the (min, max) orientation.
    Zero-weight edges are never stored.
    """

    query: int
    nodes: frozenset
    edges: dict
    directed: bool

    def __post_init__(self):
        if self.query not in self.nodes:
            raise ValueError("graph must contain its query node")
        for (src, dst), w in self.edges.items():
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src}, {dst}) endpoint outside node set")
            if w <= 0:
                raise ValueError(f"edge ({src}, {dst}) has non-positive weight {w}")
            if not self.directed and src > dst:
                raise ValueError("undirected edges must use (min, max) orientation")


def neighbors(table, i, k):
    """First k entries of i's rank list, order preserved."""
    if not 1 <= k <= table.n - 1:
        raise ValueError(f"k={k} out of range [1, {table.n - 1}]")
    return tuple(int(x) for x in table.lists[i, :k])


def rank_of(table, i, i2):
    """1-based position of i2 in i's full rank list."""
    if i == i2:
        raise ValueError("rank of an image within its own list is undefined")
    return int(table.positions[i, i2])


def reciprocal(table, i, i2, k):
    """Mutual top-k membership."""
    if i == i2:
        raise ValueError("reciprocity of an image with itself is undefined")
    pos = table.positions
    return bool(pos[i, i2] <= k and pos[i2, i] <= k)


def _inclusive_neighborhood(table, i, k):
    """Size-k retrieval neighborhood counting the image itself as rank 1."""
    return frozenset((int(i),) + tuple(int(x) for x in table.lists[i, : k - 1]))


def jaccard_weight(table, i, i2, k, decay_coeff):
    """Neighborhood-consistency weight for the undirected baseline."""
    if not 0.0 <= decay_coeff <= 1.0:
        raise ValueError("decay must lie in [0, 1]")
    if not reciprocal(table, i, i2, k):
        return 0.0
    a = _inclusive_neighborhood(table, i, k)
    b = _inclusive_neighborhood(table, i2, k)
    return decay_coeff * len(a & b) / len(a | b)


def rank_weight(table, i, i2, k, decay_coeff):
    """Reciprocal-rank weight for the directed graph; 0 unless i2 is in i's top-k."""
    if not 0.0 <= decay_coeff <= 1.0:
        raise ValueError("decay must lie in [0, 1]")
    if i == i2:
        raise ValueError("no self edges")
    pos = table.positions
    if pos[i, i2] > k:
        return 0.0
    return decay_coeff / float(pos[i, i2] + pos[i2, i])


def bfs_depths(adjacency, query):
    """Unweighted shortest hop counts from the query; unreachable nodes absent."""
    if query not in adjacency:
        raise ValueError("query missing from adjacency")
    depths = {query: 0}
    queue = deque([query])
    while queue:
        i = queue.popleft()
        for j in adjacency.get(i, ()):
            j = int(j)
            if j not in depths:
                depths[j] = depths[i] + 1
                queue.append(j)
    return depths


def decay(alpha0, depth_i, depth_i2):
    """alpha0 ** max(depths); 0 when either endpoint is unreachable (depth None)."""
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError("alpha0 must lie in (0, 1]")
    if depth_i is None or depth_i2 is None:
        return 0.0
    return alpha0 ** max(depth_i, depth_i2)


def _bounded_bfs(neighbor_fn, query, depth, max_nodes):
    """Discovery BFS: depths of nodes within `depth` hops, capped in BFS order."""
    depths = {query: 0}
    queue = deque([query])
    while queue:
        i = queue.popleft()
        if depths[i] >= depth:
            continue
        for j in neighbor_fn(i):
            j = int(j)
            if j in depths:
                continue
            if max_nodes is not None and len(depths) >= max_nodes:
                return depths
            depths[j] = depths[i] + 1
            queue.append(j)
    return depths


def build_directed_graph(table, query, params):
    """Directed graph over the query's BFS neighborhood in the top-k digraph."""
    if not 0 <= query < table.n:
        raise ValueError(f"query {query} out of range")
    k = min(params.k, table.n - 1)
    lists = table.lists
    pos = table.positions

    depths = _bounded_bfs(lambda i: lists[i, :k], query, params.depth, params.max_nodes)
    edges = {}
    for i, di in depths.items():
        for j in lists[i, :k]:
            j = int(j)
            dj = depths.get(j)
            if dj is None:
                continue
            w = decay(params.alpha0, di, dj) / float(pos[i, j] + pos[j, i])
            if w > 0:
                edges[(i, j)] = w
    return ImageGraph(query, frozenset(depths), edges, directed=True)


def build_undirected_graph(table, query, params):
    """Reciprocal-neighbor baseline graph with Jaccard consistency weights."""
    if not 0 <= query < table.n:
        raise ValueError(f"query {query} out of range")
    k = min(params.k, table.n - 1)
    lists = table.lists
    pos = table.positions

    def recip_nbrs(i):
        return [int(j) for j in lists[i, :k] if pos[j, i] <= k]

    depths = _bounded_bfs(recip_nbrs, query, params.depth, params.max_nodes)
    sub = sorted(depths)
    n = table.n
    # inclusive top-k membership rows for fast pairwise intersection counts
    member = np.zeros((len(sub), n), dtype=np.int32)
    for a, i in enumerate(sub):
        member[a, lists[i, : k - 1]] = 1
        member[a, i] = 1
    inter = member @ member.T
    sizes = member.sum(axis=1)

    edges = {}
    for a, i in enumerate(sub):
        for b in range(a + 1, len(sub)):
            j = sub[b]
            if pos[i, j] > k or pos[j, i] > k:
                continue
            union = sizes[a] + sizes[b] - inter[a, b]
            w = decay(params.alpha0, depths[i], depths[j]) * inter[a, b] / union
            if w > 0:
                edges[(min(i, j), max(i, j))] = float(w)
    return ImageGraph(query, frozenset(depths), edges, directed=False)


def graph_to_text(graph, sources=()):
    """Edge-list export: header line, then `<src> <dst> <weight>` lines.

    `sources` names the feature spaces the graph was built from, in fusion
    order; the header lists them when given.
    """
    header = f"query {graph.query} directed {int(graph.directed)}"
    if sources:
        header += " sources " + ",".join(sources)
    lines = [header]
    for (src, dst) in sorted(graph.edges):
        lines.append(f"{src} {dst} {graph.edges[(src, dst)]:.12g}")
    return "".join(line + "\n" for line in lines)
