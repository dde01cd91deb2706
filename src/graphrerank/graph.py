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

A graph is stored as arrays over a local node index (`ImageGraph.ids`,
`src`, `dst`, `weight`). The builders walk the bounded BFS in Python and
weight every edge in one vectorised step. Their weights equal the scalar
`rank_weight`/`jaccard_weight` bit for bit, because each one is computed
with the same floating-point operations in the same order:

- the decay comes from a table of Python `alpha0 ** depth` values (numpy's
  array power rounds some of them differently in the last bit);
- the directed weight is `decay / float(Rank(i, i') + Rank(i', i))`;
- the undirected weight is `(decay * inter) / union`, with integer
  intersection and union sizes.

`k` must not exceed n - 1: the builders raise `ValueError` rather than use
a smaller k than the one asked for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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


class ImageGraph:
    """Weighted per-query graph over a local node index.

    Local node a is image `ids[a]`; edge e runs from local node `src[e]` to
    `dst[e]` with weight `weight[e]`. `nodes` (a frozenset of image ids) and
    `edges` (a dict from (src id, dst id) to weight) are built from those
    arrays on first use. Undirected graphs store each edge once under the (min, max) id
    orientation. Zero-weight edges are never stored.

    `ImageGraph(query, nodes, edges, directed)` builds a graph from a node
    set and an edge mapping; the builders use `from_arrays`. Either way the
    graph is validated once, when it is made.
    """

    def __init__(self, query, nodes, edges, directed):
        ids = np.array(sorted(nodes), dtype=np.int64)
        keys = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        weight = np.array(list(edges.values()), dtype=np.float64)
        local = np.searchsorted(ids, keys).clip(max=max(len(ids) - 1, 0))
        if len(ids) and len(keys):
            outside = (ids[local] != keys).any(axis=1)
            if outside.any():
                src, dst = keys[outside.argmax()].tolist()
                raise ValueError(f"edge ({src}, {dst}) endpoint outside node set")
        self._set(query, ids, local[:, 0], local[:, 1], weight, directed)

    @classmethod
    def from_arrays(cls, query, ids, src, dst, weight, directed):
        """Graph over image ids `ids` with edges src[e] -> dst[e] in local indices."""
        graph = cls.__new__(cls)
        graph._set(query, ids, src, dst, weight, directed)
        return graph

    def _set(self, query, ids, src, dst, weight, directed):
        if not (ids == query).any():
            raise ValueError("graph must contain its query node")
        bad = weight <= 0
        if bad.any():
            e = bad.argmax()
            raise ValueError(
                f"edge ({ids[src[e]]}, {ids[dst[e]]}) has non-positive weight {weight[e]}"
            )
        if not directed and (ids[src] > ids[dst]).any():
            raise ValueError("undirected edges must use (min, max) orientation")
        self.query = int(query)
        self.ids = ids
        self.src = src
        self.dst = dst
        self.weight = weight
        self.directed = bool(directed)

    @cached_property
    def nodes(self):
        return frozenset(self.ids.tolist())

    @cached_property
    def edges(self):
        keys = zip(self.ids[self.src].tolist(), self.ids[self.dst].tolist())
        return dict(zip(keys, self.weight.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ImageGraph):
            return NotImplemented
        return (self.query, self.directed, self.nodes, self.edges) == (
            other.query, other.directed, other.nodes, other.edges
        )

    def __repr__(self):
        return (
            f"ImageGraph(query={self.query}, nodes={len(self.ids)}, "
            f"edges={len(self.weight)}, directed={self.directed})"
        )


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


def _checked_k(table, query, params):
    if not 0 <= query < table.n:
        raise ValueError(f"query {query} out of range")
    if params.k > table.n - 1:
        raise ValueError(f"k={params.k} exceeds corpus bound {table.n - 1}")
    return params.k


def _bounded_bfs(neighbor_fn, query, depth, max_nodes):
    """Discovery BFS: depths of nodes within `depth` hops, capped in BFS order."""
    depths = {query: 0}
    queue = deque([query])
    while queue:
        i = queue.popleft()
        if depths[i] >= depth:
            continue
        for j in neighbor_fn(i):
            if j in depths:
                continue
            if max_nodes is not None and len(depths) >= max_nodes:
                return depths
            depths[j] = depths[i] + 1
            queue.append(j)
    return depths


def _local_top_k(table, depths, k):
    """Local index of a BFS result and every node's top-k list in it.

    Returns (ids, depth, top, local): `ids`/`depth` in discovery order,
    `top` the (V, k) global top-k ids and `local` the same as local indices,
    -1 where the neighbor is not a graph node.
    """
    ids = np.fromiter(depths, dtype=np.int64, count=len(depths))
    depth = np.fromiter(depths.values(), dtype=np.int64, count=len(depths))
    top = table.lists[ids, :k]
    index = np.full(table.n, -1, dtype=np.int64)
    index[ids] = np.arange(len(ids))
    return ids, depth, top, index[top]


def _decays(params, depth, src, dst):
    """alpha0 ** max(depth of each endpoint), from Python `**` values."""
    table = np.array([params.alpha0 ** d for d in range(params.depth + 1)])
    return table[np.maximum(depth[src], depth[dst])]


def build_directed_graph(table, query, params):
    """Directed graph over the query's BFS neighborhood in the top-k digraph."""
    k = _checked_k(table, query, params)
    lists = table.lists
    depths = _bounded_bfs(
        lambda i: lists[i, :k].tolist(), query, params.depth, params.max_nodes
    )
    ids, depth, _, local = _local_top_k(table, depths, k)
    src, col = np.nonzero(local >= 0)  # BFS order, then list order
    dst = local[src, col]
    # Rank(i, i') of i' in i's top-k is its column + 1
    ranks = col + 1 + table.positions[ids[dst], ids[src]]
    weight = _decays(params, depth, src, dst) / ranks.astype(np.float64)
    keep = weight > 0
    return ImageGraph.from_arrays(query, ids, src[keep], dst[keep], weight[keep], True)


def build_undirected_graph(table, query, params):
    """Reciprocal-neighbor baseline graph with Jaccard consistency weights."""
    k = _checked_k(table, query, params)
    lists = table.lists
    pos = table.positions

    def recip_nbrs(i):
        row = lists[i, :k]
        return row[pos[row, i] <= k].tolist()

    depths = _bounded_bfs(recip_nbrs, query, params.depth, params.max_nodes)
    ids, depth, top, local = _local_top_k(table, depths, k)
    owner = ids[:, None]
    # each mutual top-k pair once, from its smaller id
    src, col = np.nonzero((local >= 0) & (top > owner) & (pos[top, owner] <= k))
    dst = local[src, col]
    # inclusive neighborhoods, as columns of a membership matrix over the
    # distinct ids they hold; each holds k distinct ids, so union = 2k - inter
    hoods = np.concatenate([owner, top[:, : k - 1]], axis=1)
    _, hood = np.unique(hoods, return_inverse=True)
    hood = hood.reshape(hoods.shape)
    member = np.zeros((len(ids), hood.max() + 1), dtype=bool)
    member[np.arange(len(ids))[:, None], hood] = True
    inter = member[src[:, None], hood[dst]].sum(axis=1)
    weight = (_decays(params, depth, src, dst) * inter) / (2 * k - inter)
    keep = weight > 0
    return ImageGraph.from_arrays(query, ids, src[keep], dst[keep], weight[keep], False)


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
