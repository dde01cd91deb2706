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
entries of its stored list. List positions, `Rank(i, i')` and those the
reciprocal test compares, are 1-based over the stored owner-excluded lists:
`RankTable.positions`, whose diagonal is 0.

A graph is stored as arrays over a local node index: its one constructor,
`ImageGraph(query, ids, src, dst, weight, directed)`, is what both builders
and `fusion.fuse` call. The builders run a frontier BFS that takes one
whole level per step: the ids in the frontier's top-k rows (for the
undirected graph only the mutual top-k entries) that were not seen before.
The `ids` of a built graph are therefore ordered by hop distance from the
query, then by id. Every edge is then weighted in one vectorised step,
and the weights equal bit for bit those of the scalar oracles
`rank_weight` and `jaccard_weight` in `tests/conftest.py`, because each one
is computed with the same floating-point operations in the same order:

- the decay comes from a table of Python `alpha0 ** depth` values (numpy's
  array power rounds some of them differently in the last bit);
- the directed weight is `decay / float(Rank(i, i') + Rank(i', i))`;
- the undirected weight is `(decay * inter) / union`, with integer
  intersection and union sizes.

The builders read list prefixes only through `RankTable.truncated(k)`,
which is the one check of the bound 1 <= k <= n - 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GraphParams",
    "ImageGraph",
    "build_directed_graph",
    "build_undirected_graph",
    "graph_to_text",
]


@dataclass(frozen=True)
class GraphParams:
    k: int
    alpha0: float = 0.8
    depth: int = 2

    def __post_init__(self):
        if operator.index(self.k) < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError("alpha0 must lie in (0, 1]")
        if operator.index(self.depth) < 1:
            raise ValueError("depth must be >= 1")


class ImageGraph:
    """Weighted per-query graph over a local node index.

    `ImageGraph(query, ids, src, dst, weight, directed)`: local node a is
    image `ids[a]`; edge e runs from local node `src[e]` to `dst[e]` with
    weight `weight[e]`. `nodes` (a frozenset of image ids) and `edges` (a
    dict from (src id, dst id) to weight) are built from those arrays on
    first use. Undirected graphs store each edge once under the (min, max)
    id orientation. Zero-weight edges are never stored. The graph is
    validated once, when it is made: `src`, `dst` and `weight` hold one
    entry per edge, and every local index lies in [0, len(ids)).
    """

    def __init__(self, query, ids, src, dst, weight, directed):
        if not len(src) == len(dst) == len(weight):
            raise ValueError(
                f"src, dst and weight must have one entry per edge, "
                f"got {len(src)}, {len(dst)} and {len(weight)}"
            )
        if not (ids == query).any():
            raise ValueError("graph must contain its query node")
        ends = np.concatenate([src, dst])
        if ends.size and (ends.min() < 0 or ends.max() >= len(ids)):
            raise ValueError(f"edge endpoint index outside [0, {len(ids)})")
        bad = ~(weight > 0)  # NaN too
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

    def __repr__(self):
        return (
            f"ImageGraph(query={self.query}, nodes={len(self.ids)}, "
            f"edges={len(self.weight)}, directed={self.directed})"
        )


def _frontier_bfs(table, query, params, reciprocal):
    """Nodes within `params.depth` hops of `query`, one whole BFS level per step.

    A level is the ids in `table.truncated(k)[frontier]` (only the mutual
    top-k ones when `reciprocal`) that no earlier level holds, in id order.

    Returns (ids, depth, top, local): `ids`/`depth` ordered by depth, then
    id, `top` the (V, k) global top-k ids and `local` the same as local
    indices, -1 where the neighbor is not a graph node.
    """
    if not 0 <= query < table.n:
        raise ValueError(f"query {query} out of range")
    k = params.k
    top = table.truncated(k)
    index = np.full(table.n, -1, dtype=np.int64)
    index[query] = 0
    levels = [np.array([query], dtype=np.int64)]
    count = 1
    for _ in range(params.depth):
        frontier = levels[-1]
        if not frontier.size:
            break
        nbrs = top[frontier]
        if reciprocal:
            nbrs = nbrs[table.positions[nbrs, frontier[:, None]] <= k]
        new = np.unique(nbrs[index[nbrs] < 0])
        index[new] = np.arange(count, count + len(new))
        count += len(new)
        levels.append(new)
    ids = np.concatenate(levels)
    depth = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    rows = top[ids]
    return ids, depth, rows, index[rows]


def _decays(params, depth, src, dst):
    """alpha0 ** max(depth of each endpoint), from Python `**` values."""
    table = np.array([params.alpha0 ** d for d in range(params.depth + 1)])
    return table[np.maximum(depth[src], depth[dst])]


def build_directed_graph(table, query, params):
    """Directed graph over the query's BFS neighborhood in the top-k digraph."""
    ids, depth, _, local = _frontier_bfs(table, query, params, reciprocal=False)
    src, col = np.nonzero(local >= 0)  # BFS order, then list order
    dst = local[src, col]
    # Rank(i, i') of i' in i's top-k is its column + 1
    ranks = col + 1 + table.positions[ids[dst], ids[src]]
    weight = _decays(params, depth, src, dst) / ranks.astype(np.float64)
    keep = weight > 0
    return ImageGraph(query, ids, src[keep], dst[keep], weight[keep], True)


def build_undirected_graph(table, query, params):
    """Reciprocal-neighbor baseline graph with Jaccard consistency weights."""
    k = params.k
    pos = table.positions
    ids, depth, top, local = _frontier_bfs(table, query, params, reciprocal=True)
    owner = ids[:, None]
    # each mutual top-k pair once, from its smaller id
    src, col = np.nonzero((local >= 0) & (top > owner) & (pos[top, owner] <= k))
    dst = local[src, col]
    # y is in j's inclusive neighborhood iff pos[j, y] <= k - 1 (pos[j, j] is
    # 0); each neighborhood holds k distinct ids, so union = 2k - inter
    hoods = np.concatenate([owner, top[:, : k - 1]], axis=1)
    inter = (pos[ids[dst][:, None], hoods[src]] <= k - 1).sum(axis=1)
    weight = (_decays(params, depth, src, dst) * inter) / (2 * k - inter)
    keep = weight > 0
    return ImageGraph(query, ids, src[keep], dst[keep], weight[keep], False)


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
