"""Per-query image graphs built from rank tables.

Two constructions are provided, both built through `ranking.build_graph`:

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
`ImageGraph(query, ids, src, dst, weight, directed)`, checks them once.

Graphs are built for a batch of queries at once (`ranking` ranks each
chunk of `ranking.CHUNK` queries this way), as one set of flat arrays. The
query in slot b of the batch owns the node keys `b * n + id`, so one array
of keys holds every query's nodes, and an edge joins two nodes of one
query. `_graph_arrays` returns `(keys, src, dst, weight)` for a batch, with
`src`/`dst` indexing `keys`; for a batch of one, as `ranking.build_graph`
builds, a key is the id itself. `ranking` has range-checked the queries.

The BFS takes one whole level per step for every query of the batch: the
keys in the frontier's top-k rows (for the undirected graph only the
mutual top-k entries) that were not seen before. A level is deduplicated
by a sort and one comparison pass, not by `np.unique`, which on numpy 2.4
takes a hash path that is slower at these sizes (2.5x at 100 keys, 14x at
5 000 on one 2-core machine). So each level is in (query, id) order, and a
batch of one's `ids` are ordered by hop distance from the query, then by
id. Every edge is then weighted in one vectorised step,
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

__all__ = ["GraphParams", "ImageGraph", "graph_to_text"]


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
    id orientation. Zero-weight edges are never stored. Checked once, when made.
    """

    def __init__(self, query, ids, src, dst, weight, directed):
        if not (ids == query).any():
            raise ValueError("graph must contain its query node")
        if not len(src) == len(dst) == len(weight):
            raise ValueError(
                f"src, dst and weight must have one entry per edge, "
                f"got {len(src)}, {len(dst)} and {len(weight)}"
            )
        ends = np.concatenate([src, dst])
        if np.count_nonzero((ends < 0) | (ends >= len(ids))):
            raise ValueError(f"edge endpoint index outside [0, {len(ids)})")
        positive = weight > 0  # False for NaN too
        if np.count_nonzero(positive) < len(weight):
            e = positive.argmin()
            raise ValueError(
                f"edge ({ids[src[e]]}, {ids[dst[e]]}) has non-positive weight {weight[e]}"
            )
        if not directed and np.count_nonzero(ids[src] > ids[dst]):
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


def _sorted_unique(a):
    """The distinct values of `a`, ascending: a sort and one comparison pass."""
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _frontier_bfs(table, top, queries, params, reciprocal):
    """Nodes within `params.depth` hops of each query, one whole BFS level per step.

    Query b of the batch owns the keys `b * n + id`. A level is the keys in
    the `top` (k-column) rows of the frontier (only the mutual top-k ones
    when `reciprocal`) that no earlier level holds, in key order.

    Returns (keys, depth, index): `keys`/`depth` ordered by depth, then key,
    and `index`, of length `len(queries) * n`, maps a key to its node, -1 for
    a key that is not one.
    """
    n, k = table.n, params.k
    index = np.full(len(queries) * n, -1, dtype=np.int64)
    level = np.arange(0, len(queries) * n, n) + queries
    index[level] = np.arange(len(level))
    levels = [level]
    count = len(level)
    for _ in range(params.depth):
        ids = level % n
        nbrs = top[ids]
        keys = nbrs + (level - ids)[:, None]
        if reciprocal:
            keys = keys[table.positions[nbrs, ids[:, None]] <= k]
        level = _sorted_unique(keys[index[keys] < 0])
        if not level.size:
            break
        index[level] = np.arange(count, count + len(level))
        count += len(level)
        levels.append(level)
    keys = np.concatenate(levels)
    depth = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    return keys, depth, index


def _decays(params, depth, src, dst):
    """alpha0 ** max(depth of each endpoint), from Python `**` values."""
    table = np.array([params.alpha0 ** d for d in range(params.depth + 1)])
    return table[np.maximum(depth[src], depth[dst])]


def _graph_arrays(table, queries, params, directed):
    """One table's graph for each of `queries`, as flat (keys, src, dst, weight).

    Directed: an edge i -> i' for every i' in the top-k list of i, both in
    the BFS neighborhood. Undirected: each mutual top-k pair once, from its
    smaller id, with the Jaccard consistency weight.
    """
    n, k, pos = table.n, params.k, table.positions
    top = table.truncated(k)
    keys, depth, index = _frontier_bfs(table, top, queries, params, reciprocal=not directed)
    ids = keys % n
    top = top[ids]
    local = index[top + (keys - ids)[:, None]]
    # (row, column) of each edge in BFS order, then list order; np.nonzero
    # is several times slower on a 2-d mask
    if directed:
        src, col = np.divmod(np.flatnonzero(local >= 0), k)
        dst = local[src, col]
        # Rank(i, i') of i' in i's top-k is its column + 1
        ranks = col + 1 + pos[ids[dst], ids[src]]
        weight = _decays(params, depth, src, dst) / ranks.astype(np.float64)
    else:
        owner = ids[:, None]
        # each mutual top-k pair once, from its smaller id
        mutual = (local >= 0) & (top > owner) & (pos[top, owner] <= k)
        src, col = np.divmod(np.flatnonzero(mutual), k)
        dst = local[src, col]
        # y is in j's inclusive neighborhood iff pos[j, y] <= k - 1 (pos[j, j] is
        # 0); each neighborhood holds k distinct ids, so union = 2k - inter
        hoods = np.concatenate([owner, top[:, : k - 1]], axis=1)
        inter = (pos[ids[dst][:, None], hoods[src]] <= k - 1).sum(axis=1)
        weight = (_decays(params, depth, src, dst) * inter) / (2 * k - inter)
    keep = weight > 0
    if np.count_nonzero(keep) < len(keep):
        src, dst, weight = src[keep], dst[keep], weight[keep]
    return keys, src, dst, weight


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
