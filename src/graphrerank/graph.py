"""Per-query image graphs built from rank tables.

Two constructions are provided, both built through `ranking.build_graph`:

- the improved directed graph: an edge i -> i' whenever i' is in the top-k
  list of i, weighted by the reciprocal of the two mutual list positions;
- the undirected baseline: an edge only for mutual top-k pairs, weighted by
  neighborhood Jaccard consistency.

Both discount edges by alpha0 ** (larger hop distance of the endpoints from
the query). Hop distances are computed on the unweighted adjacency before
weights are assigned; an unreachable endpoint gives decay 0 and the edge is
dropped. No hop distance exceeds n - 1, so a depth beyond n - 1 reaches
what n - 1 reaches, and the decay table stops there.

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
query. `ranking` has range-checked the queries. A batch is built in two
steps:

- `_depths` gives each key's BFS depth from its query as one flat
  (B * n) array, -1 for a key more than `depth` hops out, and each level
  as an array of keys. The depths are stored as the tables' ids are,
  `corpus_io._id_dtype(n)` (int16 up to n = 32 768, int32 beyond), since
  none exceeds n - 1. It walks the levels one whole level per step for
  every query of the batch: the next level is the keys in the level's
  top-k rows (for the undirected graph only the mutual entries) that no
  earlier level holds. A level that is expanded is deduplicated by a
  sort and one comparison pass, not by `np.unique`, which on numpy 2.4
  takes a hash path that is slower at these sizes (2.5x at 100 keys, 14x
  at 5 000 on one 2-core machine). The last level, the largest (≈ 2 200
  keys a table in a 64-query chunk at n = 2 000, k = 10, found as
  ≈ 4 000 with repeats), is neither sorted nor deduplicated there: its keys
  are written into the depth array as found, a repeat writing the same
  depth. `ranking`'s lockstep reads only the depths; `_graph_arrays`,
  which lists the nodes, sorts and deduplicates that level itself. It
  reads only the rows of levels 0 .. depth - 1, 1 + k rows at depth 2
  rather than 1 + k + k^2: a node `depth` hops out is found from the
  rows of the level before it, and its own row gives only edges. Whether
  an edge exists, and its decay, depend only on the depths of its ends,
  so the depths are all that a node's out-edges need.
- `_out_edges` gives the weighted out-edges of any reached keys: each
  one's top-k row is gathered, its entries that are reached (for the
  undirected graph, mutual) are its edges, in list order, and every edge
  is weighted in one vectorised step. It is the only place the weights
  are computed. The full build, `_graph_arrays`, asks it for every node's
  out-edges in BFS order (each undirected pair once, from its smaller id)
  and returns `(keys, src, dst, weight)` for the batch, with `src`/`dst`
  indexing `keys`: each BFS level in turn, in key order, so a batch of
  one's `ids` (its keys are the ids themselves) are ordered by hop
  distance from the query, then by id, and its edges by source, then list
  order. `ranking`'s lockstep expansion, which ranks prefixes (see
  `ranking`), asks it for each query's newest pick only.

The weights equal bit for bit those of the scalar oracles `rank_weight`
and `jaccard_weight` in `tests/conftest.py`, because each one is computed
with the same floating-point operations in the same order:

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

from .corpus_io import _id_dtype, _int_ids

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
    image `ids[a]` (distinct integer ids); edge e runs from local node
    `src[e]` to `dst[e]` with weight `weight[e]`. `nodes` (a frozenset of
    image ids) and `edges` (a dict from (src id, dst id) to weight) are
    built from those arrays on first use. Undirected graphs store each edge
    once under the (min, max) id orientation. Zero-weight edges, self-loops
    and repeated edges are never stored. Checked once, when made.
    """

    def __init__(self, query, ids, src, dst, weight, directed):
        ids = _int_ids(ids)
        if len(_sorted_unique(ids)) < len(ids):
            raise ValueError("graph node ids must be distinct")
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
        loop = src == dst
        if np.count_nonzero(loop):
            i = ids[src[loop.argmax()]]
            raise ValueError(f"edge ({i}, {i}) is a self-loop")
        pairs = np.sort(src.astype(np.int64) * len(ids) + dst)
        twice = pairs[1:] == pairs[:-1]
        if np.count_nonzero(twice):
            a, b = divmod(int(pairs[1:][twice.argmax()]), len(ids))
            raise ValueError(f"edge ({ids[a]}, {ids[b]}) appears more than once")
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


def _depths(table, queries, params, directed):
    """Each key's BFS depth from its query as a flat (B * n) array, and the levels.

    Query b of the batch owns the keys `b * n + id`; a key more than
    `params.depth` hops out has depth -1. The depths are `_id_dtype(n)`:
    none exceeds n - 1. The levels are arrays of keys, level 0 first, each
    in key order but the last: level `params.depth` comes as found, with
    repeats. Only the rows of levels 0 .. depth - 1 are read: the last
    level is found, not expanded.
    """
    n, k, pos, top = table.n, params.k, table.positions, table.truncated(params.k)
    depth = np.full(len(queries) * n, -1, dtype=_id_dtype(n))
    level = np.arange(0, len(queries) * n, n) + queries
    depth[level] = 0
    levels = [level]
    for d in range(1, params.depth + 1):
        ids = level % n
        nbrs = top[ids]
        cell = nbrs + (level - ids)[:, None]
        if not directed:
            # only mutual top-k entries extend the BFS
            cell = cell[pos[nbrs, ids[:, None]] <= k]
        level = cell[depth[cell] < 0]
        if not level.size:
            break
        if d < params.depth:  # a level that is expanded is expanded once per key
            level = _sorted_unique(level)
        depth[level] = d
        levels.append(level)
    return depth, levels


def _out_edges(table, depth, sources, params, directed, once=False):
    """The weighted out-edges of the keys `sources`, all reached: (src, dst, weight).

    `src` indexes `sources` and `dst` is a key of `depth` (`_depths`'
    array); edges come in `sources` order, then list order. Directed: an
    edge s -> i' for every reached i' in the top-k list of s. Undirected:
    an edge s -> i' for every reached mutual top-k entry i' of s, with the
    Jaccard consistency weight, so each pair appears from both ends, or
    with `once` only from its smaller id.
    """
    n, k, pos, top = table.n, params.k, table.positions, table.truncated(params.k)
    ids = sources % n
    rows = top[ids]
    cell = rows + (sources - ids)[:, None]
    ends = depth[cell]
    edges = ends >= 0
    if not directed:
        edges &= pos[rows, ids[:, None]] <= k
        if once:
            edges &= rows > ids[:, None]
    # each edge's row and column, in row order; np.nonzero is several
    # times slower on a 2-d mask
    flat = np.flatnonzero(edges)
    src, col = np.divmod(flat, k)
    dst, dst_id = cell.ravel()[flat], rows.ravel()[flat]
    # alpha0 ** (larger endpoint depth), from Python `**` values; no depth exceeds n - 1
    decays = np.array([params.alpha0 ** d for d in range(min(params.depth, n - 1) + 1)])
    decay = decays[np.maximum(depth[sources][src], ends.ravel()[flat])]
    if directed:
        # Rank(i, i') of i' in i's top-k is its column + 1
        weight = decay / (col + 1 + pos[dst_id, ids[src]]).astype(np.float64)
    else:
        # y is in j's inclusive neighborhood iff pos[j, y] < k (pos[j, j] is
        # 0); each neighborhood holds k distinct ids, so union = 2k - inter
        hoods = np.concatenate([ids[:, None], rows[:, : k - 1]], axis=1)
        inter = (pos[dst_id[:, None], hoods[src]] < k).sum(axis=1)
        weight = (decay * inter) / (2 * k - inter)
    keep = weight > 0
    if np.count_nonzero(keep) < len(keep):
        src, dst, weight = src[keep], dst[keep], weight[keep]
    return src, dst, weight


def _graph_arrays(table, queries, params, directed):
    """One table's graph for each of `queries`, as flat (keys, src, dst, weight).

    `keys` holds the BFS levels in turn, each in key order; `src`/`dst`
    index it. Directed: every out-edge of every node. Undirected: each
    mutual top-k pair once, from its smaller id.
    """
    depth, levels = _depths(table, queries, params, directed)
    if len(levels) > params.depth:  # the last level, with its repeats
        levels[-1] = _sorted_unique(levels[-1])
    keys = np.concatenate(levels)
    src, dst, weight = _out_edges(table, depth, keys, params, directed, once=True)
    index = np.empty(len(depth), dtype=np.intp)
    index[keys] = np.arange(len(keys))
    return keys, src, index[dst], weight


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
