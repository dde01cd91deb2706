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
reciprocal test compares, are 1-based over the stored owner-excluded lists.

Apart from its decay, whether an edge i -> i' exists and its weight are
properties of the pair, the same for every query, so the builders read
only the depth array and the n x k `RankTable.neighbour_rows(k)`, built
once per table for the k in use: each entry's id i' = `top[i, c]`, its
reverse rank Rank(i', i) (`rev`) and, for the undirected graph, the size
of the two neighborhoods' intersection (`inter`). The rank sum
Rank(i, i') + Rank(i', i) is c + 1 + `rev`, and the pair is mutual top-k
when `rev` <= k. They read no `RankTable.positions`, only rows of these
arrays.

A graph is stored as arrays over a local node index: its one constructor,
`ImageGraph(query, ids, src, dst, weight, directed)`, checks them once.

Graphs are built for a batch of queries at once (`ranking` ranks each
chunk of `ranking.CHUNK` queries this way), as one set of flat arrays,
and the T tables of one call as one corpus of T * n nodes: `_stack`
builds the tables' rows once per call, table t's image i as node
t * n + i (for one table, its own rows, uncopied). The query in slot b of
the batch owns the keys `b * T * n + t * n + id`, so one array of keys
holds every query's nodes in every table. An edge joins two keys of one
query and one table: components never cross tables or queries, so each
block of n keys is the graph one table alone gives one query alone.
`ranking` has range-checked the queries. A batch is built in two steps,
each one call per chunk whatever T is:

- `_depths` gives each key's BFS depth from its query as one flat
  (B * T * n) array, -1 for a key more than `depth` hops out, its one
  output; each query is seeded in every table. The depths are stored as
  the tables' ids are, `corpus_io._id_dtype(n)` (int16 up to n = 32 768,
  int32 beyond), since none exceeds n - 1. It walks the levels one whole
  level per step for every query of the batch: the next level is the
  keys in the level's `top` rows (for the undirected graph only the
  mutual entries) that no earlier level holds. A level that is expanded
  is deduplicated by a sort and one comparison pass, not by `np.unique`,
  which takes a hash path on numpy 2.4 that is slower at these sizes. The
  last level, the largest, is only written into the depth array, a
  repeat writing the same depth. It reads only the rows of levels
  0 .. depth - 1, 1 + k rows at depth 2 rather than 1 + k + k^2: a node
  `depth` hops out is found from the rows of the level before it, and its
  own row gives only edges. Whether an edge exists, and its decay, depend
  only on the depths of its ends, so the depths are all that a node's
  out-edges need.
- `_out_edges` gives the weighted out-edges of any reached keys, in every
  table at once: each one's `top` row is gathered, its entries that are
  reached (for the undirected graph, mutual) are its edges, in list
  order, and every edge is weighted in one vectorised step from the same
  entries of `rev` or `inter`, with the decays of `_decays`' table, which
  a caller builds once. It is the only place the weights are computed.
  The full build, `_graph_arrays`, builds one table's graphs: it lists
  the reached keys (depth >= 0) by depth, then key, asks `_out_edges` for
  every one's out-edges in that order (each undirected pair once, from
  its smaller id) and returns `(keys, src, dst, weight)` for the batch,
  with `src`/`dst` indexing `keys`. So a batch of one's `ids` (its keys
  are the ids themselves) are ordered by hop distance from the query,
  then by id, and its edges by source, then list order. It serves only
  `ranking.build_graph`, which fuses the tables' graphs (`fusion`).
  `ranking`'s whole lists ask `_out_edges` for every reached key of the
  chunk in one call, and its lockstep expansion, which ranks prefixes
  (see `ranking`), for each query's newest pick in every table, one call
  per step.

The weights equal bit for bit those of the scalar oracles `rank_weight`
and `jaccard_weight` in `tests/conftest.py`, because each one is computed
with the same floating-point operations in the same order:

- the decay comes from a table of Python `alpha0 ** depth` values (numpy's
  array power rounds some of them differently in the last bit);
- the directed weight is `decay / float(Rank(i, i') + Rank(i', i))`, the
  integer sum c + 1 + `rev` taken in intp;
- the undirected weight is `(decay * inter) / union`, with integer
  intersection and union sizes: `inter` as stored, `union` = 2k - inter
  in a dtype that holds 2k (see `corpus_io.NeighbourRows`).

The builders read list prefixes only through `RankTable.neighbour_rows(k)`,
whose rows are cut by `RankTable.truncated(k)`, the one check of the bound
1 <= k <= n - 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus_io import NeighbourRows, _id_dtype, _int_id, _int_ids

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
        query = _int_id(query)
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
        self.query = query
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


def _stack(tables, k, jaccard=False):
    """The `NeighbourRows` of the top k of all `tables`, as one corpus of T * n nodes.

    Table t's image i is node t * n + i: `top` is stacked with the offsets
    t * n, in `_id_dtype(T * n)`, and `rev` (and, when `jaccard`, `inter`)
    as they are. One table's own rows are returned, not copied.
    """
    rows = [table.neighbour_rows(k, jaccard) for table in tables]
    if len(rows) == 1:
        return rows[0]
    n, dtype = tables[0].n, _id_dtype(len(rows) * tables[0].n)
    top = np.concatenate([r.top.astype(dtype) + t * n for t, r in enumerate(rows)])
    rev = np.concatenate([r.rev for r in rows])
    inter = np.concatenate([r.inter for r in rows]) if jaccard else None
    return NeighbourRows(k, top, rev, inter)


def _decays(params, n):
    """alpha0 ** d for d = 0 .. min(depth, n - 1), from Python `**` values."""
    return np.array([params.alpha0 ** d for d in range(min(params.depth, n - 1) + 1)])


def _depths(rows, n, queries, params, directed):
    """Each key's BFS depth from its query as a flat (B * T * n) array.

    `rows` are T tables' stacked rows (`_stack`) over images 0 .. n - 1.
    Query b of the batch owns the keys `b * T * n + t * n + id` and is
    seeded in every table; a key more than `params.depth` hops out has
    depth -1. The depths are `_id_dtype(n)`: none exceeds n - 1. Only the
    rows of levels 0 .. depth - 1 are read: the last level is found, not
    expanded.
    """
    size = len(rows.top)  # T * n
    depth = np.full(len(queries) * size, -1, dtype=_id_dtype(n))
    # query b's seed in table t is key (b * T + t) * n + query
    level = np.arange(0, len(queries) * size, n) + np.repeat(queries, size // n)
    depth[level] = 0
    for d in range(1, params.depth + 1):
        ids = level % size
        cell = rows.top[ids] + (level - ids)[:, None]
        if not directed:
            # only mutual top-k entries extend the BFS
            cell = cell[rows.rev[ids] <= params.k]
        level = cell[depth[cell] < 0]
        if not level.size:
            break
        if d < params.depth:  # a level that is expanded is expanded once per key
            level = _sorted_unique(level)
        depth[level] = d
    return depth


def _out_edges(rows, depth, decays, sources, directed, once=False):
    """The weighted out-edges of the keys `sources`, all reached: (src, dst, weight).

    `rows` and `depth` are those of `_depths`, `decays` is `_decays`'
    table. `src` indexes `sources` and `dst` is a key of `depth`; edges
    come in `sources` order, then list order. Directed: an edge s -> i'
    for every reached i' in the top-k list of s. Undirected: an edge
    s -> i' for every reached mutual top-k entry i' of s, with the Jaccard
    consistency weight, so each pair appears from both ends, or with
    `once` only from its smaller id.
    """
    size, k = len(rows.top), rows.k
    ids = sources % size
    nbrs = rows.top[ids]
    cell = nbrs + (sources - ids)[:, None]
    ends = depth[cell]
    edges = ends >= 0
    if not directed:
        edges &= rows.rev[ids] <= k
        if once:
            edges &= nbrs > ids[:, None]
    # each edge's (source, column) entry, in row order; np.nonzero is
    # several times slower on a 2-d mask
    flat = np.flatnonzero(edges)
    src, dst = flat // k, cell.ravel()[flat]
    # alpha0 ** (larger endpoint depth)
    decay = decays[np.maximum(depth[sources][src], ends.ravel()[flat])]
    if directed:
        # Rank(i, i') + Rank(i', i) = c + 1 + rev, summed in intp over the
        # gathered rows: `flat % k` would cost several times `flat // k`
        weight = decay / (np.arange(1, k + 1) + rows.rev[ids]).ravel()[flat]
    else:
        # each neighborhood holds k distinct ids, so union = 2k - inter
        inter = rows.inter[ids].ravel()[flat]
        weight = (decay * inter) / (2 * k - inter)
    keep = weight > 0
    if np.count_nonzero(keep) < len(keep):
        src, dst, weight = src[keep], dst[keep], weight[keep]
    return src, dst, weight


def _graph_arrays(table, queries, params, directed):
    """One table's graph for each of `queries`, as flat (keys, src, dst, weight).

    `keys` holds the reached keys by depth, then key; `src`/`dst` index
    it. Directed: every out-edge of every node. Undirected: each mutual
    top-k pair once, from its smaller id.
    """
    rows = table.neighbour_rows(params.k, jaccard=not directed)
    depth = _depths(rows, table.n, queries, params, directed)
    keys = np.flatnonzero(depth >= 0)
    keys = keys[np.argsort(depth[keys], kind="stable")]
    decays = _decays(params, table.n)
    src, dst, weight = _out_edges(rows, depth, decays, keys, directed, once=True)
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
