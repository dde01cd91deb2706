"""Greedy maximum-local-weight expansion ranking.

Starting from S = {query}, repeatedly insert the candidate (a node the
current set points to) whose best edge from S has the largest weight; the
output order is the insertion order. A candidate's score is the MAX over its
incoming edges from S, the one scoring rule. Ties break by the candidate's
position in the query's initial list, then by ascending id. If the graph is
exhausted early, the list is completed from the initial ranking.

Greedy insertion is prefix-consistent: each pick depends only on the picks
before it, so `greedy_rank(g, init, target_len=t).order` equals the first
t ids of the full order `greedy_rank(g, init).order`, and
`rerank_batch(..., target_len=t)` gives the first t ids of each whole list.

Nodes are laid out in tie order (query first, then by initial-list
position, nodes absent from the list after all present ones, then by id),
so `np.argmax`, which returns the first of equal maxima, picks the
documented tie-break. Scores are a running `np.maximum`, compared exactly.

One chunk loop, `_ranked_chunks`, ranks `CHUNK` queries at a time as one
array program over the flat node keys `b * n + id` (see `graph`) and yields
each chunk's queries with their lists as one (B, L) int64 id array, which
`_check_orders` checks once in the loop. `RankedList`s are made only by
callers that return lists, from rows already checked: `rerank_batch`
wraps every chunk's rows (`rerank` is a batch of one) and `greedy_rank`
its one row. `evaluation.evaluate` scores the arrays and the CLI `rerank`
command writes them, one chunk at a time. The shape of the request picks
the path; both give the same lists:

- A whole list (`target_len` = n - 1, the default; `rerank`, the CLI
  `rerank` command and `metric="map"`) is ranked from the full graphs
  (`_rank_chunk`), and no fused edge list is built. One BFS per table
  (`graph._depths`) gives the nodes, every key some table reaches; one
  `graph._out_edges` call per table gives all their out-edges in key
  order, so query by query (an undirected pair from both ends); one sort
  lays the nodes out in tie order (by query slot, then by position in the
  slot's tables[0] list, where the query's own position is 0). Then each
  graph in turn fills one V x V float64 matrix W: each table, in table
  order, adds its edges a -> b into it with one `+=` over their cells
  a * V + b, so each fused weight is 0.0 + w1 + w2 + ..., equal bit for
  bit to `fusion`'s sum. `_prim` runs three vector ops per pick over the
  graph's V nodes: the capped scores' `argmax` (inserted nodes capped at
  -inf), `cap[best] = -inf` and `np.maximum(scores, W[best])`. Only one
  graph's matrix is held at a time: 8 V^2 bytes with V <= n, about 80 KB
  at V = 100 (n = 2 000, k = 10), 9 MB at V = 1 050 (k = 60), 32 MB for a
  graph of all 2 000 images and 3.2 GB for one of all 20 000.
- A prefix (`target_len` < n - 1, such as the 3 ids N-S reads) is ranked
  by lockstep expansion (`_lazy_chunk`). Pick t depends only on the
  out-edges of the query and of picks 1 .. t-1, and an edge and its decay
  only on the BFS depths of its ends (`graph._depths`). So each of
  `target_len` steps gathers, in every table, the out-edges of each
  query's newest node (`graph._out_edges`), sums them per (query, node)
  and `np.maximum`s the sums into a dense (batch, n) score array. The
  sums need no sort: one table's step edges end at distinct keys, so each
  table in turn adds its weights into a per-chunk buffer over the chunk's
  keys with one `+=`; the sums are read from it, and its cells set back to
  0.0. A sum is thus 0.0 + w1 + w2 + ... in table order, equal bit for
  bit to the fused edge's (see `fusion`). The score array's columns are
  positions in the query's tables[0] list, column 0 the query, so a row's
  `argmax` is the tie-break. A query whose row holds no candidate is done;
  its list is completed from its initial list, as from a full graph.

Why the rule: medians of 6 alternating in-process runs, 2 CPUs, synthetic
n = 2 000, k = 10, two tables, graphs built from the tables' cached
neighbour rows, microseconds per query, full graphs -> lockstep. A 3-id
prefix in 64-query chunks: 80 -> 23 directed, 35 -> 14 undirected. Whole
lists in 64-query chunks: 261 -> 316 directed (1.21x), 127 -> 192
undirected (1.51x). One whole list: 821 -> 9 037 directed. Whole lists
stay on the full graphs and prefixes on the lockstep.

A list ranked from rank tables holds shared ints: `_id_objects(n)` is the
ids 0 .. n - 1 as one read-only array of Python ints, built once for the
corpus in use, and `RankedList._batch` picks each list's ids from it. So
a list costs its n - 1 tuple slots (16 KB at n = 2 000), not a new int
object per id above 256 (≈ 80 KB in all), whatever number of lists a
caller keeps. `greedy_rank` takes any non-negative ids, so its one list
converts its own; no array is sized by an id beyond n.

Queries, method, `target_len` and k are checked once, where they enter
(`_ranked_chunks`, before its first chunk is ranked, and `build_graph`),
`RankedList`'s rules once per chunk (`_check_orders`, not again when the
rows are wrapped), and the graphs a batch builds are not re-checked. One
query is read as ids are (`corpus_io._int_id`: by `operator.index`, a
bool rejected), so `rerank`, `build_graph`, `RankedList` and `ImageGraph`
take what `rerank_batch` takes and keep the query as a Python int.
`greedy_rank` ranks one `ImageGraph` through the full path's layout,
matrix, expansion and completion (`_rank_graphs`, `_prim`).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .corpus_io import _int_id, _int_ids
from .fusion import _fuse_arrays
from .graph import ImageGraph, _depths, _graph_arrays, _out_edges

__all__ = ["CHUNK", "RankedList", "build_graph", "greedy_rank", "rerank", "rerank_batch"]

CHUNK = 64  # queries ranked as one batch; bounds the batch's (CHUNK * n) key index


@functools.lru_cache(maxsize=1)
def _id_objects(n):
    """The ids 0 .. n - 1 as a read-only object array, one shared Python int per id."""
    ids = np.arange(n).astype(object)
    ids.flags.writeable = False
    return ids


def _check_orders(queries, orders):
    """`RankedList`'s checks, for every row of the 2-d `orders` against its query."""
    if np.count_nonzero(orders == queries[:, None]):
        raise ValueError("ranked list must not contain its own query")
    ids = np.sort(orders, axis=-1)
    if np.count_nonzero(ids[..., 1:] == ids[..., :-1]):
        raise ValueError("ranked list contains duplicates")


@dataclass(frozen=True)
class RankedList:
    """Output ordering for one query over integer ids; the query never appears in it.

    `order` is a tuple of Python ints. The lists ranked from rank tables
    share one int object per id (see `_id_objects`); a list built here or
    by `greedy_rank` holds its own.
    """

    query: int
    order: tuple

    def __post_init__(self):
        object.__setattr__(self, "query", _int_id(self.query))
        order = _int_ids(self.order)
        if order.ndim != 1:
            raise ValueError("ranked list must be one-dimensional")
        _check_orders(np.array([self.query]), order[None, :])
        object.__setattr__(self, "order", tuple(order.tolist()))

    @classmethod
    def _batch(cls, queries, orders, n=None):
        """One RankedList per row of the integer (B, L) `orders`, which `_check_orders` passed.

        With the corpus size `n`, every id is `_id_objects(n)`'s shared int.
        """
        if n is not None:
            ids = _id_objects(n)
            queries, orders = ids[queries], ids[orders]
        ranked = []
        for query, order in zip(queries.tolist(), orders.tolist()):
            r = object.__new__(cls)
            object.__setattr__(r, "query", query)
            object.__setattr__(r, "order", tuple(order))
            ranked.append(r)
        return ranked


def _prim(weights, target_len):
    """Greedy insertion over one graph's dense weight matrix; returns the picked nodes.

    `weights[a, b]` is the (fused) weight of the edge a -> b, 0.0 where
    there is none; node 0 is the query and the nodes are in tie order.
    Returns at most `target_len` nodes, in insertion order.
    """
    v = len(weights)
    # a candidate's score is > 0 and any other node's 0; capping inserted
    # nodes at -inf (the rest at +inf) keeps them out of the argmax
    scores = weights[0].copy()
    cap = np.full(v, np.inf)
    cap[0] = -np.inf
    capped = np.empty(v)
    picked = []
    while len(picked) < target_len:
        best = int(np.minimum(scores, cap, out=capped).argmax())
        if capped[best] <= 0:
            break
        cap[best] = -np.inf
        picked.append(best)
        np.maximum(scores, weights[best], out=scores)
    return picked


def _complete(initial, skip, need):
    """The first `need` ids of `initial` whose positions are not in `skip`."""
    head = initial[: need + len(skip)]
    keep = np.ones(len(head), dtype=bool)
    keep[skip[skip < len(head)]] = False
    return head[keep][:need]


def _rank_graphs(queries, initials, slot, ids, tie, parts, target_len):
    """Greedy-rank a batch of graphs, completing each list from its initial list.

    Node a is image `ids[a]` of graph s = `slot[a]`, whose query
    `queries[s]` is not in its initial list `initials[s]`. `tie[a]` is 0
    for the query, 1 + its position for a listed node and a distinct
    larger value for any other node, so one sort by (slot, tie) lays each
    graph out in tie order, and completion skips a picked node's position
    `tie - 1` (none, for an unlisted node). `parts` holds each table's
    out-edges as (src, dst, weight) over the nodes, graph by graph in slot
    order (an undirected pair from both ends). Returns the (B, `target_len`)
    int64 id array, one row per graph.
    """
    layout = np.lexsort((tie, slot))
    graphs = np.arange(len(queries) + 1)
    bounds = np.searchsorted(slot[layout], graphs)
    size = np.diff(bounds)
    # node a's row and column in its graph's matrix
    local = np.empty(len(layout), dtype=np.intp)
    local[layout] = np.arange(len(layout)) - bounds[slot[layout]]
    cells = []
    for src, dst, weight in parts:
        # edge a -> b is cell a * V + b of its graph's flat V x V matrix
        width = size[slot[src]]
        cut = np.searchsorted(slot[src], graphs).tolist()
        cells.append((local[src] * width + local[dst], weight, cut))
    ids, tie, bounds = ids[layout], tie[layout], bounds.tolist()
    orders = np.empty((len(queries), target_len), dtype=np.int64)
    for s, (order, initial) in enumerate(zip(orders, initials)):
        lo, hi = bounds[s], bounds[s + 1]
        # each table adds its weights in turn: 0.0 + w1 + w2 + ..., as `fusion` sums;
        # one table's cells are distinct, so one += adds each weight once
        weights = np.zeros((hi - lo) ** 2)
        for cell, weight, cut in cells:
            weights[cell[cut[s]:cut[s + 1]]] += weight[cut[s]:cut[s + 1]]
        picked = _prim(weights.reshape(hi - lo, hi - lo), target_len)
        order[: len(picked)] = ids[lo:hi][picked]
        if len(picked) < target_len:
            skip = tie[lo:hi][picked] - 1
            order[len(picked):] = _complete(initial, skip, target_len - len(picked))
    return orders


def greedy_rank(graph, initial, target_len=None):
    """Rank by greedy insertion over `graph`, completing from `initial`.

    `initial` is the query's initial ranking: distinct non-negative ids of
    an integer dtype, without the query itself.
    """
    initial = _int_ids(initial)
    target_len = len(initial) if target_len is None else operator.index(target_len)
    if not 0 <= target_len <= len(initial):
        raise ValueError(f"target_len {target_len} out of range [0, {len(initial)}]")
    q = graph.query
    ids = graph.ids
    if ids.min() < 0 or initial.min(initial=0) < 0:
        raise ValueError("image ids must be non-negative")
    if np.count_nonzero(initial == q):
        raise ValueError("initial list must not contain its own query")
    by_id = np.argsort(initial, kind="stable")
    listed = initial[by_id]
    if np.count_nonzero(listed[1:] == listed[:-1]):
        raise ValueError("initial list contains duplicates")

    # tie order: query, then initial-list position, then absent nodes by id;
    # a sentinel -1 past the sorted list matches no id
    at = np.searchsorted(listed, ids)
    found = np.append(listed, -1)[at] == ids
    tie = np.where(found, np.append(by_id, 0)[at] + 1, len(initial) + 1 + ids)
    tie[ids == q] = 0
    src, dst, weight = graph.src, graph.dst, graph.weight
    if not graph.directed:  # each pair is stored once; rank it from both ends
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weight = np.concatenate([weight, weight])
    queries = np.array([q])
    orders = _rank_graphs(
        queries, [initial], np.zeros(len(ids), dtype=np.int64), ids, tie,
        [(src, dst, weight)], target_len,
    )
    _check_orders(queries, orders)
    return RankedList._batch(queries, orders)[0]


def _checked(tables, queries, method):
    """The tables as a list, `queries` as int64 ids in [0, n), and whether `method` is directed."""
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one rank table")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError("all rank tables must cover the same corpus")
    if method not in ("directed", "undirected"):
        raise ValueError(f"unknown method {method!r}")
    queries = _int_ids(queries)
    if queries.ndim != 1:
        raise ValueError("queries must be one-dimensional")
    bad = (queries < 0) | (queries >= n)
    if np.count_nonzero(bad):
        raise ValueError(f"query {queries[bad.argmax()]} out of range")
    return tables, queries, method == "directed"


def build_graph(tables, query, params, method="directed"):
    """One graph per rank table, fused by per-edge weight sum when several."""
    tables, queries, directed = _checked(tables, [_int_id(query)], method)
    parts = [_graph_arrays(t, queries, params, directed) for t in tables]
    arrays = parts[0] if len(parts) == 1 else _fuse_arrays(parts)
    return ImageGraph(queries[0], *arrays, directed)


def _rank_chunk(tables, queries, params, directed):
    """Every query's whole list as a row of ids, ranked from the full graphs."""
    n = tables[0].n
    depths = [_depths(t, queries, params, directed) for t in tables]
    # the nodes: every key some table reaches, in key order, so each table's
    # out-edges below come query by query
    reached = np.logical_or.reduce([depth >= 0 for depth in depths])
    keys = np.flatnonzero(reached)
    index = np.empty(len(reached), dtype=np.intp)
    index[keys] = np.arange(len(keys))
    parts = []
    for table, depth in zip(tables, depths):
        sources = keys[depth[keys] >= 0]
        src, dst, weight = _out_edges(table, depth, sources, params, directed)
        parts.append((index[sources[src]], index[dst], weight))
    slot, ids = np.divmod(keys, n)
    # tie order: query (its own position is 0), then position in tables[0]'s list
    tie = tables[0].positions[queries[slot], ids]
    initials = [tables[0].lists[q] for q in queries.tolist()]
    return _rank_graphs(queries, initials, slot, ids, tie, parts, n - 1)


def _lazy_chunk(tables, queries, params, directed, target_len):
    """The first `target_len` ids of `_rank_chunk`'s lists, by lockstep expansion."""
    n, pos0, lists0 = tables[0].n, tables[0].positions, tables[0].lists
    depths = [_depths(t, queries, params, directed) for t in tables]
    # scores[b, c]: the best edge from query b's set into the id at position
    # c of its tables[0] list, -inf once inserted (column 0 is the query)
    scores = np.zeros((len(queries), n))
    scores[:, 0] = -np.inf
    picks = np.zeros((len(queries), target_len), dtype=np.int64)
    # sums[key]: a step's fused weight of the edge into key, 0.0 between steps
    sums = np.zeros(len(queries) * n) if len(tables) > 1 else None
    rows = np.arange(len(queries))
    newest = rows * n + queries
    for step in range(target_len):
        # a node outside one table's graph has no out-edges there
        parts = [_out_edges(t, depth, newest[depth[newest] >= 0], params, directed)[1:]
                 for t, depth in zip(tables, depths)]
        if sums is None:
            dst, weight = parts[0]
        else:
            # one table's step edges end at distinct keys, so each += adds
            # that table's weight once, in table order: 0.0 + w1 + w2 + ...
            for dst, weight in parts:
                sums[dst] += weight
            dst = np.concatenate([dst for dst, _ in parts])
            weight = sums[dst]  # a key two tables reach is read twice, the same sum
            sums[dst] = 0.0
        slot, ids = np.divmod(dst, n)
        cell = (slot, pos0[queries[slot], ids])
        best = scores[cell]
        scores[cell] = np.where(best < 0, best, np.maximum(best, weight))
        col = scores.argmax(axis=1)
        # a query with no candidate left gains no edges, so it stays done
        rows = rows[scores[rows, col[rows]] > 0]
        if not rows.size:
            break
        col = col[rows]
        scores[rows, col] = -np.inf
        picks[rows, step] = col
        newest = rows * n + lists0[queries[rows], col - 1]
    # each row's picks are a prefix, the rest 0; position c is lists0[q, c - 1]
    orders = lists0[queries[:, None], picks - 1]
    count = np.count_nonzero(picks, axis=1)
    for b in np.flatnonzero(count < target_len).tolist():
        skip = picks[b, : count[b]] - 1
        orders[b, count[b]:] = _complete(lists0[queries[b]], skip, target_len - count[b])
    return orders


def _ranked_chunks(tables, queries, params, method, target_len):
    """Each `CHUNK` of `queries` with its checked (B, `target_len`) int64 id array.

    Row b is query `chunk[b]`'s list. Every input is checked before the
    first chunk is ranked, and each chunk's lists by `_check_orders`.
    """
    tables, queries, directed = _checked(tables, queries, method)
    length = tables[0].n - 1
    target_len = length if target_len is None else operator.index(target_len)
    if not 0 <= target_len <= length:
        raise ValueError(f"target_len {target_len} out of range [0, {length}]")
    tables[0].truncated(params.k)  # every table covers the same n

    def chunks():
        for start in range(0, len(queries), CHUNK):
            chunk = queries[start:start + CHUNK]
            if target_len < length:
                orders = _lazy_chunk(tables, chunk, params, directed, target_len)
            else:
                orders = _rank_chunk(tables, chunk, params, directed)
            _check_orders(chunk, orders)
            yield chunk, orders

    return chunks()


def rerank_batch(tables, queries, params, method="directed", target_len=None):
    """`rerank` for each of `queries`, ranked `CHUNK` queries at a time.

    `target_len` (default: the whole list) keeps each list's first ids; a
    prefix is ranked by lockstep expansion, a whole list from the full
    graphs. A query may repeat; each result depends only on its own query.
    """
    tables = list(tables)
    chunks = _ranked_chunks(tables, queries, params, method, target_len)  # checks the tables
    n = tables[0].n
    return [r for chunk, orders in chunks for r in RankedList._batch(chunk, orders, n)]


def rerank(tables, query, params, method="directed"):
    """Greedy-rank `build_graph`'s graph for one query: its whole list, a batch of one.

    The completed tail and tie-breaking both come from tables[0]'s list.
    """
    return rerank_batch(tables, [_int_id(query)], params, method)[0]
