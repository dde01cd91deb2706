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
each chunk's lists. `rerank_batch` collects them (`rerank` is a batch of
one); `evaluation.evaluate` and the CLI `rerank` command hold one chunk at
a time. The shape of the request picks the path; both give the same lists:

- A whole list (`target_len` = n - 1, the default; `rerank`, the CLI
  `rerank` command and `metric="map"`) is ranked from the full graphs
  (`_rank_chunk`): one BFS, one weighting step and one fusion build every
  query's whole graph, then one tie-order layout (a sort by query slot,
  then by position in the slot's tables[0] list, where the query's own
  position is 0) and one out-edge index. Only the greedy expansion runs
  per query, over that query's segment of the layout.
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
n = 2 000, k = 10, two tables, microseconds per query, full graphs ->
lockstep. A 3-id prefix in 64-query chunks: 76 -> 15 directed, 52 -> 19
undirected. Whole lists in 64-query chunks: 353 -> 358 directed (1.01x),
197 -> 295 undirected (1.50x). One whole list: 524 -> 5 988 directed.
Directed whole lists in chunks read about even between the two paths;
the undirected and single-query cases keep whole lists on the full graphs.

A list ranked from rank tables holds shared ints: `_id_objects(n)` is the
ids 0 .. n - 1 as one read-only array of Python ints, built once for the
corpus in use, and `RankedList._batch` picks each list's ids from it. So
a list costs its n - 1 tuple slots (16 KB at n = 2 000), not a new int
object per id above 256 (≈ 80 KB in all), whatever number of lists a
caller keeps. `greedy_rank` takes any non-negative ids, so its one list
converts its own; no array is sized by an id beyond n.

Queries, method, `target_len` and k are checked once, where they enter
(`_ranked_chunks`, before its first chunk is ranked, and `build_graph`),
`RankedList`'s rules once per batch, and the graphs a batch builds are
not re-checked. `greedy_rank` ranks one `ImageGraph` through the full
path's layout, expansion and completion (`_rank_graphs`).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .corpus_io import _int_ids
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
    ids = np.sort(orders, axis=1)
    if np.count_nonzero(ids[:, 1:] == ids[:, :-1]):
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
        operator.index(self.query)
        order = _int_ids(self.order)
        if order.ndim != 1:
            raise ValueError("ranked list must be one-dimensional")
        _check_orders(np.array([self.query]), order[None, :])
        object.__setattr__(self, "order", tuple(order.tolist()))

    @classmethod
    def _batch(cls, queries, orders, n=None):
        """One RankedList per row of the integer (B, L) `orders`, checked once for all rows.

        With the corpus size `n`, every id is `_id_objects(n)`'s shared int.
        """
        _check_orders(queries, orders)
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


def _expand(layout, sizes, src, dst, weight, directed, target_len):
    """Greedy insertion in every graph of a batch; returns each one's picked nodes.

    `layout` lists the batch's nodes graph by graph, each graph's in tie
    order with its query first; graph s holds the next `sizes[s]` of them.
    Edges index the nodes, undirected ones are stored once. Returns, per
    graph, the indices of at most `target_len` nodes in insertion order.
    """
    v = len(layout)
    at = np.empty(v, dtype=np.int64)
    at[layout] = np.arange(v)
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weight = np.concatenate([weight, weight])
    # out-edges grouped by source, the laid-out node a's in first[a]:last[a];
    # the stable sort is one pass over edges already grouped by source, as
    # the builders and fusion leave them
    by_src = np.argsort(src, kind="stable")
    dst, weight = at[dst[by_src]], weight[by_src]
    degree = np.bincount(src, minlength=v)
    end = np.cumsum(degree)
    first, last = (end - degree)[layout].tolist(), end[layout].tolist()

    # a candidate's score is > 0 and any other node's 0; capping inserted
    # nodes at -inf (the rest at +inf) keeps them out of the argmax
    scores = np.zeros(v)
    cap = np.full(v, np.inf)
    capped = np.empty(v)
    picks = []
    lo = 0
    for size in sizes:
        hi = lo + size
        cap[lo] = -np.inf
        seg_scores, seg_cap, seg_capped = scores[lo:hi], cap[lo:hi], capped[lo:hi]
        picked = []
        best = lo
        while True:
            nbrs = dst[first[best]:last[best]]
            scores[nbrs] = np.maximum(scores[nbrs], weight[first[best]:last[best]])
            if len(picked) >= target_len:
                break
            best = int(np.minimum(seg_scores, seg_cap, out=seg_capped).argmax())
            if seg_capped[best] <= 0:
                break
            seg_cap[best] = -np.inf
            best += lo
            picked.append(best)
        picks.append(layout[picked])
        lo = hi
    return picks


def _complete(initial, skip, need):
    """The first `need` ids of `initial` whose positions are not in `skip`."""
    head = initial[: need + len(skip)]
    keep = np.ones(len(head), dtype=bool)
    keep[skip[skip < len(head)]] = False
    return head[keep][:need]


def _rank_graphs(queries, initials, slot, ids, tie, src, dst, weight, directed, target_len, n=None):
    """Greedy-rank a batch of graphs, completing each list from its initial list.

    Node a is image `ids[a]` of graph s = `slot[a]`, whose query
    `queries[s]` is not in its initial list `initials[s]`. `tie[a]` is 0
    for the query, 1 + its position for a listed node and a distinct
    larger value for any other node, so one sort by (slot, tie) lays each
    graph out in tie order, and completion skips a picked node's position
    `tie - 1` (none, for an unlisted node). `n` is as in `RankedList._batch`.
    """
    layout = np.lexsort((tie, slot))
    sizes = np.bincount(slot, minlength=len(queries)).tolist()
    picks = _expand(layout, sizes, src, dst, weight, directed, target_len)
    orders = np.empty((len(queries), target_len), dtype=np.int64)
    for order, initial, picked in zip(orders, initials, picks):
        order[: len(picked)] = ids[picked]
        if len(picked) < target_len:
            order[len(picked):] = _complete(initial, tie[picked] - 1, target_len - len(picked))
    return RankedList._batch(queries, orders, n)


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
    return _rank_graphs(
        np.array([q]), [initial], np.zeros(len(ids), dtype=np.int64), ids, tie,
        graph.src, graph.dst, graph.weight, graph.directed, target_len,
    )[0]


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


def _graphs(tables, queries, params, directed):
    """Each query's graph, one per table and fused when several, as flat arrays."""
    parts = [_graph_arrays(t, queries, params, directed) for t in tables]
    return parts[0] if len(parts) == 1 else _fuse_arrays(parts)


def build_graph(tables, query, params, method="directed"):
    """One graph per rank table, fused by per-edge weight sum when several."""
    tables, queries, directed = _checked(tables, [operator.index(query)], method)
    return ImageGraph(queries[0], *_graphs(tables, queries, params, directed), directed)


def _rank_chunk(tables, queries, params, directed):
    """`rerank` for every query of one batch: whole lists, from the full graphs."""
    keys, src, dst, weight = _graphs(tables, queries, params, directed)
    slot, ids = np.divmod(keys, tables[0].n)
    # tie order: query (its own position is 0), then position in tables[0]'s list
    tie = tables[0].positions[queries[slot], ids]
    initials = [tables[0].lists[q] for q in queries.tolist()]
    n = tables[0].n
    return _rank_graphs(queries, initials, slot, ids, tie, src, dst, weight, directed, n - 1, n)


def _lazy_chunk(tables, queries, params, directed, target_len):
    """The first `target_len` ids of `_rank_chunk`'s lists, by lockstep expansion."""
    n, pos0, lists0 = tables[0].n, tables[0].positions, tables[0].lists
    depths = [_depths(t, queries, params, directed)[0] for t in tables]
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
    return RankedList._batch(queries, orders, n)


def _ranked_chunks(tables, queries, params, method, target_len):
    """Each `CHUNK` of `queries` with its RankedLists; every input is checked before one is ranked."""
    tables, queries, directed = _checked(tables, queries, method)
    length = tables[0].n - 1
    target_len = length if target_len is None else operator.index(target_len)
    if not 0 <= target_len <= length:
        raise ValueError(f"target_len {target_len} out of range [0, {length}]")
    tables[0].truncated(params.k)  # every table covers the same n
    chunks = (queries[start:start + CHUNK] for start in range(0, len(queries), CHUNK))
    if target_len < length:
        return ((c, _lazy_chunk(tables, c, params, directed, target_len)) for c in chunks)
    return ((c, _rank_chunk(tables, c, params, directed)) for c in chunks)


def rerank_batch(tables, queries, params, method="directed", target_len=None):
    """`rerank` for each of `queries`, ranked `CHUNK` queries at a time.

    `target_len` (default: the whole list) keeps each list's first ids; a
    prefix is ranked by lockstep expansion, a whole list from the full
    graphs. A query may repeat; each result depends only on its own query.
    """
    chunks = _ranked_chunks(tables, queries, params, method, target_len)
    return [r for _, ranked in chunks for r in ranked]


def rerank(tables, query, params, method="directed"):
    """Greedy-rank `build_graph`'s graph for one query: its whole list, a batch of one.

    The completed tail and tie-breaking both come from tables[0]'s list.
    """
    return rerank_batch(tables, [operator.index(query)], params, method)[0]
