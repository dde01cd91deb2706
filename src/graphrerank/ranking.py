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
array program and yields each chunk's queries with their lists as one
(B, L) int64 id array, which `_check_orders` checks once in the loop.
`RankedList`s are made only by callers that return lists, from rows
already checked: `rerank_batch` wraps every chunk's rows (`rerank` is a
batch of one) and `greedy_rank` its one row. `evaluation.evaluate` scores
the arrays and the CLI `rerank` command writes them, one chunk at a time.

The T tables of a call are one stacked corpus of T * n nodes, built once
per call (`graph._stack`), and a chunk's keys are `b * T * n + t * n + id`
(see `graph`). So each chunk runs one BFS (`graph._depths`) and gathers
its edges with one `graph._out_edges` call (one per lockstep step),
whatever T is. Query b's graph holds image id, as node b * n + id, when
some table reaches it. A fused weight is the sum of the tables'
weights of one edge a -> b, and both paths take it by one rule: the
edges come query by query, and the edges of one pair a -> b table by
table, and `np.add.at`, which adds one at a time in that order, adds them
into a zeroed buffer. Each fused weight is thus 0.0 + w1 + w2 + ... in
table order, equal bit for bit to `fusion`'s sum.

The shape of the request picks the path; both give the same lists:

- A whole list (`target_len` = n - 1, the default; `rerank`, the CLI
  `rerank` command and `metric="map"`) is ranked from the full graphs
  (`_rank_chunk`), and no fused edge list is built. The nodes are every
  (query, id) some table reaches; every reached key's out-edges come from
  one call, node by node and each node's tables in order (an undirected
  pair from both ends); one sort lays the nodes out in tie order (by query
  slot, then by position in the slot's tables[0] list, where the query's
  own position is 0). Then each graph in turn fills one V x V float64
  matrix W with its edges a -> b at cells a * V + b, and `_prim` runs
  three vector ops per pick over the graph's V nodes: the capped scores'
  `argmax` (inserted nodes capped at -inf), `cap[best] = -inf` and
  `np.maximum(scores, W[best])`. Only one graph's matrix is held at a
  time: 8 V^2 bytes with V <= n, about 80 KB at V = 100 (n = 2 000,
  k = 10) and 9 MB at V = 1 050 (k = 60).
- Memory bound: a chunk whose largest graph's matrix would exceed
  `_MATRIX_BYTES` = 512 MiB (V > 8 192) is ranked by the lockstep below
  with `target_len` = n - 1 instead, in O(B * T * n) memory. At the
  default depth 2 a graph of T tables holds at most T (1 + k + k^2)
  nodes, 7 322 for two tables at k = 60, so no two-table graph at
  k <= 60 crosses the bound, whatever n is. A graph of all 20 000 images,
  which would need 3.2 GB, is ranked by the lockstep, which takes a step
  per pick over (B, n) arrays and is far slower.
- A prefix (`target_len` < n - 1, such as the 3 ids N-S reads) is ranked
  by lockstep expansion (`_lazy_chunk`). Pick t depends only on the
  out-edges of the query and of picks 1 .. t-1, and an edge and its decay
  only on the BFS depths of its ends. So each of `target_len` steps
  gathers the out-edges of each query's newest node in every table and
  keeps the best edge into each node in a dense (batch, n) score array:
  it saves the scores of the cells the step's edges reach, sets those
  cells to 0.0, sums the edges into them per (query, node) by the rule
  above, and takes the `np.maximum` of each sum and the saved score. The
  score array's columns are positions in the query's tables[0] list,
  column 0 the query, so a row's `argmax` is the tie-break. A query whose
  row holds no candidate is done; its list is completed from its initial
  list, as from a full graph.

Whole lists stay on the full graphs and prefixes on the lockstep: README's
performance section has the measurements behind this rule.

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
from .graph import ImageGraph, _decays, _depths, _graph_arrays, _out_edges, _stack

__all__ = ["CHUNK", "RankedList", "build_graph", "greedy_rank", "rerank", "rerank_batch"]

CHUNK = 64  # queries ranked as one batch; bounds the batch's (CHUNK * n) key index
_MATRIX_BYTES = 512 * 2**20  # a chunk with a larger whole-list weight matrix ranks by lockstep


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


def _rank_graphs(queries, initials, slot, ids, tie, edges, target_len):
    """Greedy-rank a batch of graphs, completing each list from its initial list.

    Node a is image `ids[a]` of graph s = `slot[a]`, whose query
    `queries[s]` is not in its initial list `initials[s]`. `tie[a]` is 0
    for the query, 1 + its position for a listed node and a distinct
    larger value for any other node, so one sort by (slot, tie) lays each
    graph out in tie order, and completion skips a picked node's position
    `tie - 1` (none, for an unlisted node). `edges` is (src, dst, weight)
    over the nodes, graph by graph in slot order and the edges of one pair
    a -> b table by table (an undirected pair from both ends). Returns the (B, `target_len`)
    int64 id array, one row per graph.
    """
    layout = np.lexsort((tie, slot))
    graphs = np.arange(len(queries) + 1)
    bounds = np.searchsorted(slot[layout], graphs)
    size = np.diff(bounds)
    # node a's row and column in its graph's matrix
    local = np.empty(len(layout), dtype=np.intp)
    local[layout] = np.arange(len(layout)) - bounds[slot[layout]]
    src, dst, weight = edges
    # edge a -> b is cell a * V + b of its graph's flat V x V matrix
    cell = local[src] * size[slot[src]] + local[dst]
    cut = np.searchsorted(slot[src], graphs).tolist()
    ids, tie, bounds = ids[layout], tie[layout], bounds.tolist()
    orders = np.empty((len(queries), target_len), dtype=np.int64)
    for s, (order, initial) in enumerate(zip(orders, initials)):
        lo, hi = bounds[s], bounds[s + 1]
        # np.add.at adds the graph's weights one at a time, table by table:
        # 0.0 + w1 + w2 + ..., as `fusion` sums
        weights = np.zeros((hi - lo) ** 2)
        np.add.at(weights, cell[cut[s]:cut[s + 1]], weight[cut[s]:cut[s + 1]])
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
        (src, dst, weight), target_len,
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


def _rank_chunk(table, rows, queries, params, directed):
    """Every query's whole list as a row of ids, ranked from the full graphs.

    `table` is tables[0] and `rows` every table's stacked rows
    (`graph._stack`). A chunk whose largest graph's matrix would exceed
    `_MATRIX_BYTES` is ranked by `_lazy_chunk` instead.
    """
    n, size = table.n, len(rows.top)
    depth = _depths(rows, n, queries, params, directed)
    # the nodes: every id some table reaches, node b * n + id, in node order
    keys = np.flatnonzero((depth.reshape(len(queries), -1, n) >= 0).any(axis=1))
    slot, ids = np.divmod(keys, n)
    # a graph's matrix takes 8 V^2 bytes, and no graph holds more than all len(keys) nodes
    if 8 * len(keys) ** 2 > _MATRIX_BYTES and 8 * int(np.bincount(slot).max()) ** 2 > _MATRIX_BYTES:
        return _lazy_chunk(table, rows, queries, params, directed, n - 1)
    # node b * n + id is key b * T * n + t * n + id in table t: every node's
    # reached keys, node by node and each node's table by table, so each
    # edge a -> b comes table by table
    cells = np.add.outer(slot * size + ids, np.arange(0, size, n))
    sources = cells[depth[cells] >= 0]
    index = np.empty(len(depth), dtype=np.intp)  # every key's node
    index[cells] = np.arange(len(keys))[:, None]
    src, dst, weight = _out_edges(rows, depth, _decays(params, n), sources, directed)
    src, dst = index[sources[src]], index[dst]
    # tie order: query (its own position is 0), then position in tables[0]'s list
    tie = table.positions[queries[slot], ids]
    initials = [table.lists[q] for q in queries.tolist()]
    return _rank_graphs(queries, initials, slot, ids, tie, (src, dst, weight), n - 1)


def _lazy_chunk(table, rows, queries, params, directed, target_len):
    """The first `target_len` ids of `_rank_chunk`'s lists, by lockstep expansion.

    `table` is tables[0] and `rows` every table's stacked rows
    (`graph._stack`).
    """
    n, size, pos0, lists0 = table.n, len(rows.top), table.positions, table.lists
    depth = _depths(rows, n, queries, params, directed)
    decays = _decays(params, n)
    offsets = np.arange(0, size, n)  # each table's first key in a query's block
    # scores[b, c]: the best edge from query b's set into the id at position
    # c of its tables[0] list, -inf once inserted (column 0 is the query)
    scores = np.zeros((len(queries), n))
    scores[:, 0] = -np.inf
    flat = scores.ravel()  # the same cells, b * n + c
    picks = np.zeros((len(queries), target_len), dtype=np.int64)
    live = np.arange(len(queries))
    newest = queries
    for step in range(target_len):
        # the newest node in every table; outside one table's graph it has no out-edges there
        sources = ((live * size + newest)[:, None] + offsets).ravel()
        _, dst, weight = _out_edges(rows, depth, decays, sources[depth[sources] >= 0], directed)
        slot = dst // size
        # each edge's flat cell in `scores`: its query's row, its end's column
        cell = slot * n + pos0[queries[slot], dst % n]
        # the step's cells, zeroed, hold its fused weights: the edges come
        # query by query, each query's table by table, and np.add.at adds
        # them one at a time, 0.0 + w1 + w2 + ..., as `fusion` sums; a cell
        # two tables reach is read and written twice, the same values
        best = flat[cell]
        flat[cell] = 0.0
        np.add.at(flat, cell, weight)
        flat[cell] = np.where(best < 0, best, np.maximum(best, flat[cell]))
        col = scores.argmax(axis=1)
        # a query with no candidate left gains no edges, so it stays done
        live = live[scores[live, col[live]] > 0]
        if not live.size:
            break
        col = col[live]
        scores[live, col] = -np.inf
        picks[live, step] = col
        newest = lists0[queries[live], col - 1]
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
    rows = _stack(tables, params.k, jaccard=not directed)  # checks k; every table covers n

    def chunks():
        for start in range(0, len(queries), CHUNK):
            chunk = queries[start:start + CHUNK]
            if target_len < length:
                orders = _lazy_chunk(tables[0], rows, chunk, params, directed, target_len)
            else:
                orders = _rank_chunk(tables[0], rows, chunk, params, directed)
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
