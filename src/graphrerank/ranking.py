"""Greedy maximum-local-weight expansion ranking.

Starting from S = {query}, repeatedly insert the candidate (a node the
current set points to) whose best edge from S has the largest weight; the
output order is the insertion order. A candidate's score is the MAX over its
incoming edges from S, the one scoring rule. Ties break by the candidate's
position in the query's initial list, then by ascending id. If the graph is
exhausted early, the list is completed from the initial ranking.

Greedy insertion is prefix-consistent: each pick depends only on the picks
before it, so `greedy_rank(g, init, target_len=t).order` equals the first
t ids of the full order `greedy_rank(g, init).order`. `target_len` (and
`rerank`'s, which is passed on) therefore stops the expansion where a
caller stops reading; `evaluation.evaluate` asks for the N-S depth only.

`greedy_rank` lays the graph's nodes out in tie order (query first, then by
initial-list position, nodes absent from the list after all present ones,
then by id), so `np.argmax`, which returns the first of equal maxima, picks
the documented tie-break. Scores are a running `np.maximum`, compared
exactly.

`build_graph` is the one build -> fuse path: it checks the rank tables,
builds one graph per table and fuses them when there are several. `rerank`
(and through it `evaluation.evaluate`) and the CLI `rerank` and `graph-dump`
commands all go through it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .corpus_io import _int_ids
from .fusion import fuse
from .graph import build_directed_graph, build_undirected_graph

__all__ = ["RankedList", "build_graph", "greedy_rank", "rerank"]


@dataclass(frozen=True)
class RankedList:
    """Output ordering for one query over integer ids; the query never appears in it."""

    query: int
    order: tuple

    def __post_init__(self):
        operator.index(self.query)
        order = _int_ids(self.order)
        if order.ndim != 1:
            raise ValueError("ranked list must be one-dimensional")
        if (order == self.query).any():
            raise ValueError("ranked list must not contain its own query")
        ids = np.sort(order)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("ranked list contains duplicates")
        object.__setattr__(self, "order", tuple(order.tolist()))


def greedy_rank(graph, initial, target_len=None):
    """Rank by greedy insertion over `graph`, completing from `initial`.

    `initial` is the query's initial ranking: distinct non-negative ids of
    an integer dtype.
    """
    initial = _int_ids(initial)
    target_len = len(initial) if target_len is None else operator.index(target_len)
    if not 0 <= target_len <= len(initial):
        raise ValueError(f"target_len {target_len} out of range [0, {len(initial)}]")
    q = graph.query
    ids = graph.ids
    if ids.min() < 0 or initial.min(initial=0) < 0:
        raise ValueError("image ids must be non-negative")

    # tie order: query, then initial-list position (absent: len(initial)), then id
    v = len(ids)
    init_pos = np.full(max(int(ids.max()), int(initial.max(initial=-1))) + 1, len(initial))
    init_pos[initial] = np.arange(len(initial))
    tie_pos = init_pos[ids]
    tie_pos[ids == q] = -1
    layout = np.lexsort((ids, tie_pos))
    ids = ids[layout]
    at = np.empty(v, dtype=np.int64)
    at[layout] = np.arange(v)

    # out-edges in CSR form over the tie-ordered nodes
    src, dst, weight = at[graph.src], at[graph.dst], graph.weight
    if not graph.directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weight = np.concatenate([weight, weight])
    by_src = np.argsort(src, kind="stable")
    dst, weight = dst[by_src], weight[by_src]
    start = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=v))]).tolist()

    # a candidate's score is > 0 and any other node's 0; capping inserted
    # nodes at -inf (the rest at +inf) keeps them out of the argmax
    scores = np.zeros(v)
    cap = np.full(v, np.inf)
    cap[0] = -np.inf
    capped = np.empty(v)
    picked = []
    best = 0
    while True:
        nbrs = dst[start[best]:start[best + 1]]
        w = weight[start[best]:start[best + 1]]
        scores[nbrs] = np.maximum(scores[nbrs], w)
        if len(picked) >= target_len:
            break
        best = int(np.minimum(scores, cap, out=capped).argmax())
        if capped[best] <= 0:
            break
        cap[best] = -np.inf
        picked.append(best)

    ranked = ids[picked]
    placed = np.zeros(len(init_pos), dtype=bool)
    placed[ranked] = True
    placed[q] = True
    rest = initial[~placed[initial]][: target_len - len(ranked)]
    return RankedList(q, np.concatenate([ranked, rest]))


def build_graph(tables, query, params, method="directed"):
    """One graph per rank table, fused by per-edge weight sum when several."""
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one rank table")
    n = tables[0].n
    if any(t.n != n for t in tables):
        raise ValueError("all rank tables must cover the same corpus")
    if method == "directed":
        build = build_directed_graph
    elif method == "undirected":
        build = build_undirected_graph
    else:
        raise ValueError(f"unknown method {method!r}")
    graphs = [build(t, query, params) for t in tables]
    return graphs[0] if len(graphs) == 1 else fuse(graphs)


def rerank(tables, query, params, method="directed", target_len=None):
    """Greedy-rank `build_graph`'s graph for one query.

    The completed tail and tie-breaking both come from tables[0]'s list.
    `target_len` (default: the whole list) is passed on to `greedy_rank`.
    """
    tables = list(tables)
    graph = build_graph(tables, query, params, method)
    return greedy_rank(graph, tables[0].lists[query], target_len)
