"""Greedy maximum-local-weight expansion ranking.

Starting from S = {query}, repeatedly insert the candidate (a node the
current set points to) whose best edge from S has the largest weight; the
output order is the insertion order. A candidate's score is the MAX over its
incoming edges from S by default; a SUM variant is available for ablation.
Ties break by the candidate's position in the query's initial list, then by
ascending id. If the graph is exhausted early, the list is completed from
the initial ranking.

`build_graph` is the one build -> fuse path: it checks the rank tables,
builds one graph per table and fuses them when there are several. `rerank`
(and through it `evaluation.evaluate`) and the CLI `rerank` and `graph-dump`
commands all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion import fuse
from .graph import build_directed_graph, build_undirected_graph

__all__ = ["RankedList", "build_graph", "greedy_rank", "rerank"]


@dataclass(frozen=True)
class RankedList:
    """Output ordering for one query; the query never appears in its own order."""

    query: int
    order: tuple
    provenance: str = "initial"

    def __post_init__(self):
        order = tuple(int(x) for x in self.order)
        if self.query in order:
            raise ValueError("ranked list must not contain its own query")
        if len(set(order)) != len(order):
            raise ValueError("ranked list contains duplicates")
        object.__setattr__(self, "order", order)


def greedy_rank(graph, initial, target_len=None, score="max", provenance="rerank-single"):
    """Rank by greedy insertion over `graph`, completing from `initial`."""
    initial = [int(x) for x in initial]
    if target_len is None:
        target_len = len(initial)
    if not 0 <= target_len <= len(initial):
        raise ValueError(f"target_len {target_len} out of range [0, {len(initial)}]")
    if score not in ("max", "sum"):
        raise ValueError("score must be 'max' or 'sum'")
    q = graph.query
    if q not in graph.nodes:
        raise ValueError("query missing from graph")

    out = {}
    for (src, dst), w in graph.edges.items():
        out.setdefault(src, []).append((dst, w))
        if not graph.directed:
            out.setdefault(dst, []).append((src, w))

    init_pos = {img: p for p, img in enumerate(initial)}
    missing = len(initial)
    chosen = {q}
    order = []
    scores = {}

    def relax(i):
        for dst, w in out.get(i, ()):
            if dst in chosen:
                continue
            if score == "max":
                scores[dst] = max(scores.get(dst, 0.0), w)
            else:
                scores[dst] = scores.get(dst, 0.0) + w

    relax(q)
    while scores and len(order) < target_len:
        best = min(scores, key=lambda c: (-scores[c], init_pos.get(c, missing), c))
        del scores[best]
        chosen.add(best)
        order.append(best)
        relax(best)

    for img in initial:
        if len(order) >= target_len:
            break
        if img not in chosen:
            chosen.add(img)
            order.append(img)
    return RankedList(q, tuple(order), provenance)


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


def rerank(tables, query, params, method="directed", score="max"):
    """Greedy-rank `build_graph`'s graph for one query.

    The completed tail and tie-breaking both come from tables[0]'s list.
    """
    tables = list(tables)
    graph = build_graph(tables, query, params, method)
    provenance = "rerank-fused" if len(tables) > 1 else "rerank-single"
    return greedy_rank(graph, tables[0].lists[query], score=score, provenance=provenance)


def ranked_lists_to_text(lists, header=None):
    """Ranked-list file: optional `#` header comment, then rank-table-shaped lines."""
    out = []
    if header:
        out.append(f"# {header}")
    for rl in lists:
        out.append(f"{rl.query}: " + " ".join(str(i) for i in rl.order))
    return "".join(line + "\n" for line in out)
