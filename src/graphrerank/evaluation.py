"""Retrieval-quality metrics and experiment drivers.

Conventions: average precision excludes the query from its own list and
from the relevant count (Holidays protocol); the N-S score counts the query
as its own first result, so the maximum is 4 with groups of four (UKBench
protocol).

The N-S score reads only the first `NS_DEPTH` ids of a list, so
`evaluate(metric="ns")` scores the baseline on that prefix of tables[0]'s
lists and reranks with `target_len=NS_DEPTH`; greedy ranking is
prefix-consistent, so the scores equal those of the full lists. Average
precision reads the whole list, and `metric="map"` ranks it in full.
`ranking` states which path ranks a prefix and which a whole list.

`evaluate` and `sweep_k` rerank by greedy max-weight expansion through
`ranking`'s one chunk loop; `GraphParams` and `method` are the only ranking
settings they take. `evaluate` scores the checked id array of each chunk
the loop yields, and the baseline from the same rows of tables[0]'s lists,
without making a `RankedList`; it holds only one chunk's ids at a time.
N-S is `1.0 + len(relevant & row)`, the query never being in a row. AP
gathers the chunk's relevance flags as one boolean array and adds each
row's `hits / rank` terms in rank order, one Python float at a time, so
the values equal those of the one-list functions bit for bit. A relevant
id outside the corpus counts in the relevant total and is never hit.
`ns_score` and `average_precision` score one `RankedList`; they are the
oracles the array scoring is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ranking import _ranked_chunks

NS_DEPTH = 3  # results after the query that the N-S score reads

__all__ = [
    "NS_DEPTH",
    "MetricReport",
    "average_precision",
    "ns_score",
    "evaluate",
    "sweep_k",
    "reports_to_tsv",
    "per_query_tsv",
]


@dataclass(frozen=True)
class MetricReport:
    metric: str
    method: str
    k: int
    alpha0: float
    depth: int
    per_query: dict

    @property
    def aggregate(self):
        if not self.per_query:
            raise ValueError("empty report has no aggregate")
        return sum(self.per_query.values()) / len(self.per_query)


def average_precision(ranked, relevant):
    """AP over the query-excluded list; the query never counts as relevant."""
    rel = set(int(r) for r in relevant) - {ranked.query}
    if not rel:
        raise ValueError("no relevant images besides the query itself")
    hits = 0
    total = 0.0
    for p, img in enumerate(ranked.order, start=1):
        if img in rel:
            hits += 1
            total += hits / p
    return total / len(rel)


def ns_score(ranked, query, relevant):
    """Relevant count among the query plus its top three results; in [0, 4]."""
    groupmates = set(map(int, relevant))
    groupmates.discard(int(query))
    return 1.0 + len(groupmates.intersection(ranked.order[:NS_DEPTH]))


def _ns_values(queries, orders, relevant):
    """`ns_score` of each row of `orders` against its query's relevant set."""
    rows = orders[:, :NS_DEPTH].tolist()
    return [1.0 + len(relevant[q].intersection(row)) for q, row in zip(queries, rows)]


def _ap_values(orders, hit, sizes):
    """`average_precision` of each row of `orders` from its (B, n) relevance flags `hit`."""
    found = hit[np.arange(len(orders))[:, None], orders]
    ranks = (np.nonzero(found)[1] + 1).tolist()  # row by row, each row's in rank order
    ends = np.cumsum(np.count_nonzero(found, axis=1)).tolist()
    values, start = [], 0
    for end, size in zip(ends, sizes):
        total = 0.0
        for hits, p in enumerate(ranks[start:end], start=1):
            total += hits / p
        values.append(total / size)
        start = end
    return values


def _relevance(queries, relevant, n):
    """Each query's relevant ids but itself: (B, n) flags of those in [0, n), and their counts."""
    hit = np.zeros((len(queries), n), dtype=bool)
    sizes = []
    for row, q in zip(hit, queries):
        rel = relevant[q] - {q}
        if not rel:
            raise ValueError("no relevant images besides the query itself")
        row[[i for i in rel if i < n]] = True
        sizes.append(len(rel))
    return hit, sizes


def evaluate(tables, ground_truth, params, method="directed", metric="ns"):
    """Score every ground-truth query; returns (baseline, reranked) reports.

    The baseline report scores tables[0]'s raw orderings without reranking.
    Both are ranked only as deep as the metric reads.
    """
    if metric not in ("ns", "map"):
        raise ValueError("metric must be 'ns' or 'map'")
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one rank table")
    queries = ground_truth.queries
    relevant = ground_truth.relevant
    n = tables[0].n
    length = min(NS_DEPTH, n - 1) if metric == "ns" else None

    rr_vals, base_vals = [], []
    for chunk, orders in _ranked_chunks(tables, queries, params, method, length):
        baseline = tables[0].lists[chunk, :length]
        chunk = chunk.tolist()
        if metric == "ns":
            rr_vals += _ns_values(chunk, orders, relevant)
            base_vals += _ns_values(chunk, baseline, relevant)
        else:
            hit, sizes = _relevance(chunk, relevant, n)
            rr_vals += _ap_values(orders, hit, sizes)
            base_vals += _ap_values(baseline, hit, sizes)
    fused = "-fused" if len(tables) > 1 else ""
    common = dict(metric=metric, k=params.k, alpha0=params.alpha0, depth=params.depth)
    baseline = MetricReport(method="baseline", per_query=dict(zip(queries, base_vals)), **common)
    reranked = MetricReport(
        method=f"rerank-{method}{fused}", per_query=dict(zip(queries, rr_vals)), **common
    )
    return baseline, reranked


def sweep_k(tables, ground_truth, params, k_values, method="directed", metric="ns"):
    """One reranked MetricReport per k, for plot-ready TSV emission."""
    tables, k_values = list(tables), list(k_values)
    if not tables:
        raise ValueError("need at least one rank table")
    for k in k_values:
        tables[0].truncated(k)  # a bad k fails before any evaluation
    reports = []
    for k in k_values:
        _, reranked = evaluate(
            tables, ground_truth, replace(params, k=k), method=method, metric=metric
        )
        reports.append(reranked)
    return reports


def reports_to_tsv(reports):
    lines = ["metric\tmethod\tk\talpha0\tdepth\tvalue"]
    for r in reports:
        lines.append(
            f"{r.metric}\t{r.method}\t{r.k}\t{r.alpha0:g}\t{r.depth}\t{r.aggregate:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def per_query_tsv(report):
    lines = ["query\tvalue"]
    for q in sorted(report.per_query):
        lines.append(f"{q}\t{report.per_query[q]:.6f}")
    return "".join(line + "\n" for line in lines)
