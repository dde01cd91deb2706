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
settings they take. `evaluate` scores each chunk of ranked lists the loop
yields, and holds only one chunk's lists at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ranking import RankedList, _ranked_chunks

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
    n = tables[0].n
    length = min(NS_DEPTH, n - 1) if metric == "ns" else None

    def value(ranked):
        rel = ground_truth.relevant[ranked.query]
        if metric == "ns":
            return ns_score(ranked, ranked.query, rel)
        return average_precision(ranked, rel)

    rr_vals, base_vals = [], []
    for chunk, ranked in _ranked_chunks(tables, queries, params, method, length):
        rr_vals += map(value, ranked)
        base_vals += map(value, RankedList._batch(chunk, tables[0].lists[chunk, :length], n))
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
