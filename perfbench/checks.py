"""Output checks and summary statistics, written independently of the program.

The N-S score is recomputed here from its definition (the query counts as
its own first result, plus its groupmates among the top three), so the
check does not rely on `evaluation.ns_score`.
"""

from __future__ import annotations

import hashlib


def order_problems(query, order, n, expected_len):
    """Reasons an order is invalid; empty when it is a valid ranked list."""
    problems = []
    if len(order) != expected_len:
        problems.append(f"length {len(order)} != {expected_len}")
    if len(set(order)) != len(order):
        problems.append("duplicate ids")
    if any(not 0 <= i < n for i in order):
        problems.append(f"id outside [0, {n})")
    if query in order:
        problems.append("contains its query")
    return problems


def ns_value(query, order, relevant):
    groupmates = set(relevant) - {query}
    return 1.0 + len(set(order[:3]) & groupmates)


def orders_digest(orders):
    """SHA-256 over `query:id,id,...` lines in query order."""
    h = hashlib.sha256()
    for q in sorted(orders):
        h.update(f"{q}:{','.join(map(str, orders[q]))}\n".encode())
    return h.hexdigest()


def _rank(n, pct):
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(-(-pct * n // 100), 1)


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n samples."""
    return n - _rank(n, pct)


def min_samples(pct, beyond=10):
    """Fewest samples that leave `beyond` of them above the pct-th percentile."""
    n = beyond
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


def percentile(values, pct):
    """Nearest-rank percentile, pct an integer in [1, 100]."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]
