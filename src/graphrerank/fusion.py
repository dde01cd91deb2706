"""Rank-level multi-feature fusion: union of per-feature graphs with
per-edge weight summation.

Weights are summed as-is; both weighting schemes already live on a
commensurate scale, so no per-feature normalization is applied.

Each fused weight is the running sum 0.0 + w1 + w2 + ... taken in
table order, so it does not depend on how the edges are laid out. Every
input weight is positive, so every sum is too and no edge is dropped.

`_fuse_arrays` fuses a whole batch of queries at once over the flat node
keys `b * n + id` of `graph._graph_arrays` (for one `ImageGraph` the keys
are its ids): the fused nodes are the sorted distinct keys, and an edge is
keyed by its (query, src, dst) through its fused endpoints. Both are
deduplicated by sorting: the nodes by `graph._sorted_unique` (see `graph`
for why not `np.unique`), the edges by `_sum_by_key`, which sums each
key's weights in input order. `ranking`'s lockstep expansion, which ranks
prefixes (see `ranking`), sums its edges per key with the same helper.
`fuse` is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .graph import ImageGraph, _sorted_unique

__all__ = ["fuse"]


def _fuse_arrays(parts):
    """Union of (keys, src, dst, weight) graphs; returns the same four arrays.

    The keys come out ascending, which keeps the (min, max) orientation of
    undirected edges, and the edges in (src, dst) order.
    """
    keys = _sorted_unique(np.concatenate([part[0] for part in parts]))
    v = len(keys)
    edge_keys = []
    for part_keys, src, dst, _ in parts:
        local = np.searchsorted(keys, part_keys)
        edge_keys.append(local[src] * v + local[dst])
    edge_keys, weight = _sum_by_key(
        np.concatenate(edge_keys), np.concatenate([part[3] for part in parts])
    )
    return keys, edge_keys // v, edge_keys % v, weight


def _sum_by_key(keys, weights):
    """Each distinct key, ascending, with the running sum 0.0 + w1 + w2 + ... of its `weights`."""
    # with return_inverse, np.unique sorts rather than hashes
    keys, which = np.unique(keys, return_inverse=True)
    # bincount adds each key's weights one at a time in input order
    return keys, np.bincount(which, weights=weights, minlength=len(keys))


def fuse(graphs):
    """Merge graphs for one query: node/edge union, per-edge weight sum."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph to fuse")
    query = graphs[0].query
    directed = graphs[0].directed
    for g in graphs[1:]:
        if g.query != query:
            raise ValueError("cannot fuse graphs with different query ids")
        if g.directed != directed:
            raise ValueError("cannot fuse directed with undirected graphs")
    arrays = _fuse_arrays([(g.ids, g.src, g.dst, g.weight) for g in graphs])
    return ImageGraph(query, *arrays, directed)
