"""Rank-level multi-feature fusion: union of per-feature graphs with
per-edge weight summation.

Weights are summed as-is; both weighting schemes already live on a
commensurate scale, so no per-feature normalization is applied.

Each fused weight is the running sum 0.0 + w1 + w2 + ... taken in
table order, so it does not depend on how the edges are laid out. Every
input weight is positive, so every sum is too and no edge is dropped.
"""

from __future__ import annotations

import numpy as np

from .graph import ImageGraph

__all__ = ["fuse"]


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

    # sorted ids keep the (min, max) orientation of undirected edges
    ids = np.unique(np.concatenate([g.ids for g in graphs]))
    v = len(ids)
    keys = []
    for g in graphs:
        local = np.searchsorted(ids, g.ids)
        keys.append(local[g.src] * v + local[g.dst])
    keys, which = np.unique(np.concatenate(keys), return_inverse=True)
    weights = np.concatenate([g.weight for g in graphs])
    # bincount adds each key's weights one at a time in input (table) order
    weight = np.bincount(which, weights=weights, minlength=len(keys))
    return ImageGraph(query, ids, keys // v, keys % v, weight, directed)
