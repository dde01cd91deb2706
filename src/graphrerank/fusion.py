"""Rank-level multi-feature fusion: union of per-feature graphs with
per-edge weight summation.

Weights are summed as-is; both weighting schemes already live on a
commensurate scale, so no per-feature normalization is applied. Optional
scalar multipliers are available for ablation and default to 1.

Each fused weight is the running sum 0.0 + s1 * w1 + s2 * w2 + ... taken in
table order, so it does not depend on how the edges are laid out. Edges
whose sum is not positive are dropped; their nodes stay.
"""

from __future__ import annotations

import numpy as np

from .graph import ImageGraph

__all__ = ["fuse"]


def fuse(graphs, scales=None):
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
    if scales is None:
        scales = [1.0] * len(graphs)
    if len(scales) != len(graphs):
        raise ValueError("need one scale per graph")
    if any(s < 0 for s in scales):
        raise ValueError("scales must be non-negative")

    # sorted ids keep the (min, max) orientation of undirected edges
    ids = np.unique(np.concatenate([g.ids for g in graphs]))
    v = len(ids)
    keys = []
    for g in graphs:
        local = np.searchsorted(ids, g.ids)
        keys.append(local[g.src] * v + local[g.dst])
    keys, which = np.unique(np.concatenate(keys), return_inverse=True)
    weights = np.concatenate([s * g.weight for g, s in zip(graphs, scales)])
    # bincount adds each key's weights one at a time in input (table) order
    weight = np.bincount(which, weights=weights, minlength=len(keys))
    keep = weight > 0
    keys = keys[keep]
    return ImageGraph.from_arrays(query, ids, keys // v, keys % v, weight[keep], directed)
