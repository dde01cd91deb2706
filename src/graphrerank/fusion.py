"""Rank-level multi-feature fusion: union of per-feature graphs with
per-edge weight summation.

Weights are summed as-is; both weighting schemes already live on a
commensurate scale, so no per-feature normalization is applied. Optional
scalar multipliers are available for ablation and default to 1.
"""

from __future__ import annotations

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

    nodes = frozenset().union(*(g.nodes for g in graphs))
    edges = {}
    for g, s in zip(graphs, scales):
        for key, w in g.edges.items():
            edges[key] = edges.get(key, 0.0) + s * w
    edges = {key: w for key, w in edges.items() if w > 0}
    return ImageGraph(query, nodes, edges, directed)
