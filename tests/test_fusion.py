import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphrerank.fusion import fuse
from graphrerank.graph import GraphParams
from graphrerank.ranking import build_graph

from conftest import graph_of


def random_graph(rng, directed=True, query=0):
    n = int(rng.integers(2, 10))
    nodes = frozenset(range(n))
    edges = {}
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() > 0.4:
                continue
            if directed:
                edges[(i, j)] = float(rng.random()) + 1e-9
            elif i < j:
                edges[(i, j)] = float(rng.random()) + 1e-9
    return graph_of(query, nodes, edges, directed)


def graphs_same(a, b):
    return (
        a.query == b.query
        and a.nodes == b.nodes
        and a.directed == b.directed
        and set(a.edges) == set(b.edges)
        and all(abs(a.edges[e] - b.edges[e]) < 1e-12 for e in a.edges)
    )


class TestFuseBasics:
    def test_singleton_identity(self):
        g = random_graph(np.random.default_rng(0))
        assert graphs_same(fuse([g]), g)

    def test_additive_identity_with_empty_graph(self):
        g = random_graph(np.random.default_rng(1))
        empty = graph_of(g.query, frozenset({g.query}), {}, g.directed)
        assert graphs_same(fuse([g, empty]), g)

    def test_two_graph_fixture(self):
        nodes = frozenset({0, 1, 2})
        a = graph_of(0, nodes, {(0, 1): 0.2, (0, 2): 0.7}, True)
        b = graph_of(0, nodes, {(0, 1): 0.3, (1, 2): 0.4}, True)
        fused = fuse([a, b])
        assert fused.edges[(0, 1)] == pytest.approx(0.5)
        assert fused.edges[(0, 2)] == pytest.approx(0.7)
        assert fused.edges[(1, 2)] == pytest.approx(0.4)

    def test_mixed_query_rejected(self):
        a = graph_of(0, frozenset({0, 1}), {(0, 1): 0.1}, True)
        b = graph_of(1, frozenset({0, 1}), {(1, 0): 0.1}, True)
        with pytest.raises(ValueError, match="query"):
            fuse([a, b])

    def test_mixed_directedness_rejected(self):
        a = graph_of(0, frozenset({0, 1}), {(0, 1): 0.1}, True)
        b = graph_of(0, frozenset({0, 1}), {(0, 1): 0.1}, False)
        with pytest.raises(ValueError, match="directed"):
            fuse([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fuse([])


class TestFuseProperties:
    """Commutativity, associativity and monotonicity are criterion 7's, in test_acceptance.py."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_edge_union_exactness(self, seed):
        rng = np.random.default_rng(seed)
        gs = [random_graph(rng) for _ in range(int(rng.integers(1, 4)))]
        fused = fuse(gs)
        assert set(fused.edges) == set().union(*(set(g.edges) for g in gs))
        assert fused.nodes == frozenset().union(*(g.nodes for g in gs))
        total = sum(len(g.edges) for g in gs)
        assert len(fused.edges) <= total
        disjoint = total == len(set().union(*(set(g.edges) for g in gs)))
        assert (len(fused.edges) == total) == disjoint

    def test_per_graph_decay_not_recomputed(self, structure_fixture_table):
        # fusing a graph with itself doubles every weight; depths stay per-input
        g = build_graph([structure_fixture_table], 1, GraphParams(k=5))
        fused = fuse([g, g])
        for key, w in g.edges.items():
            assert fused.edges[key] == pytest.approx(2 * w)
