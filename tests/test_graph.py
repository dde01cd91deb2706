import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphrerank.corpus_io import FeatureMatrix, RankTable, _id_dtype
from graphrerank.features import build_rank_table
from graphrerank.graph import GraphParams, ImageGraph, _depths, _stack, graph_to_text
from graphrerank.ranking import build_graph

from conftest import (
    _inclusive_neighborhood,
    graph_of,
    jaccard_weight,
    random_rank_table,
    rank_of,
    rank_weight,
    reciprocal,
)


class TestNeighbors:
    def test_matches_brute_force_top_k(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 4))
        table = build_rank_table(FeatureMatrix(rows))
        for i in range(20):
            dists = sorted(
                (float(np.linalg.norm(rows[i] - rows[j])), j) for j in range(20) if j != i
            )
            assert table.lists[i, :5].tolist() == [j for _, j in dists[:5]]


class TestReciprocal:
    def test_structure_fixture_values(self, structure_fixture_table):
        assert reciprocal(structure_fixture_table, 1, 2, 5)
        assert not reciprocal(structure_fixture_table, 2, 3, 5)

    def test_self_rejected(self, structure_fixture_table):
        with pytest.raises(ValueError):
            reciprocal(structure_fixture_table, 1, 1, 5)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        table = random_rank_table(rng, n)
        k = int(rng.integers(1, n))
        for i in range(n):
            for j in range(i + 1, n):
                assert reciprocal(table, i, j, k) == reciprocal(table, j, i, k)


class TestRankOf:
    def test_top_and_last(self):
        table = random_rank_table(np.random.default_rng(2), 7)
        i = 3
        assert rank_of(table, i, int(table.lists[i, 0])) == 1
        assert rank_of(table, i, int(table.lists[i, -1])) == 6

    def test_self_rejected(self):
        table = random_rank_table(np.random.default_rng(2), 7)
        with pytest.raises(ValueError):
            rank_of(table, 3, 3)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_rank_multiset_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        table = random_rank_table(rng, n)
        for i in range(n):
            ranks = sorted(rank_of(table, i, j) for j in range(n) if j != i)
            assert ranks == list(range(1, n))


class TestJaccardWeight:
    def test_weight_fixture_k3(self, weight_fixture_table):
        assert jaccard_weight(weight_fixture_table, 1, 2, 3, 1.0) == 1.0
        assert jaccard_weight(weight_fixture_table, 1, 3, 3, 1.0) == 0.0

    def test_weight_fixture_k5(self, weight_fixture_table):
        w12 = jaccard_weight(weight_fixture_table, 1, 2, 5, 1.0)
        assert Fraction(w12).limit_denominator(10) == Fraction(2, 3)
        assert abs(w12 - 2 / 3) < 1e-12
        assert jaccard_weight(weight_fixture_table, 1, 3, 5, 1.0) == 1.0

    def test_equal_inclusive_neighborhoods_give_one(self, weight_fixture_table):
        t = weight_fixture_table
        assert _inclusive_neighborhood(t, 1, 5) == _inclusive_neighborhood(t, 3, 5)
        assert jaccard_weight(t, 1, 3, 5, 1.0) == 1.0

    def test_decay_scales_linearly(self, weight_fixture_table):
        full = jaccard_weight(weight_fixture_table, 1, 2, 5, 1.0)
        assert jaccard_weight(weight_fixture_table, 1, 2, 5, 0.8) == pytest.approx(0.8 * full)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        table = random_rank_table(rng, n)
        k = int(rng.integers(1, n))
        for i in range(n):
            for j in range(i + 1, n):
                assert jaccard_weight(table, i, j, k, 1.0) == jaccard_weight(
                    table, j, i, k, 1.0
                )


class TestRankWeight:
    def test_weight_fixture_values(self, weight_fixture_table):
        t = weight_fixture_table
        assert rank_weight(t, 1, 2, 3, 1.0) == 0.25
        assert rank_weight(t, 1, 2, 5, 1.0) == 0.25
        assert rank_weight(t, 1, 3, 5, 1.0) == 0.125
        assert rank_weight(t, 1, 3, 3, 1.0) == 0.0

    def test_mutual_top_pair_reaches_half(self):
        table = RankTable(np.array([[1, 2], [0, 2], [0, 1]]))
        assert rank_weight(table, 0, 1, 1, 1.0) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_k_stability(self, seed):
        # once i2 is inside the top-k, the weight no longer depends on k
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        table = random_rank_table(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        r = rank_of(table, int(i), int(j))
        values = {rank_weight(table, int(i), int(j), k, 1.0) for k in range(r, n)}
        assert len(values) == 1

    def test_symmetric_denominator(self):
        table = random_rank_table(np.random.default_rng(8), 8)
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                wi = rank_weight(table, i, j, 7, 1.0)
                wj = rank_weight(table, j, i, 7, 1.0)
                assert wi == wj  # both in each other's top-(n-1)


class TestNeighbourRows:
    """A table's cached k-column rows, pinned entry by entry to the scalar oracles."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9), k_at=st.sampled_from(["1", "n - 1", "any"]))
    def test_rows_equal_scalar_oracles(self, seed, k_at):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        table = random_rank_table(rng, n)
        k = {"1": 1, "n - 1": n - 1, "any": int(rng.integers(1, n))}[k_at]
        rows = table.neighbour_rows(k, jaccard=True)
        assert rows.k == k
        assert np.array_equal(rows.top, table.lists[:, :k])
        for i in range(n):
            for c, j in enumerate(rows.top[i].tolist()):
                assert rows.rev[i, c] == rank_of(table, j, i)
                # the builders' rank sum and mutual test, read from `rev`
                assert c + 1 + rows.rev[i, c] == rank_of(table, i, j) + rank_of(table, j, i)
                assert (rows.rev[i, c] <= k) == reciprocal(table, i, j, k)
                a, b = _inclusive_neighborhood(table, i, k), _inclusive_neighborhood(table, j, k)
                assert rows.inter[i, c] == len(a & b)

    def test_stored_read_only_in_their_dtypes(self):
        table = random_rank_table(np.random.default_rng(4), 9)
        rows = table.neighbour_rows(4, jaccard=True)
        arrays = (rows.top, rows.rev, rows.inter)
        assert (rows.top.dtype, rows.rev.dtype) == (_id_dtype(9),) * 2
        assert rows.inter.dtype == _id_dtype(2 * 9)
        assert all(a.shape == (9, 4) and not a.flags.writeable for a in arrays)
        assert [f.name for f in dataclasses.fields(rows)] == ["k", "top", "rev", "inter"]
        assert rows.top.flags.c_contiguous

    @pytest.mark.parametrize("n", [16_384, 16_385])
    def test_union_and_rank_sum_fit_their_dtype(self, n):
        # a table this large is not built here: the largest k is n - 1, and
        # the weights' 2k - inter in `_id_dtype(2 * n)` and the largest rank
        # sum, k + n - 1 (`rev` = n - 1 in `_id_dtype(n)` plus the intp
        # position c + 1 = k of the last column), must not wrap, whichever
        # promotion rule numpy follows (NEP 50, or value-based casting
        # before numpy 2); `_out_edges` sums them as here
        k, dtype = n - 1, _id_dtype(2 * n)
        inter = np.array([0, 1, k], dtype=dtype)
        assert (2 * k - inter).tolist() == [2 * k, 2 * k - 1, k]
        rev = np.full((1, k), n - 1, dtype=_id_dtype(n))
        assert (np.arange(1, k + 1) + rev)[0, -1] == k + n - 1


def brute_force_directed(table, query, params):
    """Independent construction enumerating all pairs each BFS round.

    Returns (depths, edges): each node's hop distance from the query, and
    the edge weights by (src id, dst id).
    """
    k = min(params.k, table.n - 1)
    topk = {i: [int(x) for x in table.lists[i, :k]] for i in range(table.n)}
    depths = {query: 0}
    frontier = [query]
    for d in range(1, params.depth + 1):
        nxt = []
        for i in frontier:
            for j in topk[i]:
                if j not in depths:
                    depths[j] = d
                    nxt.append(j)
        frontier = nxt
    edges = {}
    for i in depths:
        for j in depths:
            if i != j and j in topk[i]:
                w = params.alpha0 ** max(depths[i], depths[j]) / (
                    rank_of(table, i, j) + rank_of(table, j, i)
                )
                if w > 0:
                    edges[(i, j)] = w
    return depths, edges


def brute_force_undirected(table, query, params):
    k = min(params.k, table.n - 1)
    n = table.n

    def recip(i, j):
        return rank_of(table, i, j) <= k and rank_of(table, j, i) <= k

    depths = {query: 0}
    frontier = [query]
    for d in range(1, params.depth + 1):
        nxt = []
        for i in frontier:
            for j in table.lists[i, :k]:
                j = int(j)
                if j not in depths and recip(i, j):
                    depths[j] = d
                    nxt.append(j)
        frontier = nxt
    edges = {}
    for i in depths:
        for j in depths:
            if i < j and recip(i, j):
                a = {i} | {int(x) for x in table.lists[i, : k - 1]}
                b = {j} | {int(x) for x in table.lists[j, : k - 1]}
                w = params.alpha0 ** max(depths[i], depths[j]) * len(a & b) / len(a | b)
                if w > 0:
                    edges[(i, j)] = w
    return depths, edges


class TestDepths:
    """`_depths`, the BFS's one output, pinned query by query and table by
    table to the brute-force builders."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(["directed", "undirected"]),
        depth=st.integers(1, 3),
        n_tables=st.integers(1, 3),
    )
    def test_batch_equals_brute_force(self, seed, method, depth, n_tables):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        params = GraphParams(k=int(rng.integers(1, min(n, 6))), depth=depth)
        # a batch of several queries, some repeated
        queries = rng.integers(n, size=int(rng.integers(2, 9)))
        queries[-1] = queries[0]
        rows = _stack(tables, params.k, jaccard=method == "undirected")
        got = _depths(rows, n, queries, params, method == "directed")
        assert got.shape == (len(queries) * n_tables * n,) and got.dtype == _id_dtype(n)
        brute = brute_force_directed if method == "directed" else brute_force_undirected
        # query b's block in table t: keys (b * T + t) * n + id
        want = np.full((len(queries), n_tables, n), -1)
        for b, query in enumerate(queries.tolist()):
            for t, table in enumerate(tables):
                for i, d in brute(table, query, params)[0].items():
                    want[b, t, i] = d
        assert got.tolist() == want.ravel().tolist()


class TestStack:
    """`_stack` lays T tables' neighbour rows out as one corpus of T * n nodes."""

    def test_one_table_is_its_own_rows(self):
        table = random_rank_table(np.random.default_rng(3), 12)
        assert _stack([table], 4) is table.neighbour_rows(4)
        assert _stack([table], 4, jaccard=True) is table.neighbour_rows(4, jaccard=True)

    @pytest.mark.parametrize("jaccard", [False, True])
    def test_rows_offset_by_table(self, jaccard):
        rng = np.random.default_rng(5)
        tables = [random_rank_table(rng, 12) for _ in range(3)]
        rows = _stack(tables, 4, jaccard)
        parts = [t.neighbour_rows(4, jaccard) for t in tables]
        assert rows.k == 4 and rows.top.dtype == _id_dtype(36)
        assert rows.top.tolist() == [[x + 12 * t for x in row]
                                     for t, p in enumerate(parts) for row in p.top.tolist()]
        assert rows.rev.tolist() == [row for p in parts for row in p.rev.tolist()]
        if jaccard:
            assert rows.inter.tolist() == [row for p in parts for row in p.inter.tolist()]
        else:
            assert rows.inter is None


class TestBuildDirectedGraph:
    def test_structure_fixture_contains_one_way_reachable_node(
        self, structure_fixture_table
    ):
        g = build_graph([structure_fixture_table], 1, GraphParams(k=5))
        assert {1, 2, 3} <= g.nodes
        assert (2, 3) in g.edges
        assert g.edges[(2, 3)] > 0

    def test_k1_chain_topology(self):
        # each image's top neighbor forms a chain 0 -> 1 -> 2 -> 3
        table = RankTable(
            np.array([[1, 2, 3, 4], [2, 0, 3, 4], [3, 1, 0, 4], [4, 2, 1, 0], [3, 2, 1, 0]])
        )
        g = build_graph([table], 0, GraphParams(k=1, depth=2))
        assert g.nodes == {0, 1, 2}

    def test_node_count_bounds(self):
        rng = np.random.default_rng(5)
        table = random_rank_table(rng, 25)
        for k, depth in [(2, 1), (2, 2), (3, 2)]:
            g = build_graph([table], 0, GraphParams(k=k, depth=depth))
            bound = sum(k**d for d in range(depth + 1))
            assert len(g.nodes) <= bound

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        table = random_rank_table(rng, n)
        params = GraphParams(k=int(rng.integers(1, min(n, 6))), depth=int(rng.integers(1, 4)))
        query = int(rng.integers(n))
        g = build_graph([table], query, params)
        depths, edges = brute_force_directed(table, query, params)
        assert g.nodes == set(depths)
        assert g.ids.tolist() == sorted(depths, key=lambda v: (depths[v], v))
        assert set(g.edges) == set(edges)
        for key in edges:
            assert g.edges[key] == pytest.approx(edges[key], abs=1e-12)


class TestBuildUndirectedGraph:
    def test_structure_fixture_excludes_non_reciprocal(self, structure_fixture_table):
        g = build_graph([structure_fixture_table], 1, GraphParams(k=5), "undirected")
        assert g.nodes & {1, 2, 3} == {1, 2}
        assert (1, 2) in g.edges

    def test_mutual_clique_is_complete(self):
        # ids 0-3 mutually closest, fillers far behind
        rows = []
        group = [0, 1, 2, 3]
        for i in range(8):
            if i in group:
                rows.append([j for j in group if j != i] + [j for j in range(8) if j not in group])
            else:
                others = [j for j in range(4, 8) if j != i]
                rows.append(others + group)
        table = RankTable(np.array(rows))
        g = build_graph([table], 0, GraphParams(k=3), "undirected")
        assert {0, 1, 2, 3} <= g.nodes
        for i in group:
            for j in group:
                if i < j:
                    assert (i, j) in g.edges

    def test_canonical_orientation(self):
        table = random_rank_table(np.random.default_rng(7), 15)
        g = build_graph([table], 0, GraphParams(k=4), "undirected")
        for src, dst in g.edges:
            assert src < dst

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        table = random_rank_table(rng, n)
        params = GraphParams(k=int(rng.integers(1, min(n, 6))), depth=int(rng.integers(1, 4)))
        query = int(rng.integers(n))
        g = build_graph([table], query, params, "undirected")
        depths, edges = brute_force_undirected(table, query, params)
        assert g.nodes == set(depths)
        assert g.ids.tolist() == sorted(depths, key=lambda v: (depths[v], v))
        assert set(g.edges) == set(edges)
        for key in edges:
            assert g.edges[key] == pytest.approx(edges[key], abs=1e-12)


class TestGraphParams:
    # both were accepted, and only `rerank` failed later on the slice or `range()`
    @pytest.mark.parametrize("kw", [{"k": 2.5}, {"k": 3, "depth": 1.5}])
    def test_non_integer_k_or_depth_rejected(self, kw):
        with pytest.raises(TypeError):
            GraphParams(**kw)


class TestGraphInvariants:
    def test_validation_rejects_dangling_edges(self):
        with pytest.raises(ValueError, match="outside"):
            ImageGraph(0, np.array([0, 1]), np.array([0]), np.array([2]), np.array([0.5]), True)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("src, dst", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_rejects_local_index_outside_ids(self, src, dst, directed):
        ids, weight = np.array([0, 1, 2]), np.array([0.5])
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            ImageGraph(0, ids, np.array([src]), np.array([dst]), weight, directed)

    def test_rejects_non_integer_ids(self):
        # were accepted: the export wrote "0.0 1.5 0.5" and ranking raised IndexError
        with pytest.raises(TypeError, match="image ids must be integers, not float64"):
            ImageGraph(0, np.array([0.0, 1.5]), np.array([0]), np.array([1]), np.array([0.5]), True)

    @pytest.mark.parametrize("query", [2.0, True])
    def test_rejects_non_integer_query(self, query):
        # a float query was accepted and stored as int(2.0)
        with pytest.raises(TypeError):
            ImageGraph(query, np.array([0, 1, 2]), np.array([0]), np.array([1]), np.array([0.5]), True)

    def test_query_is_a_python_int(self):
        g = ImageGraph(np.int64(2), np.array([0, 1, 2]), np.array([0]), np.array([1]), np.array([0.5]), True)
        assert type(g.query) is int and g.query == 2

    def test_rejects_repeated_ids(self):
        # was accepted with nodes=3 in its repr and two ids in .nodes
        with pytest.raises(ValueError, match="distinct"):
            ImageGraph(0, np.array([0, 1, 1]), np.array([0]), np.array([1]), np.array([0.5]), True)

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize(
        "dst, weight", [([1], [0.5, 0.25]), ([1, 2], [0.5])], ids=["short-dst", "short-weight"]
    )
    def test_rejects_edge_arrays_of_different_lengths(self, dst, weight, directed):
        ids, src = np.array([0, 1, 2]), np.array([0, 0])
        with pytest.raises(ValueError, match="one entry per edge"):
            ImageGraph(0, ids, src, np.array(dst), np.array(weight), directed)

    @pytest.mark.parametrize("directed", [True, False])
    def test_rejects_repeated_edge(self, directed):
        # was accepted: `.edges` kept the last copy's weight, `greedy_rank`
        # read the larger one and `fuse` summed them into one edge
        ids, src, dst = np.array([5, 7, 9]), np.array([0, 1, 0]), np.array([1, 2, 1])
        with pytest.raises(ValueError, match=r"^edge \(5, 7\) appears more than once$"):
            ImageGraph(5, ids, src, dst, np.array([0.9, 0.5, 0.1]), directed)

    @pytest.mark.parametrize("directed", [True, False])
    def test_rejects_self_loop(self, directed):
        # was accepted: `graph_to_text` wrote an undirected (7, 7) as "7 7 0.9"
        ids, src, dst = np.array([5, 7, 9]), np.array([0, 1]), np.array([1, 1])
        with pytest.raises(ValueError, match=r"^edge \(7, 7\) is a self-loop$"):
            ImageGraph(5, ids, src, dst, np.array([0.5, 0.9]), directed)

    def test_validation_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            graph_of(0, frozenset({0, 1}), {(0, 1): 0.0}, directed=True)

    def test_validation_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="weight"):
            graph_of(0, frozenset({0, 1}), {(0, 1): float("nan")}, directed=True)

    def test_truncated_storage_is_exactly_nk(self):
        for n, k in [(10, 3), (20, 5)]:
            table = random_rank_table(np.random.default_rng(n), n)
            assert table.truncated(k).size == n * k

    def test_export_format(self, structure_fixture_table):
        g = build_graph([structure_fixture_table], 1, GraphParams(k=5))
        text = graph_to_text(g)
        lines = text.splitlines()
        assert lines[0] == "query 1 directed 1"
        assert len(lines) == 1 + len(g.edges)
        src, dst, w = lines[1].split()
        assert (int(src), int(dst)) in g.edges
        assert float(w) > 0

    def test_export_header_lists_sources(self):
        g = graph_of(0, frozenset({0}), {}, True)
        assert graph_to_text(g, ("hsv", "bow")) == "query 0 directed 1 sources hsv,bow\n"
