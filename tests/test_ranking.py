import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphrerank import corpus_io
from graphrerank.corpus_io import (
    FeatureMatrix, SynthSpec, load_rank_table, save_rank_table, synth_generate,
)
from graphrerank import evaluation
from graphrerank.evaluation import ns_score
from graphrerank.features import build_rank_table
from graphrerank.fusion import fuse
from graphrerank.graph import GraphParams
from graphrerank import ranking
from graphrerank.ranking import RankedList, build_graph, greedy_rank, rerank, rerank_batch

from conftest import graph_of, random_rank_table
from test_graph import brute_force_directed, brute_force_undirected


def reference_greedy(graph, initial, target_len):
    """Step-by-step simulation recomputing everything from scratch per round."""
    chosen = [graph.query]
    while len(chosen) - 1 < target_len:
        best = None
        for cand in graph.nodes:
            if cand in chosen:
                continue
            ws = []
            for s in chosen:
                w = graph.edges.get((s, cand))
                if w is None and not graph.directed:
                    w = graph.edges.get((cand, s))
                if w is not None:
                    ws.append(w)
            if not ws:
                continue
            val = max(ws)
            pos = initial.index(cand) if cand in initial else len(initial)
            key = (-val, pos, cand)
            if best is None or key < best[0]:
                best = (key, cand)
        if best is None:
            break
        chosen.append(best[1])
    order = chosen[1:]
    for img in initial:
        if len(order) >= target_len:
            break
        if img not in order and img != graph.query:
            order.append(img)
    return order


def random_distinct_graph(rng, max_nodes=12, directed=None):
    n = int(rng.integers(2, max_nodes + 1))
    if directed is None:
        directed = bool(rng.integers(2))
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if directed:
                pairs.append((i, j))
            elif i < j:
                pairs.append((i, j))
    keep = [p for p in pairs if rng.random() < 0.5]
    # distinct integer-valued weights: exact under float summation, so the
    # incremental and from-scratch simulations cannot disagree on ties
    weights = rng.permutation(len(keep)) + 1
    edges = {p: float(w) for p, w in zip(keep, weights)}
    graph = graph_of(0, frozenset(range(n)), edges, directed)
    initial = [int(x) for x in rng.permutation(np.arange(1, n))]
    return graph, initial


def random_tied_graph(rng, max_nodes=12):
    """Random graph whose weights repeat, so the tie-break decides often.

    Weights are drawn from {1, 2, 3}: integer-valued, so sums are exact in
    any order. Some graph nodes are missing from the initial list, and it
    holds ids beyond the graph.
    """
    n = int(rng.integers(2, max_nodes + 1))
    directed = bool(rng.integers(2))
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and (directed or i < j) and rng.random() < 0.5:
                edges[(i, j)] = float(rng.integers(1, 4))
    graph = graph_of(0, frozenset(range(n)), edges, directed)
    listed = [i for i in range(1, n) if rng.random() < 0.7] + list(range(n, n + 3))
    initial = [int(x) for x in rng.permutation(listed)]
    return graph, initial


class TestRankedList:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RankedList(0, (1, 2, 1))

    def test_rejects_own_query(self):
        with pytest.raises(ValueError):
            RankedList(0, (1, 0, 2))

    def test_ndarray_order_equals_tuple_order(self):
        from_array = RankedList(0, np.array([3, 1, 2], dtype=np.int64))
        assert from_array == RankedList(0, (3, 1, 2))
        assert all(type(i) is int for i in from_array.order)

    def test_non_integer_ids_rejected(self):
        # `np.asarray(..., dtype=np.int64)` alone truncates these to (1, 2)
        with pytest.raises(TypeError, match="integers"):
            RankedList(0, [1.5, 2.7])
        assert RankedList(0, []).order == ()

    def test_ndarray_rejects_duplicates_and_own_query(self):
        with pytest.raises(ValueError, match="duplicates"):
            RankedList(0, np.array([1, 2, 1]))
        with pytest.raises(ValueError, match="own query"):
            RankedList(0, np.array([1, 0, 2]))


class TestQueryRule:
    """A query is read as ids are: by `operator.index`, a bool rejected, kept as a Python int."""

    tables = [random_rank_table(np.random.default_rng(3), 8)]

    @pytest.mark.parametrize("query", [True, np.True_])
    def test_rerank_rejects_bool_as_rerank_batch_does(self, query):
        # `rerank` ranked query 1 where `rerank_batch` raised
        with pytest.raises(TypeError, match="integers, not bool"):
            rerank(self.tables, query, GraphParams(k=3))
        with pytest.raises(TypeError, match="integers, not bool"):
            rerank_batch(self.tables, [query], GraphParams(k=3))

    @pytest.mark.parametrize("method", ["directed", "undirected"])
    def test_build_graph_rejects_bool(self, method):
        with pytest.raises(TypeError, match="integers, not bool"):
            build_graph(self.tables, True, GraphParams(k=3), method)

    def test_ranked_list_rejects_bool(self):
        with pytest.raises(TypeError, match="integers, not bool"):
            RankedList(True, (2, 3))
        with pytest.raises(TypeError):
            RankedList(1.0, (2, 3))

    def test_ranked_list_query_is_a_python_int(self):
        # a numpy scalar query stayed one, and `json.dumps` failed on it
        ranked = RankedList(np.int64(3), (1, 2))
        assert type(ranked.query) is int and ranked == RankedList(3, (1, 2))
        assert json.dumps(dataclasses.asdict(ranked)) == '{"query": 3, "order": [1, 2]}'
        graph = build_graph(self.tables, np.int64(2), GraphParams(k=3))
        assert type(graph.query) is int and graph.query == 2


class TestGreedyRank:
    def test_star_graph_orders_by_weight(self):
        g = graph_of(
            0, frozenset({0, 1, 2, 3}),
            {(0, 1): 0.5, (0, 2): 0.3, (0, 3): 0.1}, True,
        )
        ranked = greedy_rank(g, [3, 2, 1], 3)
        assert ranked.order == (1, 2, 3)

    def test_two_step_expansion_prefers_strong_second_hop(self):
        # after inserting a, the edge a -> b (0.9) beats everything else
        g = graph_of(
            0, frozenset({0, 1, 2, 3}),
            {(0, 1): 0.5, (1, 2): 0.9, (0, 3): 0.4}, True,
        )
        ranked = greedy_rank(g, [3, 2, 1], 3)
        assert ranked.order[:2] == (1, 2)

    def test_bad_target_len_rejected(self):
        g = graph_of(1, frozenset({1, 2}), {(1, 2): 0.5}, True)
        with pytest.raises(ValueError):
            greedy_rank(g, [2], 5)

    def test_non_integer_initial_rejected(self):
        # truncated, this list would silently rank ids 1, 2, 3
        g = graph_of(0, frozenset({0, 1}), {(0, 1): 0.5}, True)
        with pytest.raises(TypeError, match="integers"):
            greedy_rank(g, [1.9, 2.2, 3.7], 2)
        with pytest.raises(TypeError):
            greedy_rank(g, [1, 2, 3], 1.5)

    def test_negative_ids_rejected(self):
        g = graph_of(0, frozenset({0, 1}), {(0, 1): 0.5}, True)
        with pytest.raises(ValueError, match="non-negative"):
            greedy_rank(g, [1, -2], 1)
        g = graph_of(0, frozenset({0, -1}), {(0, -1): 0.5}, True)
        with pytest.raises(ValueError, match="non-negative"):
            greedy_rank(g, [2], 1)

    def test_initial_holding_the_query_rejected(self):
        # completion skipped the query, so this returned (1,), one id short
        g = graph_of(0, frozenset({0}), {}, True)
        with pytest.raises(ValueError, match="own query"):
            greedy_rank(g, [0, 1], 2)
        with pytest.raises(ValueError, match="own query"):
            greedy_rank(g, np.array([2, 0, 1]), 1)

    def test_repeated_initial_id_rejected(self):
        # [2, 2, 1] returned (1, 2); [1, 1, 2] blamed the output list
        g = graph_of(0, frozenset({0, 1}), {(0, 1): 0.5}, True)
        with pytest.raises(ValueError, match="initial list contains duplicates"):
            greedy_rank(g, [2, 2, 1], 2)
        with pytest.raises(ValueError, match="initial list contains duplicates"):
            greedy_rank(g, [1, 1, 2], 3)

    def test_tie_order_not_sized_by_largest_id(self):
        # an array indexed by id made this raise MemoryError (7.28 TiB)
        big = 10**12
        g = graph_of(0, frozenset({0, 1, big}), {(0, 1): 0.5, (0, big): 0.5}, True)
        assert greedy_rank(g, [big, 1]).order == (big, 1)
        assert greedy_rank(g, [1, big]).order == (1, big)
        # unlisted nodes tie by id, after every listed one
        assert greedy_rank(g, [2, 3], 1).order == (1,)
        assert greedy_rank(g, [big + 1, big]).order == (big, 1)

    def test_completion_from_initial(self):
        g = graph_of(0, frozenset({0, 1}), {(0, 1): 0.5}, True)
        ranked = greedy_rank(g, [4, 3, 2, 1], 4)
        assert ranked.order == (1, 4, 3, 2)

    def test_exact_target_length(self):
        g = graph_of(0, frozenset({0, 1}), {(0, 1): 0.5}, True)
        assert len(greedy_rank(g, [4, 3, 2, 1], 2).order) == 2

    def test_tie_breaks_by_initial_rank_then_id(self):
        g = graph_of(
            0, frozenset({0, 1, 2, 3}),
            {(0, 1): 0.5, (0, 2): 0.5, (0, 3): 0.5}, True,
        )
        assert greedy_rank(g, [2, 3, 1], 3).order == (2, 3, 1)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_reference_simulation(self, seed):
        rng = np.random.default_rng(seed)
        graph, initial = random_distinct_graph(rng)
        target = len(initial)
        got = greedy_rank(graph, initial, target)
        want = reference_greedy(graph, initial, target)
        assert list(got.order) == want

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_positive_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        graph, initial = random_distinct_graph(rng)
        c = float(rng.uniform(0.1, 10.0))
        scaled = graph_of(
            graph.query, graph.nodes,
            {k: c * w for k, w in graph.edges.items()}, graph.directed,
        )
        assert greedy_rank(graph, initial, len(initial)).order == greedy_rank(
            scaled, initial, len(initial)
        ).order

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_first_insert_is_strongest_out_neighbor(self, seed):
        rng = np.random.default_rng(seed)
        graph, initial = random_distinct_graph(rng)
        q = graph.query
        out = {}
        for (s, d), w in graph.edges.items():
            if s == q:
                out[d] = max(out.get(d, 0), w)
            if not graph.directed and d == q:
                out[s] = max(out.get(s, 0), w)
        ranked = greedy_rank(graph, initial, len(initial))
        if out:
            assert ranked.order[0] == max(out, key=lambda c: out[c])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_output_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        graph, initial = random_distinct_graph(rng)
        target = int(rng.integers(0, len(initial) + 1))
        ranked = greedy_rank(graph, initial, target)
        assert len(ranked.order) == target
        assert graph.query not in ranked.order
        assert len(set(ranked.order)) == len(ranked.order)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_tied_weights_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        graph, initial = random_tied_graph(rng)
        target = int(rng.integers(0, len(initial) + 1))
        got = greedy_rank(graph, initial, target)
        assert list(got.order) == reference_greedy(graph, initial, target)

    def test_determinism(self):
        rng = np.random.default_rng(77)
        graph, initial = random_distinct_graph(rng)
        a = greedy_rank(graph, initial, len(initial))
        b = greedy_rank(graph, initial, len(initial))
        assert a == b


class TestBuildGraph:
    @pytest.mark.parametrize("method", ["directed", "undirected"])
    @pytest.mark.parametrize("n_tables", [1, 2])
    def test_equals_hand_written_build_and_fuse(self, method, n_tables):
        tables = [random_rank_table(np.random.default_rng(s), 14) for s in range(n_tables)]
        params = GraphParams(k=4)
        for q in (0, 5, 13):
            graphs = [build_graph([t], q, params, method) for t in tables]
            want = graphs[0] if n_tables == 1 else fuse(graphs)
            got = build_graph(tables, q, params, method)
            assert (got.query, got.directed, got.nodes, got.edges) == (
                want.query, want.directed, want.nodes, want.edges
            )

    @pytest.mark.parametrize("method", ["directed", "undirected"])
    @pytest.mark.parametrize("n_tables", [1, 2])
    def test_rerank_is_greedy_rank_of_build_graph(self, method, n_tables):
        tables = [random_rank_table(np.random.default_rng(9 + s), 14) for s in range(n_tables)]
        params = GraphParams(k=4)
        for q in range(14):
            want = greedy_rank(build_graph(tables, q, params, method), tables[0].lists[q])
            assert rerank(tables, q, params, method).order == want.order

    def test_unknown_method_rejected(self):
        table = random_rank_table(np.random.default_rng(3), 6)
        with pytest.raises(ValueError, match="unknown method"):
            build_graph([table], 0, GraphParams(k=2), "mutual")

    def test_no_tables_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_graph([], 0, GraphParams(k=2))


class TestRerank:
    def test_single_table_composition_identity(self):
        table = random_rank_table(np.random.default_rng(3), 15)
        params = GraphParams(k=4)
        got = rerank([table], 2, params, method="directed")
        graph = build_graph([table], 2, params)
        want = greedy_rank(graph, table.lists[2], None)
        assert got.order == want.order

    def test_inconsistent_corpus_sizes_rejected(self):
        t1 = random_rank_table(np.random.default_rng(3), 10)
        t2 = random_rank_table(np.random.default_rng(4), 11)
        with pytest.raises(ValueError):
            rerank([t1, t2], 0, GraphParams(k=3))

    @pytest.mark.parametrize("method", ["directed", "undirected"])
    def test_k_beyond_corpus_rejected(self, method):
        tables = [random_rank_table(np.random.default_rng(3), 6)]
        assert len(rerank(tables, 0, GraphParams(k=5), method).order) == 5
        with pytest.raises(ValueError, match="k=6 exceeds corpus bound 5"):
            rerank(tables, 0, GraphParams(k=6), method)

    def test_full_agreement_two_spaces_groupmates_on_top(self):
        spec = SynthSpec(
            n_groups=8, group_size=4, dims=6, n_spaces=2,
            intra_spread=0.02, inter_spread=1.0, agreement=1.0, seed=5,
        )
        spaces, gt = synth_generate(spec)
        tables = [build_rank_table(m) for m in spaces]
        for q in range(spec.n):
            ranked = rerank(tables, q, GraphParams(k=5))
            assert set(ranked.order[:3]) == gt.relevant[q] - {q}

    def test_complementary_spaces_fusion_beats_weak_space(self):
        # one space sees the groups, the other is pure noise; the fused
        # ranking recovers what the noisy space alone cannot
        coherent = SynthSpec(
            n_groups=12, group_size=4, dims=6, n_spaces=1,
            intra_spread=0.05, inter_spread=1.0, agreement=1.0, seed=21,
        )
        noisy = SynthSpec(
            n_groups=12, group_size=4, dims=6, n_spaces=1,
            intra_spread=0.05, inter_spread=1.0, agreement=0.0, seed=22,
        )
        (color,), gt = synth_generate(coherent)
        (texture,), _ = synth_generate(noisy)
        tables = [build_rank_table(texture), build_rank_table(color)]
        params = GraphParams(k=5)
        fused_ns = np.mean([
            ns_score(rerank(tables, q, params), q, gt.relevant[q])
            for q in range(coherent.n)
        ])
        texture_ns = np.mean([
            ns_score(rerank([tables[0]], q, params), q, gt.relevant[q])
            for q in range(coherent.n)
        ])
        assert fused_ns > texture_ns


BRUTE_FORCE = {"directed": brute_force_directed, "undirected": brute_force_undirected}


class TestRerankPinnedToReference:
    """`rerank` equals, exactly, the scalar oracles composed by hand."""

    @staticmethod
    def reference_graph(tables, query, params, method):
        nodes, edges = set(), {}
        for t in tables:
            t_depths, t_edges = BRUTE_FORCE[method](t, query, params)
            nodes.update(t_depths)
            for key, w in t_edges.items():
                edges[key] = edges.get(key, 0.0) + w
        return SimpleNamespace(
            query=query, nodes=nodes, edges=edges, directed=method == "directed"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(sorted(BRUTE_FORCE)),
        n_tables=st.integers(1, 3),
    )
    def test_order_equals_reference(self, seed, method, n_tables):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 31))
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        params = GraphParams(k=int(rng.integers(1, n)), depth=int(rng.integers(1, 4)))
        query = int(rng.integers(n))
        want = self.reference_graph(tables, query, params, method)
        graph = build_graph(tables, query, params, method)
        assert (graph.nodes, graph.edges) == (want.nodes, want.edges)
        initial = [int(x) for x in tables[0].lists[query]]
        got = list(rerank(tables, query, params, method).order)
        assert got == reference_greedy(want, initial, len(initial))


class TestPrefixConsistency:
    """Ranking to `target_len` gives the first `target_len` ids of the full order."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(["directed", "undirected"]),
        n_tables=st.integers(1, 2),
    )
    def test_target_len_order_is_prefix_of_full_order(self, seed, method, n_tables):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        params = GraphParams(k=int(rng.integers(1, n)), depth=int(rng.integers(1, 4)))
        query = int(rng.integers(n))
        graph = build_graph(tables, query, params, method)
        initial = tables[0].lists[query]
        full = greedy_rank(graph, initial).order
        assert rerank(tables, query, params, method).order == full
        for t in range(len(initial) + 1):
            assert greedy_rank(graph, initial, t).order == full[:t]
            assert rerank_batch(tables, [query], params, method, t)[0].order == full[:t]


def corpus_and_target(rng):
    """Random tables' size n and a target length: a prefix or the whole list.

    A prefix (t < n - 1) is ranked by lockstep expansion and a whole list
    (t = n - 1) from the full graphs, so each is drawn half the time.
    """
    n = int(rng.integers(2, 31))
    return n, int(rng.integers(0, n - 1)) if rng.integers(2) else n - 1


@pytest.fixture(scope="module")
def synth_tables():
    """Rank tables of two feature spaces of a grouped n = 200 corpus."""
    spec = SynthSpec(
        n_groups=50, group_size=4, dims=8, n_spaces=2,
        intra_spread=0.25, inter_spread=1.0, agreement=0.7, seed=7,
    )
    spaces, _ = synth_generate(spec)
    return [build_rank_table(m) for m in spaces]


class TestRerankBatch:
    """`rerank_batch` ranks each query of a batch as if it were alone."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(sorted(BRUTE_FORCE)),
        n_tables=st.integers(1, 2),
    )
    def test_each_order_equals_reference(self, seed, method, n_tables):
        rng = np.random.default_rng(seed)
        n, target = corpus_and_target(rng)
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        params = GraphParams(k=int(rng.integers(1, n)), depth=int(rng.integers(1, 4)))
        # repeats allowed; a small chunk size splits the batch into several
        queries = [int(q) for q in rng.integers(0, n, size=int(rng.integers(1, 12)))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranking, "CHUNK", int(rng.integers(1, 5)))
            got = rerank_batch(tables, queries, params, method, target)
        assert [r.query for r in got] == queries
        for q, ranked in zip(queries, got):
            want = TestRerankPinnedToReference.reference_graph(tables, q, params, method)
            initial = [int(x) for x in tables[0].lists[q]]
            assert list(ranked.order) == reference_greedy(want, initial, target)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(sorted(BRUTE_FORCE)),
        n_tables=st.integers(1, 2),
    )
    def test_result_independent_of_batch_order_and_members(self, seed, method, n_tables):
        rng = np.random.default_rng(seed)
        n, target = corpus_and_target(rng)
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        params = GraphParams(k=int(rng.integers(1, n)), depth=int(rng.integers(1, 4)))
        queries = [int(q) for q in rng.integers(0, n, size=int(rng.integers(1, 10)))]
        whole = rerank_batch(tables, queries, params, method, target)
        shuffled = [int(i) for i in rng.permutation(len(queries))]
        reordered = rerank_batch(tables, [queries[i] for i in shuffled], params, method, target)
        assert reordered == [whole[i] for i in shuffled]
        for q, ranked in zip(queries, whole):
            assert rerank_batch(tables, [q], params, method, target)[0] == ranked

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(sorted(BRUTE_FORCE)),
        n_tables=st.integers(1, 2),
    )
    def test_lazy_expansion_equals_full_graphs(self, seed, method, n_tables):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        params = GraphParams(
            k=int(rng.integers(1, n)),
            alpha0=float(rng.choice([0.5, 0.8, 1.0])),
            depth=int(rng.integers(1, 4)),
        )
        target = int(rng.integers(0, n - 1))  # a prefix: t < n - 1
        queries = [int(q) for q in rng.integers(0, n, size=int(rng.integers(1, 12)))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranking, "CHUNK", int(rng.integers(1, 5)))
            lazy = rerank_batch(tables, queries, params, method, target)
            full = rerank_batch(tables, queries, params, method)
        assert [r.order for r in lazy] == [r.order[:target] for r in full]

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(sorted(BRUTE_FORCE)),
        depth=st.integers(1, 3),
    )
    def test_lazy_expansion_equals_full_graphs_three_tables(self, seed, method, depth):
        # the lockstep sums a step's edges in one buffer, table by table: a
        # sum taken in any other table order can differ in its last bit from
        # the fused edge's, and then break a tie the other way
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        tables = [random_rank_table(rng, n) for _ in range(3)]
        params = GraphParams(
            k=int(rng.integers(1, n)), alpha0=float(rng.choice([0.5, 0.8, 1.0])), depth=depth
        )
        target = int(rng.integers(0, n - 1))  # a prefix: t < n - 1
        queries = list(range(n))
        lazy = rerank_batch(tables, queries, params, method, target)
        full = rerank_batch(tables, queries, params, method)
        assert [r.order for r in lazy] == [r.order[:target] for r in full]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("method", sorted(BRUTE_FORCE))
    @pytest.mark.parametrize("n_tables", [1, 2])
    @pytest.mark.parametrize("k", [10, 60])
    def test_short_lists_on_synthetic_corpus(self, synth_tables, k, n_tables, method, depth):
        tables = synth_tables[:n_tables]
        params = GraphParams(k=k, depth=depth)
        queries = np.random.default_rng(k * depth).choice(200, size=8, replace=False).tolist()
        got = rerank_batch(tables, queries, params, method, target_len=3)
        for q, ranked in zip(queries, got):
            graph = build_graph(tables, q, params, method)
            assert ranked.order == greedy_rank(graph, tables[0].lists[q]).order[:3]

    @pytest.mark.parametrize("method", sorted(BRUTE_FORCE))
    def test_query_out_of_range_rejected(self, method):
        tables = [random_rank_table(np.random.default_rng(3), 8)]
        with pytest.raises(ValueError, match="query 8 out of range"):
            rerank_batch(tables, [0, 8, 1], GraphParams(k=3), method)
        with pytest.raises(ValueError, match="query -1 out of range"):
            rerank_batch(tables, [-1], GraphParams(k=3), method)

    @pytest.mark.parametrize("method", sorted(BRUTE_FORCE))
    def test_build_graph_query_out_of_range_rejected(self, method):
        tables = [random_rank_table(np.random.default_rng(3), 8)] * 2
        with pytest.raises(ValueError, match="query 8 out of range"):
            build_graph(tables, 8, GraphParams(k=3), method)
        with pytest.raises(ValueError, match="query -1 out of range"):
            build_graph(tables[:1], -1, GraphParams(k=3), method)

    @pytest.mark.parametrize("n_tables", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_graphs_holding_only_their_query(self, seed, n_tables):
        # every list names the loners last, beyond its top k, so no loner has
        # a mutual top-k neighbour: its undirected graph is the query alone
        rng = np.random.default_rng(seed)
        n, loners = 12, {1, 5, 8}
        tables = [
            corpus_io.RankTable(np.array(
                [sorted(row, key=lambda i: i in loners) for row in random_rank_table(rng, n).lists.tolist()]
            ))
            for _ in range(n_tables)
        ]
        params = GraphParams(k=3, depth=int(rng.integers(1, 4)))
        queries = [int(q) for q in rng.permutation(n)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranking, "CHUNK", 5)
            got = rerank_batch(tables, queries, params, "undirected")
        for q, ranked in zip(queries, got):
            initial = [int(x) for x in tables[0].lists[q]]
            if q in loners:
                graph = build_graph(tables, q, params, "undirected")
                assert graph.ids.tolist() == [q] and graph.edges == {}
                assert list(ranked.order) == initial
            else:
                want = TestRerankPinnedToReference.reference_graph(tables, q, params, "undirected")
                assert list(ranked.order) == reference_greedy(want, initial, n - 1)

    def test_empty_batch(self):
        tables = [random_rank_table(np.random.default_rng(3), 8)]
        assert rerank_batch(tables, [], GraphParams(k=3)) == []

    @pytest.mark.parametrize(
        "target, path",
        [(0, "_lazy_chunk"), (6, "_lazy_chunk"), (7, "_rank_chunk"), (None, "_rank_chunk")],
    )
    def test_prefix_by_lockstep_whole_list_from_full_graphs(self, target, path):
        # both paths give the same lists, so only the call shows which one ran
        tables = [random_rank_table(np.random.default_rng(3), 8)]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_lazy_chunk", "_rank_chunk"):
                mp.setattr(ranking, name, lambda *args, name=name: calls.append(name) or [])
            rerank_batch(tables, [0, 1], GraphParams(k=3), target_len=target)
        assert calls == [path]

    def test_bad_target_len_rejected(self):
        tables = [random_rank_table(np.random.default_rng(3), 8)]
        with pytest.raises(ValueError, match=r"target_len 8 out of range \[0, 7\]"):
            rerank_batch(tables, [0], GraphParams(k=3), target_len=8)

    @pytest.mark.parametrize("method", sorted(BRUTE_FORCE))
    def test_depth_beyond_n_minus_1_reaches_what_n_minus_1_reaches(self, method):
        # the decay table held depth + 1 Python floats per out-edge call:
        # 38.6 MiB traced and 2-7 s for this 20-image corpus
        spec = SynthSpec(n_groups=5, group_size=4, dims=4, n_spaces=2, agreement=0.7, seed=3)
        tables = [build_rank_table(m) for m in synth_generate(spec)[0]]
        n = tables[0].n
        for target in (None, 3):
            want = rerank_batch(tables, range(n), GraphParams(k=3, depth=n - 1), method, target)
            tracemalloc.start()
            try:
                got = rerank_batch(tables, range(n), GraphParams(k=3, depth=10**6), method, target)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak <= 2 * 2**20


def assert_one_int_per_id(lists):
    """Each id above 256 (the ints Python does not cache) is one object in all of `lists`."""
    seen = {}
    for ranked in lists:
        for x in (ranked.query, *ranked.order):
            if x > 256:
                assert seen.setdefault(x, x) is x, f"id {x} is held as two int objects"
    assert seen


class TestSharedIds:
    """Lists ranked from rank tables share one Python int per id."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """The two tables and ground truth of `synth --groups 200 --dims 4 --agreement 0.8 --seed 7`."""
        spaces, gt = synth_generate(SynthSpec(n_groups=200, dims=4, agreement=0.8, seed=7))
        return [build_rank_table(m) for m in spaces], gt

    def test_whole_lists_cost_their_references(self, corpus):
        # 800 whole lists of 799 ids: 800 * 799 references in tuples, traced
        # 6.2 MiB; with a new int per id above 256 they traced 18.8 MiB
        tables, _ = corpus
        tracemalloc.start()
        try:
            ranked = rerank_batch(tables, range(800), GraphParams(k=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ranked) == 800
        assert peak <= 8 * 2**20

    def test_separate_calls_and_chunks_share_ints(self, corpus):
        tables, _ = corpus
        params = GraphParams(k=5)
        one, other = rerank(tables, 300, params), rerank(tables, 700, params)
        # 0 .. 63 and 640 .. 703 are ranked in separate chunks
        batch = rerank_batch(tables, [*range(300, 304), *range(640, 644)], params)
        prefixes = rerank_batch(tables, range(0, 800, 50), params, target_len=3)
        assert_one_int_per_id([one, other, *batch, *prefixes])

    @pytest.mark.parametrize("metric", ["ns", "map"])
    def test_evaluate_scores_ids_without_ranked_lists(self, corpus, metric):
        # evaluate scores each chunk's id arrays: it holds no list's ints at all
        tables, gt = corpus
        params = GraphParams(k=5)
        queries = [300, 301, 500, 799]
        truth = corpus_io.GroundTruth({q: gt.relevant[q] for q in queries})

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate made a RankedList")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RankedList, "_batch", refuse)
            mp.setattr(RankedList, "__post_init__", refuse)
            baseline, reranked = evaluation.evaluate(tables, truth, params, metric=metric)

        def value(ranked, q):
            rel = gt.relevant[q]
            if metric == "ns":
                return evaluation.ns_score(ranked, q, rel)
            return evaluation.average_precision(ranked, rel)

        ranked = rerank_batch(tables, queries, params)
        assert reranked.per_query == {q: value(r, q) for q, r in zip(queries, ranked)}
        assert baseline.per_query == {
            q: value(RankedList(q, tables[0].lists[q]), q) for q in queries
        }

    def test_cache_holds_the_corpus_in_use(self, corpus):
        tables, _ = corpus
        rerank(tables, 0, GraphParams(k=5))
        small = [random_rank_table(np.random.default_rng(3), 8)]
        rerank(small, 0, GraphParams(k=3))
        assert ranking._id_objects.cache_info().currsize == 1
        assert ranking._id_objects(8).tolist() == list(range(8))
        # greedy_rank's ids may be any size; none of them reaches the cache
        misses = ranking._id_objects.cache_info().misses
        g = graph_of(0, frozenset({0, 1, 10**12}), {(0, 1): 0.5, (0, 10**12): 0.5}, True)
        assert greedy_rank(g, [10**12, 1]).order == (10**12, 1)
        assert ranking._id_objects.cache_info().misses == misses


class TestInt32Storage:
    """Tables stored as int32, as beyond n = 32 768, give what int16 tables give.

    No test corpus is that large, so `corpus_io._id_dtype` is forced to
    int32; int16 tables are pinned to the oracles by the tests above.
    """

    @staticmethod
    def outcome(seed, method, n_tables, tmp_path):
        """Whole lists, 3-id prefixes, graph edges and saved text of one random corpus."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        built = build_rank_table(FeatureMatrix(rng.normal(size=(n, 3))))
        tables = [built, random_rank_table(rng, n)][:n_tables]
        paths = [tmp_path / f"{i}.txt" for i in range(n_tables)]
        for table, path in zip(tables, paths):
            save_rank_table(table, path)
        texts = [path.read_bytes() for path in paths]
        loaded = [load_rank_table(path) for path in paths]
        assert all(np.array_equal(a.lists, b.lists) for a, b in zip(loaded, tables))
        dtypes = {arr.dtype for t in tables + loaded for arr in (t.lists, t.positions)}
        params = GraphParams(k=int(rng.integers(1, n)), depth=int(rng.integers(1, 4)))
        queries = list(range(n))
        whole = [r.order for r in rerank_batch(tables, queries, params, method)]
        prefix = [r.order for r in rerank_batch(tables, queries, params, method, target_len=3)]
        edges = [build_graph(tables, q, params, method).edges for q in queries]
        return dtypes, (whole, prefix, edges, texts)

    @pytest.mark.parametrize("method", sorted(BRUTE_FORCE))
    @pytest.mark.parametrize("n_tables", [1, 2])
    def test_int32_tables_equal_int16_tables(self, method, n_tables, tmp_path):
        for seed in range(4):
            narrow, want = self.outcome(seed, method, n_tables, tmp_path)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(corpus_io, "_id_dtype", lambda n: np.int32)
                wide, got = self.outcome(seed, method, n_tables, tmp_path)
            assert (narrow, wide) == ({np.dtype(np.int16)}, {np.dtype(np.int32)})
            assert got == want


class TestNeighbourRowsReuse:
    """One table reused across k and method ranks as fresh tables do, and
    keeps only the rows of the last k it was asked for."""

    SPEC = SynthSpec(n_groups=8, group_size=4, dims=8, n_spaces=2,
                     intra_spread=0.25, inter_spread=1.0, agreement=0.7, seed=3)

    @staticmethod
    def outcome(tables, k, method):
        """Whole lists, 3-id prefixes and each query's graph arrays, weights as bytes."""
        params, queries = GraphParams(k=k), list(range(tables[0].n))
        whole = rerank_batch(tables, queries, params, method)
        prefix = rerank_batch(tables, queries, params, method, target_len=3)
        graphs = [build_graph(tables, q, params, method) for q in queries]
        arrays = [(g.ids.tolist(), g.src.tolist(), g.dst.tolist(), g.weight.tobytes())
                  for g in graphs]
        return whole, prefix, arrays

    @pytest.mark.parametrize("n_tables", [1, 2])
    def test_reused_tables_equal_fresh_tables(self, n_tables):
        spaces, _ = synth_generate(self.SPEC)
        lists = [build_rank_table(m).lists for m in spaces[:n_tables]]
        reused = [corpus_io.RankTable(a) for a in lists]
        steps = [(5, "directed"), (10, "directed"), (5, "directed"), (5, "undirected"),
                 (10, "undirected"), (5, "undirected"), (5, "directed"), (10, "undirected"),
                 (10, "directed")]
        for k, method in steps:
            fresh = [corpus_io.RankTable(a) for a in lists]
            assert self.outcome(reused, k, method) == self.outcome(fresh, k, method)

    def test_sweep_keeps_one_k(self):
        spaces, truth = synth_generate(self.SPEC)
        tables = [build_rank_table(m) for m in spaces]
        n = tables[0].n
        for method in ("undirected", "directed"):
            evaluation.sweep_k(tables, truth, GraphParams(k=5), [5, 20, 31, 7], method=method)
        for table in tables:
            rows = table._rows
            assert rows.k == 7
            # the last sweep was directed, so no counts: int16 ids and
            # reverse ranks, 4 bytes an entry
            assert rows.inter is None
            assert rows.top.nbytes + rows.rev.nbytes == 4 * n * 7

    def test_rejected_k_leaves_rows(self):
        table = build_rank_table(synth_generate(self.SPEC)[0][0])
        kept = table.neighbour_rows(4, jaccard=True)
        for k in (0, table.n):
            with pytest.raises(ValueError):
                table.neighbour_rows(k)
        with pytest.raises(ValueError, match="exceeds corpus bound"):
            rerank_batch([table], [0], GraphParams(k=table.n), "undirected")
        assert table._rows is kept
        assert table.neighbour_rows(4) is kept

    def test_builders_read_no_positions(self):
        table = build_rank_table(synth_generate(self.SPEC)[0][0])
        want = self.outcome([table], 6, "undirected")[2], self.outcome([table], 6, "directed")[2]
        table.neighbour_rows(6, jaccard=True)
        object.__setattr__(table, "positions", None)
        queries = list(range(table.n))
        for method, edges in zip(("undirected", "directed"), want):
            graphs = [build_graph([table], q, GraphParams(k=6), method) for q in queries]
            assert [(g.ids.tolist(), g.src.tolist(), g.dst.tolist(), g.weight.tobytes())
                    for g in graphs] == edges

    def test_equality_compares_lists_only(self):
        spaces, _ = synth_generate(self.SPEC)
        lists = build_rank_table(spaces[0]).lists
        a, b = corpus_io.RankTable(lists), corpus_io.RankTable(lists.copy())
        other = build_rank_table(spaces[1])
        a.neighbour_rows(4, jaccard=True)
        assert a == b and b == a
        b.neighbour_rows(9)
        assert a == b
        assert a != other
        assert [f.name for f in dataclasses.fields(corpus_io.RankTable)] == ["lists"]
