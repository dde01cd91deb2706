"""End-to-end acceptance gate.

Eight criteria covering the exact fixture weights, graph structure, the
greedy-ranking oracle, metric oracles, fusion improvement, robustness to
large k, the invariant property suites, and truncated-storage accounting.
Each test prints a single ``criterion N: PASS``/``FAIL`` line.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from graphrerank.corpus_io import (
    FeatureMatrix,
    SynthSpec,
    load_rank_table,
    save_rank_table,
    synth_generate,
)
from graphrerank.evaluation import average_precision, evaluate, ns_score
from graphrerank.features import build_rank_table, hsv_histogram, RawImage
from graphrerank.fusion import fuse
from graphrerank.graph import GraphParams
from graphrerank.ranking import RankedList, build_graph, greedy_rank

from conftest import jaccard_weight, random_rank_table, rank_weight
from test_fusion import graphs_same, random_graph
from test_ranking import random_distinct_graph, reference_greedy


def report(n, ok):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


# the synthetic corpus used by criteria 5 and 6: two feature spaces over
# 200 images in 50 groups of 4, each space coherent for 70% of the groups
CORPUS = dict(
    n_groups=50, group_size=4, dims=8, n_spaces=2,
    intra_spread=0.25, inter_spread=1.0, agreement=0.7,
)
SEEDS = range(5)


def corpus_tables(seed):
    spaces, gt = synth_generate(SynthSpec(seed=seed, **CORPUS))
    return [build_rank_table(m) for m in spaces], gt


def test_criterion_1_fixture_edge_weights(weight_fixture_table):
    t = weight_fixture_table
    checks = [
        (jaccard_weight(t, 1, 2, 3, 1.0), 1.0),
        (jaccard_weight(t, 1, 3, 3, 1.0), 0.0),
        (jaccard_weight(t, 1, 2, 5, 1.0), 2.0 / 3.0),
        (jaccard_weight(t, 1, 3, 5, 1.0), 1.0),
        (rank_weight(t, 1, 2, 3, 1.0), 0.25),
        (rank_weight(t, 1, 2, 5, 1.0), 0.25),
        (rank_weight(t, 1, 3, 5, 1.0), 0.125),
    ]
    report(1, all(abs(got - want) <= 1e-12 for got, want in checks))


def test_criterion_2_fixture_graph_structure(structure_fixture_table):
    params = GraphParams(k=5)
    und = build_graph([structure_fixture_table], 1, params, "undirected")
    dir_ = build_graph([structure_fixture_table], 1, params)
    sub = {1, 2, 3}
    ok = (
        und.nodes & sub == {1, 2}
        and (1, 2) in und.edges
        and 3 in dir_.nodes
        and (2, 3) in dir_.edges
        and dir_.edges[(2, 3)] > 0
    )
    report(2, ok)


def test_criterion_3_greedy_oracle_equivalence():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        graph, initial = random_distinct_graph(rng, max_nodes=12)
        target = len(initial)
        got = greedy_rank(graph, initial, target)
        if list(got.order) != reference_greedy(graph, initial, target):
            ok = False
            break
    report(3, ok)


def test_criterion_4_metric_oracles():
    def ranked(length, rel_positions, rel_ids):
        # query 0; place relevant ids at the given 1-based positions
        order, it, filler = [], iter(rel_ids), itertools.count(1000)
        for p in range(1, length + 1):
            order.append(next(it) if p in rel_positions else next(filler))
        return RankedList(0, tuple(order))

    # (length, 1-based positions of relevant, relevant set, expected AP)
    ap_cases = [
        (1, {1}, {1}, Fraction(1)),
        (2, {1, 2}, {1, 2}, Fraction(1)),
        (2, {1}, {1, 3}, Fraction(1, 2)),
        (3, {1, 3}, {1, 3}, Fraction(5, 6)),
        (2, {2}, {2}, Fraction(1, 2)),
        (5, {5}, {5}, Fraction(1, 5)),
        (4, {2, 4}, {2, 4}, Fraction(1, 2)),
        (3, {1, 2, 3}, {1, 2, 3}, Fraction(1)),
        (4, {2, 3, 4}, {2, 3, 4}, Fraction(23, 36)),
        (5, {1, 5}, {1, 10}, Fraction(7, 10)),
        (5, {1, 3, 5}, {1, 3, 5}, Fraction(34, 45)),
        (5, set(), {1, 2}, Fraction(0)),
        (4, {1, 2, 3, 4}, {1, 2, 3, 4}, Fraction(1)),
        (8, {2, 4, 6, 8}, {2, 4, 6, 8}, Fraction(1, 2)),
        (3, {3}, {3}, Fraction(1, 3)),
        (4, {3, 4}, {3, 4}, Fraction(5, 12)),
        (5, {1, 2, 5}, {1, 2, 10}, Fraction(13, 15)),
        (5, {1, 2, 3, 4}, {1, 2, 3, 4, 10}, Fraction(4, 5)),
        (6, {3, 6}, {5, 6}, Fraction(1, 3)),
        (6, {2, 5, 6}, {2, 3, 100}, Fraction(7, 15)),
        (4, {1, 2}, {1, 2, 7, 8}, Fraction(1, 2)),
        (100, {100}, {100}, Fraction(1, 100)),
    ]
    ok = len(ap_cases) >= 20
    for length, positions, rel, want in ap_cases:
        got = average_precision(ranked(length, positions, sorted(rel)), set(rel))
        ok = ok and abs(got - float(want)) <= 1e-12

    # N-S score: exhaustive over every ordering of a 6-image corpus
    relevant = {0, 1, 2, 3}
    for perm in itertools.permutations(range(1, 6)):
        naive = 1 + sum(1 for x in perm[:3] if x in relevant)
        ok = ok and ns_score(RankedList(0, perm), 0, relevant) == naive
    report(4, ok)


def test_criterion_5_fusion_improves_over_singles():
    n_spaces = CORPUS["n_spaces"]
    singles = np.zeros(n_spaces)
    bases = np.zeros(n_spaces)
    fused = 0.0
    params = GraphParams(k=10)
    for seed in SEEDS:
        tables, gt = corpus_tables(seed)
        for i, t in enumerate(tables):
            baseline, reranked = evaluate([t], gt, params, metric="ns")
            bases[i] += baseline.aggregate
            singles[i] += reranked.aggregate
        fused += evaluate(tables, gt, params, metric="ns")[1].aggregate
    singles /= len(SEEDS)
    bases /= len(SEEDS)
    fused /= len(SEEDS)
    ok = all(fused >= s for s in singles) and all(
        s >= b for s, b in zip(singles, bases)
    )
    report(5, ok)


def test_criterion_6_robustness_to_large_k():
    means = {("directed", 10): 0.0, ("directed", 60): 0.0,
             ("undirected", 10): 0.0, ("undirected", 60): 0.0}
    for seed in SEEDS:
        tables, gt = corpus_tables(seed)
        for (method, k) in means:
            _, reranked = evaluate(
                tables, gt, GraphParams(k=k), method=method, metric="ns"
            )
            means[(method, k)] += reranked.aggregate / len(SEEDS)
    d10, d60 = means[("directed", 10)], means[("directed", 60)]
    u10, u60 = means[("undirected", 10)], means[("undirected", 60)]
    directed_change = abs(d60 - d10) / d10
    undirected_drop = (u10 - u60) / u10
    report(6, directed_change <= 0.05 and undirected_drop > directed_change)


class TestCriterion7Invariants:
    """Property suites; the PASS line is printed once all of them ran."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_eq3_k_stability(self, seed):
        # once an edge qualifies at k, its weight is identical at any k' > k
        rng = np.random.default_rng(seed)
        t = random_rank_table(rng, int(rng.integers(4, 12)))
        i, i2 = rng.choice(t.n, size=2, replace=False)
        k = int(rng.integers(1, t.n - 1))
        w = rank_weight(t, int(i), int(i2), k, 1.0)
        if w > 0:
            for k2 in range(k + 1, t.n):
                assert rank_weight(t, int(i), int(i2), k2, 1.0) == w

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_jaccard_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        t = random_rank_table(rng, int(rng.integers(4, 12)))
        i, i2 = rng.choice(t.n, size=2, replace=False)
        k = int(rng.integers(1, t.n))
        assert jaccard_weight(t, int(i), int(i2), k, 1.0) == jaccard_weight(
            t, int(i2), int(i), k, 1.0
        )

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_fuse_commutativity(self, seed):
        rng = np.random.default_rng(seed)
        gs = [random_graph(rng) for _ in range(3)]
        order = list(rng.permutation(3))
        assert graphs_same(fuse(gs), fuse([gs[i] for i in order]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_fuse_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_graph(rng) for _ in range(3))
        assert graphs_same(fuse([fuse([a, b]), c]), fuse([a, fuse([b, c])]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_fuse_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        gs = [random_graph(rng) for _ in range(int(rng.integers(1, 4)))]
        fused = fuse(gs)
        for g in gs:
            for key, w in g.edges.items():
                assert fused.edges[key] >= w - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_greedy_positive_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        graph, initial = random_distinct_graph(rng)
        c = float(rng.uniform(0.1, 10.0))
        scaled = type(graph)(
            graph.query, graph.ids, graph.src, graph.dst, c * graph.weight, graph.directed
        )
        assert greedy_rank(graph, initial, len(initial)).order == greedy_rank(
            scaled, initial, len(initial)
        ).order

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_rank_table_permutation_validity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        table = build_rank_table(FeatureMatrix(rng.normal(size=(n, 3))))
        # RankTable validates each row is a permutation of the other ids
        assert table.n == n

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_histogram_mass_conservation(self, seed):
        rng = np.random.default_rng(seed)
        w, h = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        bins = int(rng.integers(1, 7))
        img = RawImage(w, h, rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        assert hsv_histogram(img, bins).sum() == w * h

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_rank_table_round_trip(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        table = random_rank_table(rng, int(rng.integers(2, 12)))
        path = tmp_path_factory.mktemp("rt") / "table.txt"
        save_rank_table(table, path)
        assert np.array_equal(load_rank_table(path).lists, table.lists)

    def test_report(self):
        report(7, True)


def test_criterion_8_truncated_storage_is_nk():
    ok = True
    for n in (50, 200):
        rng = np.random.default_rng(n)
        table = random_rank_table(rng, n)
        for k in (5, 10):
            ok = ok and table.truncated(k).size == n * k
    report(8, ok)
