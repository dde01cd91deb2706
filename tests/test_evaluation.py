import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphrerank import ranking
from graphrerank.corpus_io import GroundTruth, SynthSpec, synth_generate
from graphrerank.evaluation import (
    MetricReport,
    average_precision,
    evaluate,
    ns_score,
    per_query_tsv,
    reports_to_tsv,
    sweep_k,
)
from graphrerank.features import build_rank_table
from graphrerank.graph import GraphParams
from graphrerank.ranking import RankedList, rerank

from conftest import random_rank_table


def ranked_with_relevant_at(positions, n_relevant, length=None):
    """Query 0; relevant ids 1..n_relevant placed at the given 1-based positions."""
    length = length or max(positions, default=0)
    order = []
    rel_iter = iter(range(1, n_relevant + 1))
    filler = itertools.count(1000)
    for p in range(1, length + 1):
        order.append(next(rel_iter) if p in positions else next(filler))
    return RankedList(0, tuple(order)), set(range(1, n_relevant + 1))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        ranked, rel = ranked_with_relevant_at({1, 2, 3}, 3, length=10)
        assert average_precision(ranked, rel) == 1.0

    def test_positions_one_and_three(self):
        ranked, rel = ranked_with_relevant_at({1, 3}, 2, length=5)
        assert average_precision(ranked, rel) == pytest.approx(5 / 6)

    def test_nothing_retrieved(self):
        ranked, rel = ranked_with_relevant_at(set(), 2, length=5)
        assert average_precision(ranked, rel) == 0.0

    def test_query_never_counts_as_relevant(self):
        ranked = RankedList(0, (1, 2))
        assert average_precision(ranked, {0, 1}) == 1.0

    def test_empty_effective_relevant_rejected(self):
        ranked = RankedList(0, (1, 2))
        with pytest.raises(ValueError):
            average_precision(ranked, {0})

    def test_tail_permutation_invariance(self):
        a, rel = ranked_with_relevant_at({2, 3}, 2, length=8)
        tail = list(a.order[3:])
        b = RankedList(0, a.order[:3] + tuple(reversed(tail)))
        assert average_precision(a, rel) == average_precision(b, rel)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_never_exceeds_one(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 30))
        n_rel = int(rng.integers(1, length + 1))
        positions = set(
            int(p) + 1 for p in rng.choice(length, size=rng.integers(0, n_rel + 1), replace=False)
        )
        ranked, rel = ranked_with_relevant_at(positions, n_rel, length=length)
        assert 0.0 <= average_precision(ranked, rel) <= 1.0


class TestNsScore:
    def test_perfect_group_retrieval(self):
        ranked = RankedList(0, (1, 2, 3, 9, 8))
        assert ns_score(ranked, 0, {0, 1, 2, 3}) == 4.0

    def test_no_groupmate_retrieved(self):
        ranked = RankedList(0, (9, 8, 7, 1))
        assert ns_score(ranked, 0, {0, 1, 2, 3}) == 1.0

    def test_integer_valued(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            order = tuple(int(x) for x in rng.permutation(np.arange(1, 10)))
            score = ns_score(RankedList(0, order), 0, {0, 1, 2, 3})
            assert score == int(score)

    def test_random_permutation_expectation(self):
        # closed form: 1 + 3 * 3/(n-1) for group size 4
        rng = np.random.default_rng(123)
        n = 40
        total = 0.0
        trials = 20000
        for _ in range(trials):
            order = tuple(int(x) for x in rng.permutation(np.arange(1, n)))
            total += ns_score(RankedList(0, order), 0, {0, 1, 2, 3})
        expectation = 1 + 3 * 3 / (n - 1)
        assert total / trials == pytest.approx(expectation, abs=0.02)

    def test_exhaustive_six_image_corpus(self):
        relevant = {0, 1, 2, 3}
        for perm in itertools.permutations(range(1, 6)):
            naive = 1 + sum(1 for x in perm[:3] if x in relevant and x != 0)
            assert ns_score(RankedList(0, perm), 0, relevant) == naive

    @pytest.mark.parametrize("with_query", [False, True])
    @pytest.mark.parametrize("kind", ["set", "list", "generator", "numpy"])
    def test_relevant_of_any_iterable_gives_naive_value(self, kind, with_query):
        rng = np.random.default_rng(11)
        for _ in range(200):
            order = tuple(int(x) for x in rng.permutation(np.arange(1, 12))[:6])
            ids = rng.choice(12, size=int(rng.integers(0, 6)), replace=False)
            ids = [int(i) for i in ids if with_query or i != 0] + ([0] if with_query else [])
            naive = 1 + sum(1 for x in order[:3] if x in ids and x != 0)
            relevant = {
                "set": lambda: set(ids),
                "list": lambda: list(ids) + list(ids),  # repeats count once
                "generator": lambda: (i for i in ids),
                "numpy": lambda: np.array(ids, dtype=np.int64),
            }[kind]()
            assert ns_score(RankedList(0, order), 0, relevant) == naive


class TestMetricReport:
    def test_aggregate_is_exact_mean(self):
        report = MetricReport("ns", "baseline", 10, 0.8, 2, {0: 1.0, 1: 3.0, 2: 2.0})
        assert report.aggregate == (1.0 + 3.0 + 2.0) / 3

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            MetricReport("ns", "baseline", 10, 0.8, 2, {}).aggregate

    def test_tsv_shape(self):
        reports = [
            MetricReport("ns", "baseline", 10, 0.8, 2, {0: 1.0}),
            MetricReport("ns", "rerank-directed", 10, 0.8, 2, {0: 2.0}),
        ]
        lines = reports_to_tsv(reports).splitlines()
        assert lines[0] == "metric\tmethod\tk\talpha0\tdepth\tvalue"
        assert len(lines) == 3
        assert lines[1].split("\t") == ["ns", "baseline", "10", "0.8", "2", "1.000000"]

    def test_per_query_tsv(self):
        report = MetricReport("ns", "baseline", 10, 0.8, 2, {1: 1.0, 0: 2.0})
        lines = per_query_tsv(report).splitlines()
        assert lines == ["query\tvalue", "0\t2.000000", "1\t1.000000"]


def synth_tables(spec):
    spaces, gt = synth_generate(spec)
    return [build_rank_table(m) for m in spaces], gt


class TestEvaluate:
    @pytest.mark.parametrize("method", ["directed", "undirected"])
    def test_k_beyond_corpus_rejected(self, method):
        # the report carries params.k, so a k the corpus cannot supply is an
        # error rather than a silently smaller k
        spec = SynthSpec(n_groups=3, group_size=2, dims=4, n_spaces=2, seed=2)
        tables, gt = synth_tables(spec)
        assert evaluate(tables, gt, GraphParams(k=5), method=method)[1].k == 5
        with pytest.raises(ValueError, match="k=6 exceeds corpus bound 5"):
            evaluate(tables, gt, GraphParams(k=6), method=method)

    @pytest.mark.parametrize("metric", ["ns", "map"])
    def test_no_tables_rejected(self, metric):
        # tables[0] was read first: a bare IndexError
        with pytest.raises(ValueError, match="need at least one rank table"):
            evaluate([], GroundTruth({0: {1}}), GraphParams(k=1), metric=metric)

    @pytest.mark.parametrize("metric", ["ns", "map"])
    def test_query_outside_corpus_rejected(self, metric):
        # the builders' query check, not a bare IndexError from the baseline row
        tables = [random_rank_table(np.random.default_rng(4), 20)]
        gt = GroundTruth({0: {1, 2}, 20: {1, 2}})
        with pytest.raises(ValueError, match="query 20 out of range"):
            evaluate(tables, gt, GraphParams(k=5), metric=metric)

    def test_rerank_at_least_baseline_on_clean_corpus(self):
        spec = SynthSpec(
            n_groups=10, group_size=4, dims=6, n_spaces=1,
            intra_spread=0.05, inter_spread=1.0, agreement=1.0, seed=3,
        )
        tables, gt = synth_tables(spec)
        for metric in ("ns", "map"):
            baseline, reranked = evaluate(tables, gt, GraphParams(k=5), metric=metric)
            assert reranked.aggregate >= baseline.aggregate

    def test_group_size_one_degenerate_ns(self):
        spec = SynthSpec(n_groups=8, group_size=1, dims=4, n_spaces=1, seed=4)
        tables, gt = synth_tables(spec)
        for method in ("directed", "undirected"):
            baseline, reranked = evaluate(
                tables, gt, GraphParams(k=3), method=method, metric="ns"
            )
            assert baseline.aggregate == 1.0
            assert reranked.aggregate == 1.0

    def test_self_fusion_matches_single_table(self):
        # doubling every weight cannot change any argmax
        spec = SynthSpec(
            n_groups=8, group_size=4, dims=6, n_spaces=1,
            intra_spread=0.1, inter_spread=1.0, agreement=0.8, seed=9,
        )
        tables, gt = synth_tables(spec)
        params = GraphParams(k=6)
        _, single = evaluate(tables, gt, params, metric="ns")
        _, fused = evaluate([tables[0], tables[0]], gt, params, metric="ns")
        assert fused.per_query == single.per_query

    @pytest.mark.parametrize("metric", ["ns", "map"])
    def test_values_independent_of_chunk_size(self, metric):
        spec = SynthSpec(n_groups=6, group_size=4, dims=4, n_spaces=2, agreement=0.7, seed=5)
        tables, gt = synth_tables(spec)
        want = evaluate(tables, gt, GraphParams(k=5), metric=metric)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranking, "CHUNK", 5)
            got = evaluate(tables, gt, GraphParams(k=5), metric=metric)
        assert [r.per_query for r in got] == [r.per_query for r in want]

    def test_method_labels(self):
        spec = SynthSpec(n_groups=4, group_size=2, dims=4, n_spaces=2, seed=1)
        tables, gt = synth_tables(spec)
        _, single = evaluate([tables[0]], gt, GraphParams(k=3))
        _, fused = evaluate(tables, gt, GraphParams(k=3))
        assert single.method == "rerank-directed"
        assert fused.method == "rerank-directed-fused"

    def test_unknown_metric_rejected(self):
        spec = SynthSpec(n_groups=4, group_size=2, dims=4, n_spaces=1, seed=1)
        tables, gt = synth_tables(spec)
        with pytest.raises(ValueError):
            evaluate(tables, gt, GraphParams(k=3), metric="accuracy")

    def test_repeated_evaluate_gives_equal_per_query_values(self):
        spec = SynthSpec(
            n_groups=6, group_size=4, dims=4, n_spaces=1, agreement=0.7, seed=13
        )
        tables, gt = synth_tables(spec)
        first = evaluate(tables, gt, GraphParams(k=5))
        second = evaluate(tables, gt, GraphParams(k=5))
        assert first[1].per_query == second[1].per_query

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        method=st.sampled_from(["directed", "undirected"]),
        n_tables=st.integers(1, 2),
        metric=st.sampled_from(["ns", "map"]),
    )
    def test_values_equal_metric_of_full_orders(self, seed, method, n_tables, metric):
        # evaluate ranks only NS_DEPTH deep for "ns"; full lists must score the same
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        tables = [random_rank_table(rng, n) for _ in range(n_tables)]
        groups = {q: set(range(q - q % 4, min(q - q % 4 + 4, n))) for q in range(n)}
        gt = GroundTruth({q: rel for q, rel in groups.items() if metric == "ns" or len(rel) > 1})
        params = GraphParams(k=int(rng.integers(1, n)), depth=int(rng.integers(1, 4)))

        def value(ranked, q):
            rel = gt.relevant[q]
            return ns_score(ranked, q, rel) if metric == "ns" else average_precision(ranked, rel)

        baseline, reranked = evaluate(tables, gt, params, method, metric)
        for q in gt.queries:
            full = rerank(tables, q, params, method)
            assert reranked.per_query[q] == value(full, q)
            assert baseline.per_query[q] == value(RankedList(q, tables[0].lists[q]), q)


class TestSweepK:
    def test_singleton_sweep_equals_evaluate(self):
        spec = SynthSpec(
            n_groups=6, group_size=4, dims=4, n_spaces=1, agreement=0.9, seed=2
        )
        tables, gt = synth_tables(spec)
        params = GraphParams(k=10)
        reports = sweep_k(tables, gt, params, [10])
        _, want = evaluate(tables, gt, params)
        assert len(reports) == 1
        assert reports[0].per_query == want.per_query

    def test_row_per_k(self):
        spec = SynthSpec(
            n_groups=6, group_size=4, dims=4, n_spaces=1, agreement=0.9, seed=2
        )
        tables, gt = synth_tables(spec)
        reports = sweep_k(tables, gt, GraphParams(k=5), [3, 5, 8])
        assert [r.k for r in reports] == [3, 5, 8]
        assert len(reports_to_tsv(reports).splitlines()) == 4

    def test_tables_from_iterator(self):
        spec = SynthSpec(
            n_groups=6, group_size=4, dims=4, n_spaces=2, agreement=0.9, seed=2
        )
        tables, gt = synth_tables(spec)
        want = sweep_k(tables, gt, GraphParams(k=5), [3, 5])
        got = sweep_k(iter(tables), gt, GraphParams(k=5), [3, 5])
        assert [r.per_query for r in got] == [r.per_query for r in want]
        assert [r.method for r in got] == ["rerank-directed-fused"] * 2

    def test_k_values_from_generator(self):
        spec = SynthSpec(n_groups=3, group_size=2, dims=4, n_spaces=1, seed=2)
        tables, gt = synth_tables(spec)
        want = sweep_k(tables, gt, GraphParams(k=2), [2, 3])
        got = sweep_k(tables, gt, GraphParams(k=2), (k for k in [2, 3]))
        assert [r.k for r in got] == [2, 3]
        assert [r.per_query for r in got] == [r.per_query for r in want]

    def test_k_beyond_corpus_rejected(self):
        spec = SynthSpec(n_groups=3, group_size=2, dims=4, n_spaces=1, seed=2)
        tables, gt = synth_tables(spec)
        with pytest.raises(ValueError):
            sweep_k(tables, gt, GraphParams(k=2), [2, 50])

    def test_no_tables_rejected(self):
        with pytest.raises(ValueError, match="need at least one rank table"):
            sweep_k(iter([]), GroundTruth({0: {1}}), GraphParams(k=1), [1])

    def test_directed_flatter_than_undirected_across_k(self):
        # qualitative robustness gap between the two weighting schemes: on a
        # fused two-space corpus with partial agreement, blowing k up drags
        # the Jaccard weights down much harder than the reciprocal-rank ones
        spec = SynthSpec(
            n_groups=50, group_size=4, dims=8, n_spaces=2,
            intra_spread=0.25, inter_spread=1.0, agreement=0.7, seed=0,
        )
        tables, gt = synth_tables(spec)
        params = GraphParams(k=10)
        directed = sweep_k(tables, gt, params, [10, 60], method="directed")
        undirected = sweep_k(tables, gt, params, [10, 60], method="undirected")
        d_drop = directed[0].aggregate - directed[1].aggregate
        u_drop = undirected[0].aggregate - undirected[1].aggregate
        assert u_drop > d_drop
