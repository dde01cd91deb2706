"""Tests for the benchmark's own logic: self-time arithmetic, the percentile
rule and the output checks. Run with `python3 -m pytest perfbench/tests -q`."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import min_samples, ns_value, order_problems, percentile, samples_beyond  # noqa: E402
from measure import END_TO_END_UNITS, MIN_ROUNDS, PER_LAYER_UNITS, Run, untraced  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def span(id, start, end, parent=None, thread=1):
    return Span(id, f"s{id}", start, end, parent, thread)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(3, 4), (0, 10)]) == 10


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        span(1, 0, 100),
        span(2, 10, 40, parent=1),
        span(3, 30, 60, parent=1, thread=2),  # overlaps span 2 on another thread
        span(4, 12, 20, parent=2),  # grandchild: not subtracted from span 1
        span(5, 90, 120, parent=1),  # runs past its parent: clipped at 100
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (50 + 10)
    assert selfs[2] == 30 - 8
    assert selfs[3] == 30
    assert selfs[4] == 8
    assert selfs[5] == 30


def test_worker_thread_spans_attach_to_the_waiting_span():
    tracer = Tracer()

    def task(_):
        with tracer.span("task"):
            with tracer.span("inner"):
                pass

    with tracer.span("batch"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(task, range(4)))
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (batch,) = by_name["batch"]
    task_ids = {s.id for s in by_name["task"]}
    assert all(s.parent == batch.id for s in by_name["task"])
    assert all(s.parent in task_ids for s in by_name["inner"])
    assert all(s.thread != threading.get_ident() for s in by_name["task"])


def test_every_sample_leaves_ten_queries_beyond_the_p90():
    assert all(w.sample >= min_samples(90) for w in WORKLOADS.values())


def test_p90_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples(50) == 20
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([7.0], 90) == 7.0


@pytest.mark.parametrize(
    "order, problem",
    [
        ((1, 2, 3), None),
        ((1, 2, 2), "duplicate"),
        ((1, 0, 3), "contains its query"),
        ((1, 2, 9), "outside"),
        ((1, 2), "length"),
    ],
)
def test_order_problems(order, problem):
    found = order_problems(0, order, 4, 3)
    if problem is None:
        assert found == []
    else:
        assert any(problem in p for p in found)


def test_ns_value_counts_query_and_groupmates_in_top_three():
    assert ns_value(0, (1, 2, 3, 4), [0, 1, 2, 3]) == 4.0
    assert ns_value(0, (5, 1, 6, 2), [0, 1, 2, 3]) == 2.0


def fake_run(tmp_path, orders, evaluate_values):
    """A Run over a 4-image corpus whose program returns the given orders."""
    (tmp_path / "inputs.json").write_text(json.dumps({
        "files": [], "queries": [0, 1], "relevant": {"0": [0, 1], "1": [0, 1]},
    }))
    ranking = SimpleNamespace(
        rerank=lambda tables, q, params, method: SimpleNamespace(order=orders[q]))
    evaluation = SimpleNamespace(
        evaluate=lambda *a, **kw: (None, SimpleNamespace(per_query=evaluate_values)))
    corpus_io = SimpleNamespace(GroundTruth=dict, FeatureMatrix=None)
    workload = SimpleNamespace(k=1, method="directed", from_text=True)
    program = (corpus_io, evaluation, None, ranking, lambda k: None)
    return Run(workload, tmp_path, program)


def test_valid_orders_pass(tmp_path):
    run = fake_run(tmp_path, {0: (1, 2, 3), 1: (0, 3, 2)}, {0: 2.0, 1: 2.0})
    tables = [SimpleNamespace(n=4)]
    run.closed_loop(tables)
    run.closed_loop(tables)
    run.check_batch(run.batch(tables)[1])
    assert (run.attempted, run.failed) == (6, 0)


def test_corrupted_order_is_caught(tmp_path):
    run = fake_run(tmp_path, {0: (1, 1, 3), 1: (0, 3, 2)}, {0: 2.0, 1: 2.0})
    tables = [SimpleNamespace(n=4)]
    run.closed_loop(tables)
    run.closed_loop(tables)
    run.check_batch(run.batch(tables)[1])
    # both calls for query 0 fail the order check; its batch value then has
    # no valid order to compare against
    assert run.failed == 3
    assert 0 not in run.orders


def test_evaluate_disagreeing_with_rerank_is_caught(tmp_path):
    run = fake_run(tmp_path, {0: (1, 2, 3), 1: (0, 3, 2)}, {0: 2.0, 1: 1.0})
    tables = [SimpleNamespace(n=4)]
    run.closed_loop(tables)
    run.check_batch(run.batch(tables)[1])
    assert run.failed == 1


def test_untraced_keeps_one_best_latency_per_query(tmp_path):
    run = fake_run(tmp_path, {0: (1, 2, 3), 1: (0, 3, 2)}, {0: 2.0, 1: 2.0})
    run.timed_set_up = lambda: ([SimpleNamespace(n=4)], 0.5)
    values, samples, rounds = untraced(run, 0)
    assert (samples, rounds) == (2, MIN_ROUNDS)
    assert run.failed == 0
    # each round: one evaluate() over both queries (one chunk), two rerank() calls
    assert run.attempted == MIN_ROUNDS * 4
    assert values["setup_s"] == 0.5
    assert values["ns_mean"] == 2.0
    assert 0 < values["rerank_ms_p50"] <= values["rerank_ms_p90"]
    assert values["eval_qps"] > 0
