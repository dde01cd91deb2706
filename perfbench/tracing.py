"""In-memory span tracer for the benchmark's traced run.

Spans come from wrappers that the benchmark installs around module
attributes of `graphrerank` (for example `ranking.build_directed_graph`,
the name `ranking.rerank` looks up at call time). The program itself is not
changed, and spans nest the way the program really calls: a span's parent
is the innermost open span on its thread, and a span opened on a worker
thread with nothing open (a pool task inside `evaluate`) takes the
innermost open span of the thread that created the tracer, which is the
thread that is waiting on the pool.

Spans are kept in memory and written out as JSON lines after the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack = []

    def _stack(self):
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._root_stack[-1].id
            except IndexError:
                parent = None
        span = Span(next(self._ids), name, time.perf_counter_ns(), 0, parent,
                    threading.get_ident())
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter_ns()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    @contextmanager
    def span(self, name):
        yield None


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children on other threads may overlap each other; the union counts that
    wall time once. Child intervals are clipped to the parent's.
    """
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        covered = union_length([(a, b) for a, b in kids if b > a])
        out[s.id] = s.duration - covered
    return out


# What each wrapper counts at its boundary, from its arguments and result.
# Each is O(1) per call, so it adds nothing that grows with the graph.
def _count_graph(args, result, counts):
    counts["nodes"] = len(result.nodes)
    counts["edges"] = len(result.edges)


def _count_fuse(args, result, counts):
    counts["edges_in"] = sum(len(g.edges) for g in args[0])
    counts["edges_out"] = len(result.edges)


def _count_greedy(args, result, counts):
    # Greedy expansion inserts every graph node except the query (each is
    # reachable from the query by construction of the BFS); the rest of the
    # order is completed from the initial list.
    counts["graph_ranked"] = min(len(args[0].nodes) - 1, len(result.order))
    counts["ranked"] = len(result.order)


# (module, attribute, span name, counter). Several attributes may name one
# function: `evaluation.rerank` and `ranking.rerank` are both `ranking.rerank`.
TARGETS = (
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "rerank", "ranking.rerank", None),
    ("evaluation", "ns_score", "evaluation.ns_score", None),
    ("ranking", "rerank", "ranking.rerank", None),
    ("ranking", "build_directed_graph", "graph.build_directed_graph", _count_graph),
    ("ranking", "build_undirected_graph", "graph.build_undirected_graph", _count_graph),
    ("ranking", "fuse", "fusion.fuse", _count_fuse),
    ("ranking", "greedy_rank", "ranking.greedy_rank", _count_greedy),
    ("features", "build_rank_table", "features.build_rank_table", None),
    ("corpus_io", "load_rank_table", "corpus_io.load_rank_table", None),
)


def wrap(tracer, name, fn, counter=None):
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(args, result, span.counts)
            return result
        finally:
            tracer.end(span)

    return traced


@contextmanager
def instrumented(tracer):
    """Install span wrappers on the targets that exist; restore on exit.

    A target the program no longer has is skipped: its layer shows 0 calls.
    """
    saved = []
    try:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(f"graphrerank.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(tracer, name, fn, counter))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
