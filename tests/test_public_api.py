"""The package's public names, fixed so that removed helpers cannot return unnoticed."""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import graphrerank
from graphrerank.cli import build_parser
from graphrerank.evaluation import evaluate, sweep_k
from graphrerank.fusion import fuse
from graphrerank.graph import GraphParams, ImageGraph
from graphrerank.ranking import RankedList, greedy_rank, rerank

MODULES = ["corpus_io", "evaluation", "features", "fusion", "graph", "ranking"]

PACKAGE_EXPORTS = {
    "GraphParams",
    "SynthSpec",
    "build_rank_table",
    "evaluate",
    "rerank",
    "synth_generate",
}

REMOVED = [
    "neighbors",
    "bfs_depths",
    "decay",
    "load_name_map",
    "save_name_map",
    # one graph builder: ranking.build_graph([table], query, params, method)
    "build_directed_graph",
    "build_undirected_graph",
    # scalar oracles, kept in tests/conftest.py
    "rank_of",
    "reciprocal",
    "rank_weight",
    "jaccard_weight",
    # the path follows the request: rerank_batch ranks a prefix by lockstep
    "LAZY_LEN",
    # atomic_write_text takes the lines of id_lines as they are
    "id_lines_text",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_are_fixed():
    public = {
        name
        for name, value in vars(graphrerank).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == PACKAGE_EXPORTS


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"graphrerank.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), f"graphrerank.{module}.__all__ lists missing {name}"


@pytest.mark.parametrize("module", ["graphrerank"] + [f"graphrerank.{m}" for m in MODULES])
def test_removed_helpers_stay_removed(module):
    mod = importlib.import_module(module)
    for name in REMOVED:
        assert not hasattr(mod, name)


def test_fuse_takes_only_graphs():
    assert list(inspect.signature(fuse).parameters) == ["graphs"]


def test_rerank_ranks_whole_lists():
    # prefixes come from rerank_batch(..., target_len) or greedy_rank
    assert list(inspect.signature(rerank).parameters) == ["tables", "query", "params", "method"]


def test_image_graph_has_one_constructor():
    params = list(inspect.signature(ImageGraph).parameters)
    assert params == ["query", "ids", "src", "dst", "weight", "directed"]
    assert not hasattr(ImageGraph, "from_arrays")


def test_ranked_list_has_no_provenance():
    assert tuple(f.name for f in dataclasses.fields(RankedList)) == ("query", "order")
    assert "provenance" not in inspect.signature(greedy_rank).parameters


def test_graph_params_fields_are_fixed():
    assert tuple(f.name for f in dataclasses.fields(GraphParams)) == ("k", "alpha0", "depth")


@pytest.mark.parametrize("func", [greedy_rank, rerank, evaluate, sweep_k])
def test_ranking_has_no_score_option(func):
    params = inspect.signature(func).parameters
    assert "score" not in params
    assert all(p.kind != p.VAR_KEYWORD for p in params.values())


@pytest.mark.parametrize("flag", [["--score", "max"], ["--max-nodes", "5"]], ids=lambda f: f[0])
def test_cli_rejects_removed_flags(flag):
    argv = ["rerank", "--tables", "t.txt", "--out", "o.txt", *flag]
    build_parser().parse_args(argv[:-2])  # valid without the flag
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
