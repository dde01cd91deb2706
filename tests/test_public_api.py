"""The package's public names, fixed so that removed helpers cannot return unnoticed."""

import importlib
import inspect

import pytest

import graphrerank
from graphrerank.fusion import fuse
from graphrerank.graph import ImageGraph

MODULES = ["corpus_io", "evaluation", "features", "fusion", "graph", "ranking"]

PACKAGE_EXPORTS = {
    "FeatureMatrix",
    "FormatError",
    "GraphParams",
    "GroundTruth",
    "ImageGraph",
    "MetricReport",
    "RankTable",
    "RankedList",
    "RawImage",
    "SynthSpec",
    "average_precision",
    "build_directed_graph",
    "build_rank_table",
    "build_undirected_graph",
    "evaluate",
    "fuse",
    "greedy_rank",
    "hsv_histogram",
    "jaccard_weight",
    "load_feature_matrix",
    "load_ground_truth",
    "load_ppm",
    "load_rank_table",
    "normalize_histogram",
    "ns_score",
    "rank_of",
    "rank_weight",
    "reciprocal",
    "rerank",
    "save_feature_matrix",
    "save_ground_truth",
    "save_rank_table",
    "sweep_k",
    "synth_generate",
}

REMOVED = ["neighbors", "bfs_depths", "decay", "load_name_map", "save_name_map"]


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


def test_image_graph_has_one_constructor():
    params = list(inspect.signature(ImageGraph).parameters)
    assert params == ["query", "ids", "src", "dst", "weight", "directed"]
    assert not hasattr(ImageGraph, "from_arrays")
