"""Golden CLI bytes: fixed inputs, fixed SHA-256 of every output file.

The hashes pin the exact bytes that `rerank`, `eval --per-query` and
`graph-dump` write for one seeded two-space corpus, so a refactor of the
build -> fuse -> rank path that changes any output byte fails here. Update a
hash only for a deliberate change of output semantics, and say so in the
change log.
"""

import hashlib

import pytest

from graphrerank.cli import main

SPACES = ("space0_ranks.txt", "space1_ranks.txt")

# case -> (CLI arguments after the table list, output files to hash)
CASES = {
    "rerank-fused": (["rerank", "--k", "5"], ["out"]),
    "rerank-single-undirected": (["rerank", "--k", "5", "--method", "undirected"], ["out"]),
    "eval-fused-max": (["eval", "--k", "5"], ["out", "per_query"]),
    "dump-single-directed": (["graph-dump", "--k", "5", "--method", "directed"], ["out"]),
    "dump-single-undirected": (["graph-dump", "--k", "5", "--method", "undirected"], ["out"]),
    "dump-fused-directed": (["graph-dump", "--k", "5", "--method", "directed"], ["out"]),
    "dump-fused-undirected": (["graph-dump", "--k", "5", "--method", "undirected"], ["out"]),
}

GOLDEN = {
    "dump-fused-directed": {
        "out": "381e2c5afec747842deebb12d7a8fc0ec56caa1e6a57c90fc3542fa08b3876d1",
    },
    "dump-fused-undirected": {
        "out": "2231129155b8e73a3eac8ca8c67defca4e1394c9321ec11eafea6b38e1a5e127",
    },
    "dump-single-directed": {
        "out": "693900edd68da841968852b186598a9f4e479f2f6a76c1d8ec509e5c09d38e73",
    },
    "dump-single-undirected": {
        "out": "6e4480db2fdffc3068c96c19689c7190f65e613819cd9b6bbc47a6aca6b5e52b",
    },
    "eval-fused-max": {
        "out": "e76b1b3a1c68c253f480c90191be82ddf0b67a1fdc9ff00a47dcaeb5890a1837",
        "per_query": "78c65ef4fac5527ed7cdab7432221915a5462a06c57da6a6b848b6fe23892186",
    },
    "rerank-fused": {
        "out": "a9d39e6f4973b521a083869978c81d20937d9547ca3a0d861cbac830208502b3",
    },
    "rerank-single-undirected": {
        "out": "3a3303766484f4a7e5da1732714f5300fcf87325a23058309f7d3d491ac7d14c",
    },
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "corpus"
    assert main([
        "synth", "--out-dir", str(out), "--groups", "8", "--group-size", "4",
        "--dims", "4", "--spaces", "2", "--agreement", "0.6", "--seed", "11",
    ]) == 0
    return out


def run_case(case, corpus, tmp_path):
    argv, outputs = CASES[case]
    n_tables = 1 if "single" in case else 2
    tables = [str(corpus / name) for name in SPACES[:n_tables]]
    paths = {name: tmp_path / f"{case}.{name}" for name in outputs}
    full = [argv[0], "--tables", *tables, "--out", str(paths["out"]), *argv[1:]]
    if argv[0] == "eval":
        full += ["--gt", str(corpus / "ground_truth.txt"),
                 "--per-query", str(paths["per_query"])]
    if argv[0] == "graph-dump":
        full += ["--query", "3"]
    assert main(full) == 0
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, corpus, tmp_path):
    assert run_case(case, corpus, tmp_path) == GOLDEN[case]
