"""Command-line entry point wiring the library into reproducible experiments.

Subcommands: features, ranks, synth, rerank, eval, sweep, graph-dump.
All outputs are written atomically; inputs are never mutated. Numeric flags
follow the rules of the input files: integer flags (and each item of
`sweep`'s comma-separated `--k` list, none of them empty)
`corpus_io._parse_int`, an ASCII decimal integer with an optional sign,
and float flags (`--alpha0`, `features --exponent`,
`synth --intra-spread`, `--inter-spread`, `--agreement`)
`corpus_io._parse_float`, an ASCII decimal float, so `1_0` and `0.8_0` are
errors rather than 10 and 0.8. Every error, a bad numeric flag among them,
is one `error: ...` line on stderr and exit code 1; argparse's own usage
errors (a missing flag, a bad choice) exit with 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus_io, evaluation, features, graph, ranking


def _int_flag(flag, text):
    return corpus_io._parse_int(text, f"{flag}: not a decimal integer {text!r}")


def _float_flag(flag, text):
    return corpus_io._parse_float(text, f"{flag}: not a decimal number {text!r}")


def _int_list(flag, text):
    """The comma-separated decimal integers of `text`; an empty item is an error."""
    items = text.split(",")
    if not any(items):
        raise ValueError(f"{flag} must list at least one value")
    if not all(items):
        raise ValueError(f"{flag}: empty item in {text!r}")
    return [_int_flag(flag, item) for item in items]


# the reader of each numeric flag, by its argparse dest
_NUMERIC_FLAGS = {
    **dict.fromkeys(
        ("k", "depth", "query", "bins", "groups", "group_size", "dims", "spaces", "seed"), _int_flag
    ),
    **dict.fromkeys(("alpha0", "exponent", "intra_spread", "inter_spread", "agreement"), _float_flag),
}


def _read_numeric_flags(args):
    """Replace each numeric flag's text (or default) in `args` by its value."""
    for dest, read in _NUMERIC_FLAGS.items():
        if dest in vars(args):
            setattr(args, dest, read("--" + dest.replace("_", "-"), str(getattr(args, dest))))


def _add_graph_args(p, k_list=False):
    if k_list:
        p.add_argument("--k", dest="k_values", default="10", help="comma-separated k values")
    else:
        p.add_argument("--k", default=10, help="neighbor count")
    p.add_argument("--alpha0", default=graph.GraphParams.alpha0, help="decay base")
    p.add_argument("--depth", default=graph.GraphParams.depth, help="BFS expansion depth")
    p.add_argument("--method", choices=["directed", "undirected"], default="directed")


def _params(args, k=None):
    k = args.k if k is None else k  # sweep passes one k of its list
    return graph.GraphParams(k, args.alpha0, args.depth)


def _load_tables(paths):
    return [corpus_io.load_rank_table(p) for p in paths]


def cmd_features(args):
    manifest = [
        line.strip()
        for line in Path(args.manifest).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    for p in manifest:
        if not Path(p).is_file():
            raise FileNotFoundError(f"manifest entry not found: {p}")
    matrix = features.features_from_manifest(manifest, args.bins, args.exponent)
    corpus_io.save_feature_matrix(matrix, args.out)


def cmd_ranks(args):
    matrix = corpus_io.load_feature_matrix(args.features)
    corpus_io.save_rank_table(features.build_rank_table(matrix), args.out)


def cmd_synth(args):
    spec = corpus_io.SynthSpec(
        n_groups=args.groups,
        group_size=args.group_size,
        dims=args.dims,
        n_spaces=args.spaces,
        intra_spread=args.intra_spread,
        inter_spread=args.inter_spread,
        agreement=args.agreement,
        seed=args.seed,
    )
    spaces, gt = corpus_io.synth_generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, matrix in enumerate(spaces):
        corpus_io.save_feature_matrix(matrix, out / f"space{i}_features.txt")
        corpus_io.save_rank_table(features.build_rank_table(matrix), out / f"space{i}_ranks.txt")
    corpus_io.save_ground_truth(gt, out / "ground_truth.txt")


def _queries(args, tables):
    if args.gt:
        return corpus_io.load_ground_truth(args.gt, n=tables[0].n).queries
    return list(range(tables[0].n))


def cmd_rerank(args):
    tables = _load_tables(args.tables)
    params = _params(args)
    header = (
        f"method={args.method} k={args.k} alpha0={args.alpha0:g} "
        f"depth={args.depth} score=max"
    )
    queries = _queries(args, tables)
    chunks = ranking._ranked_chunks(tables, queries, params, args.method, None)
    rows = (row for chunk, orders in chunks for row in zip(chunk.tolist(), orders.tolist()))
    corpus_io.atomic_write_text(args.out, corpus_io.id_lines(rows, header))


def cmd_eval(args):
    tables = _load_tables(args.tables)
    gt = corpus_io.load_ground_truth(args.gt, n=tables[0].n)
    baseline, reranked = evaluation.evaluate(
        tables, gt, _params(args), method=args.method, metric=args.metric
    )
    corpus_io.atomic_write_text(args.out, evaluation.reports_to_tsv([baseline, reranked]))
    if args.per_query:
        corpus_io.atomic_write_text(args.per_query, evaluation.per_query_tsv(reranked))


def cmd_sweep(args):
    tables = _load_tables(args.tables)
    gt = corpus_io.load_ground_truth(args.gt, n=tables[0].n)
    k_values = _int_list("--k", args.k_values)
    reports = evaluation.sweep_k(
        tables, gt, _params(args, k_values[0]), k_values, method=args.method, metric=args.metric
    )
    corpus_io.atomic_write_text(args.out, evaluation.reports_to_tsv(reports))


def cmd_graph_dump(args):
    g = ranking.build_graph(_load_tables(args.tables), args.query, _params(args), args.method)
    sources = [Path(p).stem for p in args.tables]
    corpus_io.atomic_write_text(args.out, graph.graph_to_text(g, sources))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphrerank",
        description="k-NN graph reranking for content-based image search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="HSV histograms for a P6 image manifest")
    p.add_argument("--manifest", required=True, help="file listing image paths in id order")
    p.add_argument("--out", required=True)
    p.add_argument("--bins", default=10, help="bins per HSV channel")
    p.add_argument("--exponent", default=0.5, help="power scaling exponent")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("ranks", help="exact-NN rank table from a feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("synth", help="generate a grouped synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--group-size", default=4)
    p.add_argument("--dims", default=8)
    p.add_argument("--spaces", default=2)
    p.add_argument("--intra-spread", default=0.1)
    p.add_argument("--inter-spread", default=1.0)
    p.add_argument("--agreement", default=1.0)
    p.add_argument("--seed", default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rerank", help="rerank queries over one or more rank tables")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--gt", default=None, help="restrict to ground-truth queries")
    p.add_argument("--out", required=True)
    _add_graph_args(p)
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="score baseline and reranked retrieval")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--metric", choices=["ns", "map"], default="ns")
    p.add_argument("--out", required=True)
    p.add_argument("--per-query", default=None, help="optional per-query detail TSV")
    _add_graph_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate across a list of k values")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--metric", choices=["ns", "map"], default="ns")
    p.add_argument("--out", required=True)
    _add_graph_args(p, k_list=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("graph-dump", help="export one query's graph as an edge list")
    p.add_argument("--tables", nargs="+", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    _add_graph_args(p)
    p.set_defaults(func=cmd_graph_dump)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _read_numeric_flags(args)
        args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
