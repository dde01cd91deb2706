"""Reproduce the robustness-to-k comparison on a synthetic corpus.

Generates a two-space grouped corpus, then sweeps the neighbor count k for
both edge-weighting schemes and prints the mean N-S score at each k. The
reciprocal-rank weights should stay nearly flat while the Jaccard weights
degrade as k grows past the group size.

Usage:
    python3 scripts/run_k_sweep.py [--seed 0] [--ks 10,20,30,40,50,60] [--groups 50]

`--groups` sets the corpus size: groups of 4 images, n = 4 * groups. It
follows the input files' integer rule and must be >= 1; a bad value is an
argparse error (exit code 2).

Each `--ks` value follows the integer rule of `graphrerank sweep --k`:
`1_0` is an error rather than 10, and empty tokens are skipped. A bad
value, or a k outside [1, n - 1], is one `error: ...` line on stderr and
exit code 1.
"""

import argparse
import sys

from graphrerank.corpus_io import SynthSpec, _parse_int, synth_generate
from graphrerank.evaluation import reports_to_tsv, sweep_k
from graphrerank.features import build_rank_table
from graphrerank.graph import GraphParams


def groups(token):
    """A `--groups` value: a decimal integer >= 1 (`1_0` is an error, not 10)."""
    if _parse_int(token) < 1:
        raise ValueError(f"{token} < 1")
    return int(token)


def sweep(args):
    """The sweep's TSV; a bad `--ks` value raises ValueError before any ranking."""
    ks = [_parse_int(tok, f"--ks: not a decimal integer {tok!r}")
          for tok in args.ks.split(",") if tok]
    if not ks:
        raise ValueError("--ks must list at least one value")
    params = GraphParams(k=ks[0], alpha0=args.alpha0)
    spec = SynthSpec(
        n_groups=args.groups, group_size=4, dims=8, n_spaces=2,
        intra_spread=0.25, inter_spread=1.0, agreement=0.7, seed=args.seed,
    )
    spaces, gt = synth_generate(spec)
    tables = [build_rank_table(m) for m in spaces]

    reports = []
    for method in ("directed", "undirected"):
        reports.extend(sweep_k(tables, gt, params, ks, method=method))
    return reports_to_tsv(reports)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ks", type=str, default="10,20,30,40,50,60")
    parser.add_argument("--alpha0", type=float, default=0.8)
    parser.add_argument("--groups", type=groups, default=50, help="groups of 4 images")
    args = parser.parse_args()
    try:
        print(sweep(args))
    except ValueError as exc:  # a bad --ks value: one line, as the CLI gives
        sys.exit(f"error: {exc}")


if __name__ == "__main__":
    main()
