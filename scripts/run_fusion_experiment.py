"""Compare fused multi-feature reranking against each single feature.

Generates the standard two-space synthetic corpus for several seeds and
prints, per seed and averaged, the mean N-S score of: each space's no-rerank
baseline, each space's single-feature rerank, and the fused rerank.

Usage:
    python3 scripts/run_fusion_experiment.py [--seeds 5] [--k 10] [--groups 50]

`--groups` sets the corpus size: groups of 4 images, n = 4 * groups.
`--groups`, `--seeds` and `--k` follow the input files' integer rule (`1_0`
is an error, not 10) and must be >= 1, and `--alpha0` their float rule
(`0.8_0` is an error, not 0.8); a bad value is an argparse error (exit
code 2). A k beyond n - 1 is one `error: ...` line on stderr and exit
code 1.
"""

import argparse
import sys

import numpy as np

from graphrerank.corpus_io import SynthSpec, _parse_float, _parse_int, synth_generate
from graphrerank.evaluation import evaluate
from graphrerank.features import build_rank_table
from graphrerank.graph import GraphParams


def at_least(low):
    """An argparse type: a decimal integer >= `low` (`1_0` is an error, not 10)."""
    def integer(token):
        if _parse_int(token) < low:
            raise ValueError(f"{token} < {low}")
        return int(token)
    return integer


def decimal(token):
    """An argparse type: a decimal number by the input files' rule (`0.8_0` is an error, not 0.8)."""
    return _parse_float(token)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=at_least(1), default=5)
    parser.add_argument("--k", type=at_least(1), default=10)
    parser.add_argument("--alpha0", type=decimal, default=0.8)
    parser.add_argument("--groups", type=at_least(1), default=50, help="groups of 4 images")
    args = parser.parse_args()
    try:
        experiment(args)
    except ValueError as exc:  # a k beyond the corpus: one line, as the CLI gives
        sys.exit(f"error: {exc}")


def experiment(args):
    """Print each seed's row and the mean; a k beyond n - 1 raises ValueError first."""
    params = GraphParams(k=args.k, alpha0=args.alpha0)
    rows = []
    for seed in range(args.seeds):
        spec = SynthSpec(
            n_groups=args.groups, group_size=4, dims=8, n_spaces=2,
            intra_spread=0.25, inter_spread=1.0, agreement=0.7, seed=seed,
        )
        spaces, gt = synth_generate(spec)
        tables = [build_rank_table(m) for m in spaces]
        row = []
        for table in tables:
            baseline, reranked = evaluate([table], gt, params, metric="ns")
            row.extend([baseline.aggregate, reranked.aggregate])
        row.append(evaluate(tables, gt, params, metric="ns")[1].aggregate)
        rows.append(row)
        print(
            f"seed {seed}:  "
            + "  ".join(
                f"space{i} base={row[2 * i]:.3f} rerank={row[2 * i + 1]:.3f}"
                for i in range(len(tables))
            )
            + f"  fused={row[-1]:.3f}"
        )
    mean = np.mean(rows, axis=0)
    print(
        "mean:    "
        + "  ".join(
            f"space{i} base={mean[2 * i]:.3f} rerank={mean[2 * i + 1]:.3f}"
            for i in range(2)
        )
        + f"  fused={mean[-1]:.3f}"
    )


if __name__ == "__main__":
    main()
