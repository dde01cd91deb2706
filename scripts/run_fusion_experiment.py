"""Compare fused multi-feature reranking against each single feature.

Generates the standard two-space synthetic corpus for several seeds and
prints, per seed and averaged, the mean N-S score of: each space's no-rerank
baseline, each space's single-feature rerank, and the fused rerank.

Usage:
    python3 scripts/run_fusion_experiment.py [--seeds 5] [--k 10] [--groups 50]

`--groups` sets the corpus size: groups of 4 images, n = 4 * groups. It
follows the input files' integer rule and must be >= 1; a bad value is an
argparse error (exit code 2).
"""

import argparse

import numpy as np

from graphrerank.corpus_io import SynthSpec, _parse_int, synth_generate
from graphrerank.evaluation import evaluate
from graphrerank.features import build_rank_table
from graphrerank.graph import GraphParams


def groups(token):
    """A `--groups` value: a decimal integer >= 1 (`1_0` is an error, not 10)."""
    if _parse_int(token) < 1:
        raise ValueError(f"{token} < 1")
    return int(token)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--alpha0", type=float, default=0.8)
    parser.add_argument("--groups", type=groups, default=50, help="groups of 4 images")
    args = parser.parse_args()

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
