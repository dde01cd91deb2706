"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        fused-k10-n2000=81-90 cold-jaccard-n2000=81-84 --seconds 45 --out BENCH_7.json

Each `WORKLOAD=FIRST-LAST` gives one pair per seed. A pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
both checkouts, one after the other: the parent first on even pairs, the
change first on odd ones, so slow spells of the machine fall on both sides.
The output follows the earlier BENCH files: the command, the parent's git
SHA, each run's end-to-end metrics with `failed` and `orders_sha256`, and
per workload each side's median and quartiles and the number of pairs the
change won on each metric. The metrics and which way is better come from
`BENCHMARK.json` in the change checkout. The file is rewritten after every
pair, so a run cut short keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout, workload, seed, seconds):
    """One untraced benchmark run in `checkout`: its metrics, failures and orders hash."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode} without a result:\n{proc.stderr}")
    run = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    run["failed"] = result["failed"]
    run["orders_sha256"] = None
    meta = {}
    for line in lines:
        if line.startswith("orders_sha256 "):
            run["orders_sha256"] = line.split()[1]
        elif line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    return run, meta


def summary(runs, metrics):
    """Per side, the median and quartiles of each metric; per metric, pairs the change won."""
    out = {"median": {}, "quartiles": {}, "change_wins": {}}
    for side in SIDES:
        values = {m: [r[side][m] for r in runs] for m in metrics}
        out["median"][side] = {m: round(statistics.median(v), 4) for m, v in values.items()}
        if len(runs) > 1:
            out["quartiles"][side] = {
                m: [round(q, 4) for q in statistics.quantiles(v, n=4, method="inclusive")[::2]]
                for m, v in values.items()
            }
    for m, better in metrics.items():
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (r["change"][m] - r["parent"][m]) > 0 for r in runs)
        out["change_wins"][m] = f"{wins}/{len(runs)}"
    return out


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("pairs", nargs="+", metavar="WORKLOAD=FIRST-LAST",
                    help="a workload and the seeds of its pairs")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_sha = subprocess.run(["git", "-C", str(args.parent), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False).stdout.strip()
    doc = {
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": parent_sha or None,
        "hardware": None,
        "pairs": {},
        "workloads": {},
    }
    index = 0
    for item in args.pairs:
        workload, _, seeds = item.partition("=")
        seeds = seed_range(seeds)
        doc["pairs"][workload] = (f"{len(seeds)}, seeds {seeds[0]}-{seeds[-1]}, "
                                  "alternating which side runs first")
        runs = []
        for seed in seeds:
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            index += 1
            pair = {"seed": seed, "first": order[0], "parent": None, "change": None}
            for side in order:
                pair[side], meta = run_bench(getattr(args, side), workload, seed, args.seconds)
                doc["hardware"] = (f"{meta.get('cores')} cores, Python {meta.get('python')}, "
                                   f"numpy {meta.get('numpy')}")
            sha = pair["parent"]["orders_sha256"]
            pair["orders_equal"] = sha is not None and sha == pair["change"]["orders_sha256"]
            runs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {pair['parent'][m]} -> {pair['change'][m]}" for m in metrics),
                flush=True)
            doc["workloads"][workload] = {**summary(runs, metrics), "runs": runs}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
