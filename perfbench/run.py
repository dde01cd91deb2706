"""Benchmark entry point: generate a workload's inputs, measure it in a fresh
process, print every metric by name with its unit.

    python3 perfbench/run.py --workload fused-k10-n2000 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports the program from `src/`
there and fails if that is missing. Inputs and span files go under
`.bench_build/perfbench/`. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones from a traced run; `--workload all` runs
every workload both ways. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
TIME_LIMIT_S = 175  # a run must end within 180 s

sys.path.insert(0, str(HERE))

from measure import import_program  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def thread_policy(env):
    """Cap RERANK_THREADS at the core count when the program default exceeds it.

    The default mirrors `evaluation._thread_count`: min(os.cpu_count(), 8)
    when RERANK_THREADS is unset. Returns the recorded policy.
    """
    cores = len(os.sched_getaffinity(0))
    default = min(os.cpu_count() or 1, 8)
    capped = "RERANK_THREADS" not in env and default > cores
    if capped:
        env["RERANK_THREADS"] = str(cores)
    return {"cores": cores, "rerank_threads": env.get("RERANK_THREADS"),
            "rerank_threads_capped": capped}


def metadata(workload, seed, seconds, trace, policy):
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": platform.python_version(), **policy,
        "n": workload.n, "k": workload.k, "spaces": workload.spaces,
        "method": workload.method, "query_sample": workload.sample,
    }


def run_one(workload, seed, seconds, trace, deadline):
    """Measure one workload in a child process; returns its parsed result line."""
    WORK.mkdir(parents=True, exist_ok=True)
    inputs = WORK / f"inputs-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir()
    env = dict(os.environ)
    policy = thread_policy(env)
    try:
        make_inputs(workload, seed, inputs)
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload.name,
               "--inputs", str(inputs), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            cmd += ["--spans", str(WORK / f"spans-{workload.name}-{seed}.jsonl")]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"error: {workload.name} did not finish in time")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    meta = metadata(workload, seed, seconds, trace, policy)
    lines = out.splitlines()
    for line in lines[:-1]:
        if line.startswith("program "):
            meta.update(json.loads(line[len("program "):]))
        else:
            print(line)
    print("meta " + json.dumps(meta))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {workload.name} exited {proc.returncode} without a result")
    for name, m in result["metrics"].items():
        print(f"{workload.name}  {name} = {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload.name}  error_rate = {rate:.6g} ({result['failed']}/"
          f"{result['attempted']} calls)")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program(ROOT)

    if args.workload != "all":
        deadline = time.monotonic() + TIME_LIMIT_S
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                         deadline)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # every workload, untraced then traced; no time limit for the whole set
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            result = run_one(workload, args.seed, args.seconds, trace,
                             time.monotonic() + TIME_LIMIT_S)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload.name}/{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
