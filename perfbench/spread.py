#!/usr/bin/env python3
"""Run one workload of the benchmark once per seed and report, for each
end-to-end metric, the median and the spread: the distance between the
first and third quartiles as a share of the median.

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5

With --trace 1 it prints the per-layer metrics of each seed instead.
Each run goes through run.sh, with BENCHMARK.json's run_seconds unless
--seconds is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=False, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.trace:
        runs = [run(args.workload, seed, args.seconds, 1) for seed in args.seeds]
        if not all(r["correct"] for r in runs):
            sys.exit(f"{args.workload}: output checks failed")
        print(f"| metric | unit | " + " | ".join(f"seed {s}" for s in args.seeds) + " |")
        print("|---|---|" + "---|" * len(args.seeds))
        for m in bench["per_layer"]:
            vals = " | ".join(f"{r['metrics'][m['name']]['value']:.6g}" for r in runs)
            print(f"| `{m['name']}` | {m['unit']} | {vals} |")
        return
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        r = run(args.workload, seed, args.seconds, 0)
        if not r["correct"]:
            sys.exit(f"{args.workload} seed {seed}: output checks failed")
        for name in values:
            values[name].append(r["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={r['metrics'][n]['value']:.6g}" for n in values), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        spread = 0.0
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
        print(f"{m['name']:>14}: median {med:.6g} {m['unit']}, spread {spread:.4f}"
              f" (bound {m['bound']}, {'ok' if spread < m['bound'] / 3 else 'WIDE'})")


if __name__ == "__main__":
    main()
