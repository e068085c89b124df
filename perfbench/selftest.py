#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of the checkout:

    python3 perfbench/selftest.py [--seed N]

For each workload it makes one short untraced run and two short traced
runs on one seed, and checks that

  * every run exits 0 with correct output and prints exactly the metrics
    BENCHMARK.json names, with their units, as finite numbers (end-to-end
    metrics also non-zero);
  * unattributed_share and obs.trace_overhead are among them;
  * the counts of the traced run repeat exactly across the two runs.

It also checks that the benchmark fails, without printing a result, in
a directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Counts from the socket run depend on how many requests fit in the run;
# every other count must repeat exactly for a fixed seed.
TIME_BOUNDED = {"serve.warm_samples", "serve.cold_samples"}


def run(cwd, workload, seed, seconds, trace):
    return subprocess.run(
        ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False)


def result(out, what):
    if out.returncode != 0:
        sys.exit(f"FAIL {what}: exit {out.returncode}\n{out.stderr[-2000:]}")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {what}: result keys {sorted(r)}")
    if not r["correct"] or r["attempted"] < 1:
        sys.exit(f"FAIL {what}: correct={r['correct']} attempted={r['attempted']}")
    return r


def check_metrics(r, catalogue, nonzero, what):
    got = r["metrics"]
    if list(got) != [m["name"] for m in catalogue]:
        sys.exit(f"FAIL {what}: metrics {list(got)}")
    for m in catalogue:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not math.isfinite(v["value"]):
            sys.exit(f"FAIL {what}: {m['name']} = {v}")
        if nonzero and v["value"] == 0:
            sys.exit(f"FAIL {what}: {m['name']} is 0")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=4)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    layer_names = {m["name"] for m in bench["per_layer"]}
    for name in ("unattributed_share", "obs.trace_overhead"):
        if name not in layer_names:
            sys.exit(f"FAIL: {name} is not a per-layer metric")
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] in ("count", "bytes") and m["name"] not in TIME_BOUNDED]

    for w in bench["workloads"]:
        name = w["name"]
        r = result(run(ROOT, name, args.seed, args.seconds, 0), f"{name} untraced")
        check_metrics(r, bench["end_to_end"], True, f"{name} untraced")
        traced = []
        for i in (1, 2):
            r = result(run(ROOT, name, args.seed, args.seconds, 1), f"{name} traced #{i}")
            check_metrics(r, bench["per_layer"], False, f"{name} traced #{i}")
            traced.append(r["metrics"])
        for c in counts:
            a, b = traced[0][c]["value"], traced[1][c]["value"]
            if a != b:
                sys.exit(f"FAIL {name}: count {c} differs across runs: {a} vs {b}")
        shown = {c: traced[0][c]["value"] for c in counts if traced[0][c]["value"]}
        print(f"ok {name}: counts repeat {shown}", flush=True)

    bare = os.path.join(ROOT, ".perfbench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        out = run(bare, bench["workloads"][0]["name"], args.seed, args.seconds, 0)
        if out.returncode == 0 or out.stdout.strip():
            sys.exit("FAIL: the benchmark ran without the program's sources")
        print("ok: fails without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
