#!/usr/bin/env python3
"""A/B-compare one workload of the benchmark between a base revision and
the working tree:

    python3 scripts/ab.py BASE [--workload W] [--pairs N]

BASE is any git revision. Both sides are copied out of the repository
(BASE with `git archive`, the working tree as its tracked and
unignored files) into a scratch directory, built once each, and then
run in N pairs through each side's own perfbench (its spread.py's
`run`, so each side runs as the benchmark runs it, for BENCHMARK.json's
run_seconds), alternating which side runs first. Both runs of a pair
use the same seed. Every run's result object
goes to one JSON file (--out). For each end-to-end metric of
BENCHMARK.json it prints the medians of both sides, the base's IQR (the
distance between its first and third quartiles), the pairs the change
won, the metric's bound and a verdict:

    gain       at least 10 pairs, the change won at least 9 of every
               10, and its median beats the base's by more than the
               base's IQR
    regressed  the change's median is worse than the base's by more
               than the bound
    unresolved the base's IQR is wider than the bound, and not every
               run of the change beats every run of the base; or a
               gain over fewer than 10 pairs
    level      anything else

It also prints where Stream_exec's and Reference's code start in each
binary of each side, modulo 64 bytes, since placement alone moves some
workloads by several percent.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARIES = ["_build/default/perfbench/perfbench.exe", "_build/default/bin/an5d.exe"]
SYMBOLS = ["camlAn5d_core__Stream_exec.code_begin", "camlStencil__Reference.code_begin"]


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, **kw)


def export_base(rev, dest):
    os.makedirs(dest)
    archive = git("archive", "--format=tar", rev, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_worktree(dest):
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                stdout=subprocess.PIPE).stdout.split(b"\0")
    for f in filter(None, files):
        src = os.path.join(ROOT, os.fsdecode(f))
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        dst = os.path.join(dest, os.fsdecode(f))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def build(side):
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
                    "./bin/an5d.exe"], cwd=side, check=True,
                   env=dict(os.environ, DUNE_CACHE="disabled"))


def placement(side):
    """Per binary, per symbol of SYMBOLS: its address modulo 64."""
    out = {}
    for b in BINARIES:
        nm = subprocess.run(["nm", os.path.join(side, b)], stdout=subprocess.PIPE,
                            text=True, check=False).stdout
        addrs = {line.split()[-1]: int(line.split()[0], 16) for line in nm.splitlines()
                 if line.split()[-1:] and line.split()[-1] in SYMBOLS}
        out[os.path.basename(b)] = {
            sym: (addrs[sym] % 64 if sym in addrs else None) for sym in SYMBOLS}
    return out


def spread_run(name, side):
    """The `run(workload, seed, seconds, trace)` of the side's own
    perfbench/spread.py, which runs perfbench/run.sh in that side."""
    spec = importlib.util.spec_from_file_location(
        f"spread_{name}", os.path.join(side, "perfbench", "spread.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run


def iqr(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return q[2] - q[0]


def verdict(base, change, wins, pairs, metric):
    mb, mc = statistics.median(base), statistics.median(change)
    higher = metric["better"] == "higher"
    gap = mc - mb if higher else mb - mc  # positive when the change is better
    if wins * 10 >= 9 * pairs and gap > iqr(base):
        return "gain" if pairs >= 10 else "unresolved"
    if -gap > metric["bound"] * abs(mb):
        return "regressed"
    wide = iqr(base) > metric["bound"] * abs(mb)
    separated = min(change) > max(base) if higher else max(change) < min(base)
    if wide and not separated:
        return "unresolved"
    return "level"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("base", help="git revision to compare the working tree with")
    p.add_argument("--workload", default="solve",
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", help="JSON file of every run (default ab-WORKLOAD.json)")
    p.add_argument("--scratch", help="directory for the two copies (default: a new "
                   "temporary directory, removed afterwards)")
    args = p.parse_args()
    seconds = bench["run_seconds"]
    out_path = args.out or f"ab-{args.workload}.json"
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab-")
    sides = {"base": os.path.join(scratch, "base"), "change": os.path.join(scratch, "change")}
    try:
        for path in sides.values():
            if os.path.exists(path):
                shutil.rmtree(path)
        rev = git("rev-parse", args.base, stdout=subprocess.PIPE, text=True).stdout.strip()
        export_base(rev, sides["base"])
        export_worktree(sides["change"])
        for name, path in sides.items():
            print(f"building {name}", flush=True)
            build(path)
        where = {name: placement(path) for name, path in sides.items()}
        run = {name: spread_run(name, path) for name, path in sides.items()}
        for name in sides:
            for sym in SYMBOLS:
                print(f"{name}: {sym} mod 64: " + ", ".join(
                    f"{b} {v[sym]}" for b, v in where[name].items()), flush=True)
        runs = []
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {}
            for name in order:
                pair[name] = run[name](args.workload, i + 1, seconds, 0)
                if not pair[name]["correct"]:
                    sys.exit(f"{name}: pair {i + 1}: output checks failed")
            runs.append({"pair": i + 1, "seed": i + 1, "first": order[0], **pair})
            print(f"pair {i + 1} ({order[0]} first): " + ", ".join(
                f"{m['name']} {pair['base']['metrics'][m['name']]['value']:.6g}"
                f" -> {pair['change']['metrics'][m['name']]['value']:.6g}"
                for m in bench["end_to_end"]), flush=True)
            with open(out_path, "w") as f:
                json.dump({"base": rev, "workload": args.workload, "seconds": seconds,
                           "placement": where, "runs": runs}, f, indent=1)
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"\n{args.workload}, {args.pairs} pairs of {seconds} s, base {rev[:12]}"
          f" (runs in {out_path})")
    print("| metric | base median | change median | base IQR | wins | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name = m["name"]
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        better = (lambda b, c: c > b) if m["better"] == "higher" else (lambda b, c: c < b)
        wins = sum(better(b, c) for b, c in zip(base, change))
        print(f"| `{name}` | {statistics.median(base):.6g} | {statistics.median(change):.6g}"
              f" | {iqr(base):.4g} | {wins}/{len(runs)} | {m['bound']}"
              f" | {verdict(base, change, wins, len(runs), m)} |")


if __name__ == "__main__":
    main()
