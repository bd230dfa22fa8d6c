#!/usr/bin/env python3
"""Steadiness runner: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload serve-gdbt --runs 10
    python3 perfbench/steady.py --workload train-gdbt --runs 10 \
        --build parent=../parent-checkout --build change=.

Run i (from 1) uses seed i and BENCHMARK.json's run_seconds, untraced. Every
run invokes the command named in BENCHMARK.json, from the root of each
build's checkout. With two or more builds, the order within a run rotates,
so that no build always runs first.

For every metric and build the runner prints the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json; with two
builds it also prints how far the second build's median moved from the
first's, as a share of the first's. One row per (build, metric) is appended
to the ledger (default perfbench/ledger.csv), with the git revision, nproc
and the raw values. The ledger is only ever appended to.
"""

import argparse
import csv
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def git_rev(path):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=path,
                             capture_output=True, text=True, check=True)
        rev = out.stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=path, capture_output=True, text=True).stdout.strip()
        return rev + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(root, command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} in {root} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {root}: correctness gate failed")
    return result


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--build", action="append", default=[], metavar="NAME=DIR",
                    help="a checkout to run (repeatable); default: this checkout")
    ap.add_argument("--ledger", default=os.path.join(HERE, "ledger.csv"))
    args = ap.parse_args()

    spec = load_spec(ROOT)
    seconds = spec["run_seconds"]
    builds = []
    for b in args.build or [f"this={ROOT}"]:
        name, _, path = b.partition("=")
        builds.append((name, os.path.abspath(path or name)))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {name: [] for name, _ in builds}
    for i in range(args.runs):
        seed = i + 1
        shift = i % len(builds)
        for name, path in builds[shift:] + builds[:shift]:
            res = run_once(path, spec["command"], args.workload, seed, seconds)
            results[name].append(res)
            print(f"run {i + 1}/{args.runs} seed {seed} {name}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    nproc = os.cpu_count()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    new_file = not os.path.exists(args.ledger)
    with open(args.ledger, "a", newline="") as f:
        w = csv.writer(f)
        if new_file:
            w.writerow(["utc", "rev", "build", "nproc", "workload", "trace", "seconds",
                        "seeds", "metric", "unit", "median", "q1", "q3", "spread",
                        "bound", "values"])
        print(f"\n{args.workload}, {args.runs} runs, {seconds} s, nproc {nproc}")
        print(f"{'metric':<24} {'build':<10} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spr/bnd':>7} {'vs first':>9}")
        for metric in bounds:
            first_median = None
            for name, path in builds:
                values = [r["metrics"][metric]["value"] for r in results[name]]
                unit = results[name][0]["metrics"][metric]["unit"]
                med, q1, q3, spread = summarize(values)
                bound = bounds[metric]
                moved = "" if first_median is None else \
                    f"{(med - first_median) / first_median:+9.3f}" if first_median else "      inf"
                first_median = med if first_median is None else first_median
                print(f"{metric:<24} {name:<10} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:>6} {spread / bound:7.2f} {moved:>9}")
                w.writerow([stamp, git_rev(path), name, nproc, args.workload, 0, seconds,
                            f"1-{args.runs}", metric, unit, med, q1, q3, spread, bound,
                            " ".join(repr(v) for v in values)])
    print(f"\nappended to {args.ledger}")


if __name__ == "__main__":
    main()
