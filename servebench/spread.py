#!/usr/bin/env python3
"""Runs one benchmark workload several times, each run with its own seed,
and prints, for every metric, the median, the quartiles and the relative
spread (interquartile range over the median), plus the share of failed
requests of each run.

Run it from the repository root; it runs the command `BENCHMARK.json`
names with the workload arguments appended:

    python3 servebench/spread.py --workload edge_local --runs 10
    python3 servebench/spread.py --workload backlog --runs 5 --first-seed 101 --trace 1

Quartiles are Python's `statistics.quantiles(values, n=4)`. For each
end-to-end metric the table also shows the metric's bound from
`BENCHMARK.json` and whether the spread stays under a third of it
(`setup_s` excepted: only the drift of its median between two sets of
runs is bounded).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: output checks failed\n{proc.stderr[-4000:]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("need at least two runs for quartiles")

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, units, shares = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(bench["command"], args.workload, seed, seconds, args.trace)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {i + 1}/{args.runs} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr, flush=True)

    print(f"workload {args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{seconds} s each, trace {args.trace}")
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = ""
        if name == "setup_s":
            verdict = f"{bounds[name]:.2f} (spread not gated; only the drift of the median is)"
        elif name in bounds:
            ok = "ok" if spread < bounds[name] / 3 else ("within bound" if spread <= bounds[name] else "OVER")
            verdict = f"{bounds[name]:.2f} ({ok})"
        print(f"{name:<34} {units[name]:<6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%}  {verdict}")
    print("values per run, in seed order:")
    for name, vals in values.items():
        print(f"  {name:<32} " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
