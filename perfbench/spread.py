#!/usr/bin/env python3
"""Run one benchmark workload N times, one seed each, and print the spread.

For every end-to-end metric this prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median, beside the metric's bound
from BENCHMARK.json: a spread above a third of the bound is flagged
(setup_s excepted). It also prints each run's failed share, which must
be identical across runs.

Run from the repository root:

    python3 perfbench/spread.py --workload plan --runs 5
    python3 perfbench/spread.py --workload serve --runs 10 --first-seed 101

The benchmark command and run length come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    table = bench["end_to_end"]

    values = {m["name"]: [] for m in table}
    shares = []
    for k in range(args.runs):
        seed = args.first_seed + k
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        took = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit code {proc.returncode}, no result")
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        shares.append(share)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({took:.1f} s)", flush=True)
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
    for m in table:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = m["bound"]
        flag = ""
        if m["name"] != "setup_s" and spread > bound / 3:
            flag = "  <- above a third of the bound"
        print(f"{m['name']:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}  "
              f"{bound}{flag}")
    if len(set(shares)) != 1:
        print(f"failed share differs between runs: {sorted(set(shares))}")
        sys.exit(1)
    print(f"failed share {shares[0]:.6f} in every run")


if __name__ == "__main__":
    main()
