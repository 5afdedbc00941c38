#!/usr/bin/env python3
"""Steadiness report: run one workload k times, each with another seed, and
print every metric's median, quartiles, spread and range.

Usage, from the root of the repository:

    python3 perfbench/steady.py --workload idle --runs 10 --first-seed 1

The spread is (q3 - q1) / median, with the quartiles that Python's
statistics.quantiles(values, n=4) gives; compare it with the metric's
bound in BENCHMARK.json. Each run's result line is echoed to standard
error as it lands.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    last = r.stdout.decode().strip().splitlines()[-1]
    print(f"seed {seed}: {last}", file=sys.stderr)
    return json.loads(last)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    values, units = {}, {}
    attempted = failed = 0
    for i in range(args.runs):
        res = run_once(args.workload, args.first_seed + i, args.seconds, args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"workload {args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds}s each; "
          f"{failed} of {attempted} operations failed")
    print(f"{'metric':36} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'min':>12} {'max':>12}")
    for name in sorted(values):
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {units[name]:9} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{100 * spread:7.2f}% {min(xs):12.6g} {max(xs):12.6g}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
