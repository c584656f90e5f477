#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs `perfbench/run.py` untraced once per seed for each workload (all of
BENCHMARK.json's by default), then prints, per metric, the median over the
runs and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound. A spread above a third of its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{out.stdout}{out.stderr}")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} seeds from {args.first_seed}):")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<18} median {med:<14.6g} spread {spread:8.4f}  bound {bounds[name]}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
