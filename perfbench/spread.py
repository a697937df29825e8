#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload serve-online [--seeds 10]
        [--first-seed 1] [--seconds N] [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median, computed
with statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and share > bound / 3:
            flag = "  <-- above a third of its bound"
            worst = max(worst, share / bound)
        shown = f"{bound}" if bound is not None else "-"
        print(f"{name:45s} median {med:14.6g}  iqr/median {share:7.4f}  bound {shown}{flag}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
