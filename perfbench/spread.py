#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each end-to-end metric's
median, quartiles and spread (interquartile distance over the median, the
way statistics.quantiles(values, n=4) gives the quartiles), next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload tpch_hot --runs 10 --first-seed 1
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the raw results here")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), file=sys.stderr)
        res = json.loads(lines[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{m['name']:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {m.get('bound', float('nan')):6}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
