#!/usr/bin/env python3
"""Run one workload in two interleaved sets of k runs and print each metric's
median, quartile spread and the difference between the two sets' medians.

Usage (from the repository root):
  python3 attackbench/spread.py --workload attack|noisy|crack [--runs K]

Both sets use seeds 1..K, BENCHMARK.json's run_seconds and --trace 0; the
runs alternate between the sets (seed 1 set A, seed 1 set B, seed 2 set A,
...), so drift of the host over minutes reaches both sets alike.  For every
end-to-end metric and each set the script prints the median of the K
values, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread, (q3 - q1) / median, against the metric's bound in
BENCHMARK.json: "ok" below a third of the bound, "wide" up to the bound,
"OVER" beyond it (setup_s's spread is printed but not judged).  "B vs A" is
(median B - median A) / median A, judged against the bound the same way.
The failed share of every run is printed too; it must be identical across
runs.  Bounds are set from this output and rechecked with it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def verdict(value, bound):
    return "ok" if value < bound / 3 else "wide" if value <= bound else "OVER"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["attack", "noisy", "crack"])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = [{}, {}]
    units = {}
    shares = []
    for seed in range(1, args.runs + 1):
        for which in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"spread: run with seed {seed} failed (exit {proc.returncode})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"spread: run with seed {seed} failed its correctness checks")
            shares.append((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[which].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"set {'AB'[which]} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} op_s {result['metrics']['op_s']['value']:.4f}",
                  file=sys.stderr)

    print(f"workload {args.workload}, two interleaved sets of {args.runs} runs of {seconds} s")
    distinct = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(distinct)} "
          f"({'identical' if len(distinct) == 1 else 'DIFFERS'})")
    print(f"{'metric':22} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
          f"  {'bound':>5}  {'B vs A':>8}")
    for name in values[0]:
        b = bounds[name]
        medians = []
        for which in (0, 1):
            vals = values[which][name]
            med = statistics.median(vals)
            medians.append(med)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            judged = "" if name == "setup_s" else verdict(spread, b)
            line = (f"{name:22} {'AB'[which]:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:8.4f}  {b:5.3f} {judged:4}")
            if which == 1:
                diff = (medians[1] - medians[0]) / medians[0]
                line += f" {diff:+8.4f} {verdict(abs(diff), b)}"
            print(line + f"  [{units[name]}]")


if __name__ == "__main__":
    main()
