"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs run.py once per seed (first-seed, first-seed + 1, ...) on each
workload and prints, per metric, the median of the runs, the distance
between the first and third quartiles as a share of the median, and the
metric's bound from BENCHMARK.json. A spread below a third of the bound
leaves room for host noise. Raw results go to bench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(BENCH, "_out"), exist_ok=True)
    record = {}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        record[workload] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {workload:12s} {name:12s} median {median:.6g}  spread {spread:.4f}  "
                  f"bound {bound}  {flag}", flush=True)
    path = os.path.join(BENCH, "_out", f"steadiness-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
