"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--out FILE]

Runs the benchmark command from BENCHMARK.json once per seed 1..runs with
--trace 0 and, for each workload and metric, prints the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median next to the metric's bound. --out writes the same
summary, with every value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failed']}/{result['attempted']} failed",
                      file=sys.stderr)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        summary[name] = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "values": vals}
            print(f"{name:18s} {m:18s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f} (bound {bounds[m]})", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
