"""Smoke check of the benchmark: every workload at a tiny size, in both passes.

Run from the repository root (about two minutes on 2 CPUs):

    python3 perfbench/smoke.py

For each workload and each value of --trace it runs the benchmark command
from BENCHMARK.json with --tiny and asserts that the run exits 0, that its
last line names exactly the metrics BENCHMARK.json lists for that pass, each
with its listed unit, and that no operation failed (failed_ratio == 0).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: failed_ratio is not 0: {result.get('failed')}"
                        f"/{result.get('attempted')}\n{proc.stderr}")
    listed = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(listed):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(listed) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(listed))}")
    for name, unit in listed.items():
        m = printed.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{where}: {name} printed as {m}, expected a number in {unit}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(bench, wl["name"], trace)
            print(f"{wl['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
