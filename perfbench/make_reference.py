"""Regenerate perfbench/reference.json, the BER table the benchmark checks against.

Run from the repository root (about 4 minutes on 2 CPUs):

    python3 perfbench/make_reference.py

It runs the sweep-acceptance and fromps-exact configurations with many more
trials per point than a benchmark run, under a seed that benchmark runs do
not use. reference-frames is checked against the sweep-acceptance rows.
"""

from __future__ import annotations

import json

import run
from cpscatter import harness

SEED = 987_654_321
TRIALS = {"sweep-acceptance": 100_000, "fromps-exact": 16_384}


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    table = {"seed": SEED}
    for name, trials in TRIALS.items():
        wl = run.WORKLOADS[name]
        cfg = run.write_config(name, wl, SEED, trials, run.WORKERS)
        results = harness.run_experiment(harness.build_spec(harness.load_config_file(cfg)))
        by_w = wl.snr_mode == "from-Ps"
        table[name] = {
            run.point_key(None if by_w else r.snr_db, r.W): {
                "ber": r.ber_sim, "ci95": r.ci95_halfwidth, "trials": r.trials,
            }
            for r in results
        }
        print(name, table[name], flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
