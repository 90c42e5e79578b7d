"""Command-line front end: `sim run ...` drives the Monte Carlo experiments."""

from __future__ import annotations

import argparse
import sys
import traceback

from .harness import (
    _EMIT_MODES,
    build_spec,
    emit_csv,
    format_effective_config,
    load_config_file,
    run_experiment,
    run_pdf_curves,
    write_pdf_csv,
)
from .phy import _DOF_CONVENTIONS, _THRESHOLD_MODES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Ambient backscatter Monte Carlo simulator (CP-based receiver)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment sweep and write a CSV")
    run.add_argument("--config", help="flat key=value config file (# comments)")
    run.add_argument("--snr-db", nargs="+", type=float, dest="snr_db_list",
                     help="detection SNR sweep values in dB")
    run.add_argument("--w", nargs="+", type=int, dest="W_list",
                     help="averaging sample counts to sweep")
    run.add_argument("--trials", type=int, dest="trials_per_point",
                     help="Monte Carlo trials per sweep point")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--out", dest="output_path", help="output CSV path")
    run.add_argument("--emit", choices=_EMIT_MODES, help="what to emit")
    run.add_argument("--threshold", choices=_THRESHOLD_MODES,
                     dest="threshold_mode", help="detection threshold mode")
    run.add_argument("--dof", choices=_DOF_CONVENTIONS,
                     dest="dof_convention", help="degree-of-freedom convention")
    run.add_argument("--workers", type=int,
                     help="worker threads (0 = one per CPU this process may use)")
    run.add_argument("--print-config", action="store_true",
                     help="print the effective configuration and exit")
    run.add_argument("--debug", action="store_true",
                     help="print the full traceback of an error")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else None
        # every other option is a configuration key; build_spec skips unset ones
        overrides = {key: tuple(val) if isinstance(val, list) else val
                     for key, val in vars(args).items()
                     if key not in ("command", "config", "print_config", "debug")}
        spec = build_spec(file_values, overrides)

        if args.print_config:
            print(format_effective_config(spec))
            return 0

        if spec.emit == "pdf_curves":
            write_pdf_csv(run_pdf_curves(spec), spec.output_path)
            print(f"wrote pdf table to {spec.output_path}")
            return 0

        results = run_experiment(spec)
        emit_csv(results, spec.output_path)
        for r in results:
            print(
                f"snr={r.snr_db:>6.2f} dB  W={r.W:>3d}  ber_sim={r.ber_sim:.6g}  "
                f"ber_theory={r.ber_theory_exact:.6g}  ({r.wall_ms} ms)"
            )
        print(f"wrote {len(results)} rows to {spec.output_path}")
        return 0
    except Exception as exc:  # CLI boundary: report and signal failure
        if args.debug:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
