"""cpscatter benchmark: Monte Carlo throughput on three workloads.

Run from the repository root; the package is imported from ./src, so
nothing needs installing:

    python3 perfbench/run.py --workload sweep-acceptance --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
the separate traced pass that gives the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md describes the
workloads, the metrics and the checks.

The load is batch and closed-loop: one `sim run` at a time from this
process, with as many pool workers as CPUs this process may run on.
Process accounting uses getrusage on this process and its reaped children
only; nothing system-wide is traced and no machine setting is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import cpscatter  # noqa: E402
from cpscatter import cli, detector, harness  # noqa: E402
from scipy.stats import chi2, ncx2  # noqa: E402

import spans  # noqa: E402

SNR_DB = (6.0, 9.0, 13.0, 16.0)
W_LIST = (3, 12)
WORKERS = len(os.sched_getaffinity(0))
SETUP_LAUNCHES = 5  # the first is reported as cold; setup_s is the median of the rest
BER_K = 3.0  # allowed |ber_sim - ber_ref| in units of the combined ci95
THEORY_RTOL, THEORY_ATOL = 1e-4, 1e-12  # ber_theory_exact against the scipy oracle
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    snr_mode: str
    trials: int  # trials (frames) per point in one measured run
    traced_trials: int  # trials per point in the in-process traced runs
    frames: bool = False  # run_trial loop instead of `sim run`


WORKLOADS = {
    # every acceptance criterion and paper figure runs this sweep; nearly
    # all of its time is the batch kernel and the process pool
    "sweep-acceptance": Workload("direct-gamma", 4096, 4096),
    # per-trial exact-root thresholds: detector and numerics dominate, the
    # threshold cache grows per trial, and 2 chunks per point on 2 workers
    # expose the barrier between points
    "fromps-exact": Workload("from-Ps", 2048, 512),
    # the full-frame reference path; the only traffic through phy and receiver
    "reference-frames": Workload("direct-gamma", 256, 256, frames=True),
}
TINY = {"sweep-acceptance": 64, "fromps-exact": 4, "reference-frames": 4}


# --- workload inputs ---------------------------------------------------------

def write_config(name: str, wl: Workload, seed: int, trials: int, workers: int) -> Path:
    """The flat config file `sim run` reads; the program sees nothing else."""
    lines = [
        f"snr_mode={wl.snr_mode}",
        "dof_convention=complex",
        "threshold_mode=exact-root",
        "gamma_knowledge=genie",
        f"seed={seed}",
        "snr_db_list=" + ",".join(str(s) for s in SNR_DB),
        "W_list=" + ",".join(str(w) for w in W_LIST),
        f"trials_per_point={trials}",
        "emit=ber_vs_snr",
        f"workers={workers}",
        f"output_path={OUT / f'{name}.csv'}",
    ]
    path = OUT / f"{name}-{trials}-{workers}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def expected_points(wl: Workload) -> list[tuple]:
    """(snr_db or None, W) in run_experiment's point order."""
    if wl.snr_mode == "direct-gamma":
        return [(snr, w) for snr in SNR_DB for w in W_LIST]
    return [(None, w) for w in W_LIST]


def point_key(snr_db, w) -> str:
    return f"W={w}" if snr_db is None else f"snr={snr_db:g},W={w}"


# --- process accounting ------------------------------------------------------

def cpu_times() -> tuple[float, float]:
    """(this process, reaped children) user+system CPU seconds."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime, c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


SETUP_CODE = "\n".join([
    "import sys",
    "sys.path.insert(0, sys.argv[1])",
    "from cpscatter import cli",
    "from cpscatter.harness import build_spec, load_config_file",
    "build_spec(load_config_file(sys.argv[2]))",
    "print('ready', flush=True)",
])


def launch_setup(cfg: Path) -> float:
    """Seconds from starting a fresh interpreter to cpscatter imported and the spec built."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup launch failed (exit {rc})")
    return elapsed


def detector_caches() -> list:
    return [obj for obj in vars(detector).values()
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")]


def reset_caches() -> None:
    """Start each in-process run as cold as a fresh `sim run` process."""
    for cache in detector_caches():
        cache.cache_clear()


# --- one measured run --------------------------------------------------------

@dataclass
class Sample:
    wall: float
    cpu_self: float
    cpu_children: float
    trials: int
    rows: dict | None  # point key -> (ber_sim, CSV row or None)
    fingerprint: bytes
    csv_bytes: int = 0


def sim_run(name: str, cfg: Path) -> Sample:
    """One `sim run --config cfg` through cli.main, timed from outside."""
    out = OUT / f"{name}.csv"
    out.unlink(missing_ok=True)
    s0, c0 = cpu_times()
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", str(cfg)])
    wall = time.perf_counter() - t0
    s1, c1 = cpu_times()
    data = out.read_bytes() if out.exists() else b""
    rows = None
    if rc == 0:
        try:
            by_w = WORKLOADS[name].snr_mode == "from-Ps"  # one point per W
            rows = {point_key(None if by_w else r.snr_db, r.W): (r.ber_sim, r)
                    for r in harness.parse_csv(out)}
        except (ValueError, IndexError) as exc:
            print(f"check: CSV does not parse: {exc}", file=sys.stderr)
    trials = sum(r.trials for _, r in rows.values()) if rows else 0
    return Sample(wall, s1 - s0, c1 - c0, trials, rows, data, len(data))


def frames_run(name: str, cfg: Path) -> Sample:
    """run_trial over every sweep point, in this process."""
    spec = harness.build_spec(harness.load_config_file(cfg))
    n = spec.trials_per_point
    rows, digest, trials = {}, hashlib.sha256(), 0
    s0, c0 = cpu_times()
    t0 = time.perf_counter()
    for point_index, (snr, w) in enumerate(expected_points(WORKLOADS[name])):
        config = replace(spec.base, gamma_db=snr, W=w)
        try:
            errors = 0
            for i in range(n):
                sent, decided = harness.run_trial(
                    config, harness.trial_stream(config.seed, point_index, i))
                errors += sent != decided
                digest.update(bytes((sent, decided)))
        except Exception:  # one failed point is counted, the rest still run
            traceback.print_exc()
            continue
        trials += n
        rows[point_key(snr, w)] = (errors / n, None)
    wall = time.perf_counter() - t0
    s1, c1 = cpu_times()
    return Sample(wall, s1 - s0, c1 - c0, trials, rows, digest.digest())


# --- output checks -----------------------------------------------------------

class Checks:
    """Counts operations (sweep points and output checks) and failures."""

    def __init__(self, name: str, wl: Workload, seed: int):
        self.name, self.wl, self.seed = name, wl, seed
        table = json.loads(REFERENCE.read_text())
        # reference-frames is judged against the batch-kernel sweep
        self.reference = table["fromps-exact" if name == "fromps-exact" else "sweep-acceptance"]
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[int, bytes] = {}

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def sample(self, s: Sample, trials_per_point: int) -> None:
        first = self.fingerprints.get(trials_per_point)
        if first is None:
            self.fingerprints[trials_per_point] = s.fingerprint
        else:
            self.op(s.fingerprint == first, f"{self.name}: output differs between repeats of one seed")
        for snr, w in expected_points(self.wl):
            key = point_key(snr, w)
            row = s.rows.get(key) if s.rows else None
            ok = row is not None
            if ok:
                ok = self.ber_matches(key, row[0], trials_per_point)
                if row[1] is not None:
                    ok = self.theory_matches(key, row[1]) and ok
                    ok = self.op(row[1].trials == trials_per_point and row[1].seed == self.seed,
                                 f"{key}: trials or seed column wrong") and ok
            self.op(ok, f"{self.name} {key}: point missing or wrong")

    def ber_matches(self, key: str, ber: float, trials: int) -> bool:
        """The run's ci95 is taken at the reference BER, which stays
        meaningful for the few trials of a smoke run."""
        ref = self.reference[key]
        ci95 = 1.96 * math.sqrt(ref["ber"] * (1.0 - ref["ber"]) / trials)
        tol = BER_K * math.hypot(ci95, ref["ci95"])
        return self.op(abs(ber - ref["ber"]) <= tol,
                       f"{key}: ber {ber:.5f} vs reference {ref['ber']:.5f} (tolerance {tol:.5f})")

    def theory_matches(self, key: str, r) -> bool:
        """ber_theory_exact against 0.5*(chi2.sf + ncx2.cdf) at the reported threshold."""
        gamma = 10.0 ** (r.snr_db / 10.0)
        scale = 2.0 if r.dof_convention == "complex" else 1.0  # 2*Gamma_t ~ chi2(2W)
        x, dof = scale * r.threshold_used, scale * r.W
        oracle = 0.5 * (chi2.sf(x, dof) + ncx2.cdf(x, dof, dof * gamma))
        return self.op(abs(r.ber_theory_exact - oracle) <= THEORY_RTOL * oracle + THEORY_ATOL,
                       f"{key}: ber_theory_exact {r.ber_theory_exact!r} vs scipy {oracle!r}")


# --- the two kinds of run ----------------------------------------------------

def repeat_until(deadline: float, fn, minimum: int) -> list:
    out = []
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(fn())
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(name: str, wl: Workload, seed: int, seconds: float, checks: Checks) -> dict:
    cfg = write_config(name, wl, seed, wl.trials, WORKERS)
    launches = [launch_setup(cfg) for _ in range(SETUP_LAUNCHES)]
    run = frames_run if wl.frames else sim_run
    samples = repeat_until(time.perf_counter() + seconds, lambda: run(name, cfg), minimum=2)
    for s in samples:
        checks.sample(s, wl.trials)
    done = [s for s in samples if s.trials]
    rate = [s.trials / s.wall for s in done] or [0.0]
    cpu = [1e3 * (s.cpu_self + s.cpu_children) / s.trials for s in done] or [0.0]
    print(f"{name}: {len(samples)} runs of {wl.trials} {'frames' if wl.frames else 'trials'}"
          f" x {len(expected_points(wl))} points, workers={1 if wl.frames else WORKERS}")
    print(f"  trials_per_s per run: {', '.join(f'{v:.1f}' for v in rate)}")
    print(f"  setup launches (s): cold {launches[0]:.3f}, then "
          f"{', '.join(f'{v:.3f}' for v in launches[1:])}")
    print(f"  failed_ratio: {checks.failed}/{checks.attempted}")
    return {
        "trials_per_s": metric(statistics.median(rate), "1/s"),
        "cpu_ms_per_trial": metric(statistics.median(cpu), "ms"),
        "setup_s": metric(statistics.median(launches[1:]), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest listed percentile
    with at least ten samples beyond it, else the median."""
    s = sorted(samples)
    if not s:
        return 0.0, 0.0, 0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = max(math.ceil(pct / 100.0 * len(s)) - 1, 0)
        if len(s) - 1 - k >= 10 or pct == 50.0:
            return pct, s[k], len(s) - 1 - k


def traced(name: str, wl: Workload, seed: int, seconds: float, checks: Checks) -> dict:
    deadline = time.perf_counter() + seconds
    run = frames_run if wl.frames else sim_run
    cfg = write_config(name, wl, seed, wl.trials, WORKERS)
    cold = launch_setup(cfg)
    # untraced, at the stated size, with the pool (reference-frames has none):
    # worker utilisation and parent CPU
    pooled = run(name, cfg)
    checks.sample(pooled, wl.trials)
    # untraced and traced in-process runs alternate, so drift hits both alike
    cfg1 = write_config(name, wl, seed, wl.traced_trials, 1)
    tracer = spans.Tracer()
    plain, timed = [], []
    cache = (0, 0, 0, False)
    while not timed or time.perf_counter() < deadline:
        for traced_turn in ((False, True) if len(timed) % 2 == 0 else (True, False)):
            reset_caches()
            if not traced_turn:
                plain.append(run(name, cfg1))
                continue
            with tracer:
                timed.append(run(name, cfg1))
            caches = detector_caches()
            infos = [c.cache_info() for c in caches]
            cache = (sum(i.currsize for i in infos), sum(i.hits for i in infos),
                     sum(i.hits + i.misses for i in infos), bool(caches))
    for s in plain + timed:
        checks.sample(s, wl.traced_trials)
    tracer.dump(OUT / f"spans-{name}.json")

    t = spans.SpanTable(tracer)
    n = len(timed)
    traced_wall = sum(s.wall for s in timed)
    chunks = t.durations("harness._run_chunk")
    tail_pct, tail_s, beyond = tail(chunks)
    entries, hits, lookups, have_cache = cache
    workers = 0 if wl.frames else WORKERS
    util = pooled.cpu_children / (workers * pooled.wall) if workers else 0.0
    layers = t.self_by_module()
    print(f"{name} traced: {n} traced + {len(plain)} untraced in-process runs of "
          f"{wl.traced_trials} per point; per-layer values are per traced run")
    overhead = statistics.median(s.wall for s in timed) / statistics.median(s.wall for s in plain)
    print(f"  bench.trace_overhead: {overhead:.3f} (median traced / untraced wall per run)")
    print(f"  self time by module, share of traced wall {traced_wall:.3f} s: " + ", ".join(
        f"{k} {v / traced_wall:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    if chunks:
        print(f"  harness.chunk_tail: p{tail_pct:g} = {1e3 * tail_s:.2f} ms, "
              f"{beyond} of {len(chunks)} samples beyond")
    print(f"  detector cache: {entries} entries, hit ratio "
          + (f"{hits / lookups:.4f}" if have_cache and lookups else "n/a"))
    print(f"  setup launch (cold): {cold:.3f} s; failed_ratio: {checks.failed}/{checks.attempted}")
    return {
        "harness.chunk_calls": metric(len(chunks) / n, "count"),
        "harness.chunk_p50_ms": metric(1e3 * statistics.median(chunks) if chunks else 0.0, "ms"),
        "harness.chunk_tail_ms": metric(1e3 * tail_s, "ms"),
        "harness.chunk_tail_pct": metric(tail_pct, "%"),
        "harness.chunk_tail_beyond": metric(beyond, "count"),
        "harness.chunk_self_s": metric(t.self_of("harness._run_chunk") / n, "s"),
        "harness.worker_cpu_util": metric(util, "ratio"),
        "harness.parent_cpu_s": metric(pooled.cpu_self, "s"),
        "harness.trial_self_s": metric(t.self_of("harness.run_trial") / n, "s"),
        "detector.threshold_calls": metric(t.calls(spans.THRESHOLD_SPANS) / n, "count"),
        "detector.threshold_busy_s": metric(t.busy(spans.THRESHOLD_SPANS) / n, "s"),
        "detector.cache_entries": metric(entries, "count"),
        "detector.cache_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "numerics.logpdf_calls": metric(t.count(spans.LOGPDF_SPANS) / n, "count"),
        "numerics.logpdf_busy_s": metric(t.busy(spans.LOGPDF_SPANS) / n, "s"),
        "numerics.complex_gaussian_busy_s": metric(
            t.busy({"numerics.complex_gaussian"}) / n, "s"),
        "analysis.ber_exact_calls": metric(t.count({"analysis.ber_exact"}) / n, "count"),
        "analysis.ber_exact_busy_s": metric(t.busy({"analysis.ber_exact"}) / n, "s"),
        "analysis.density_evals": metric(t.count(spans.DENSITY_SPANS) / n, "count"),
        "phy.simulate_frame_busy_s": metric(t.busy({"phy.simulate_frame"}) / n, "s"),
        "phy.draw_channels_busy_s": metric(t.busy({"phy.draw_channels"}) / n, "s"),
        "receiver.process_busy_s": metric(t.busy({"receiver.process"}) / n, "s"),
        "receiver.test_statistic_busy_s": metric(t.busy({"receiver.test_statistic"}) / n, "s"),
        "cli.self_s": metric(t.self_of("cli.main") / n, "s"),
        "cli.csv_bytes": metric(timed[-1].csv_bytes, "bytes"),
        "bench.trace_overhead": metric(overhead, "ratio"),
        "bench.traced_wall_s": metric(traced_wall / n, "s"),
        "bench.span_coverage": metric(t.root_time() / traced_wall, "ratio"),
        "bench.setup_cold_s": metric(cold, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: a few trials per point, minimum repeats")
    args = parser.parse_args(argv)

    if Path(cpscatter.__file__).resolve().parent != (SRC / "cpscatter").resolve():
        raise RuntimeError(f"cpscatter imported from {cpscatter.__file__}, not from {SRC}")
    wl = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.tiny:
        n = TINY[args.workload]
        wl, seconds = replace(wl, trials=n, traced_trials=n), 0.0
    OUT.mkdir(exist_ok=True)
    checks = Checks(args.workload, wl, args.seed)
    measure = traced if args.trace else untraced
    metrics = measure(args.workload, wl, args.seed, seconds, checks)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
