"""Seeded Monte Carlo experiment driver with deterministic parallelism.

Randomness comes from Philox streams keyed by (seed, point_index << 40 |
index). run_trial takes one stream per trial (trial_stream); the batch
kernel takes one per chunk, keyed by the chunk's first trial, and chunks
start at fixed multiples of _CHUNK. So results are a pure function of
(seed, experiment spec) no matter how many worker threads execute the
chunks or in what order they finish. Error counts are integers and reduce
commutatively. A chunk's heavy steps (the Philox fill, einsum and the
numpy/scipy ufuncs) release the GIL, so the threads run them in parallel.

Two execution paths exist:

  * run_trial: the reference single-trial path. It assembles the complete
    N+C frame (full-length source symbol, full-frame noise, all three
    channels) and pushes it through the receiver and detector.
  * the batch kernel used by run_experiment: per trial it draws no frame,
    only the taps, the window's bins and edge samples and the noise (row
    layout: _chunk_statistics). receiver forms the W bins from them in a tap
    and a symbol stage, with the formulas, and sums them as for test_statistic.

A sweep point is one SystemConfig: the base config at the point's W and,
in direct-gamma mode, its gamma_db (ExperimentSpec.points). Both paths
read W and the SNR from it, and detector.detection_snr is the one rule that
turns tap energies into (source power, detection SNR): the drawn ones per
trial, and by default the mean ones, for the point's reported SNR and
threshold. So run_trial(point, ...) replays a kernel point. Both paths
decide with detector.decide: run_trial one frame at its SNR, and a kernel
chunk, given only its point and trial range, all its trials in one call.
The two paths consume streams differently, so they are not bit-identical
trial for trial; the suite checks they agree statistically.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analysis
# threshold_exact is not called here, but perfbench traces it in this namespace
from .detector import (
    decide,
    detection_snr,
    threshold_exact,
    threshold_for,
)
from .numerics import RngStream
from .phy import SystemConfig, draw_channels, simulate_frame
from .receiver import bin_gains, bin_statistic, noise_power, process, symbol_bins, test_statistic

_TRIAL_BITS = 40  # trial index width inside a stream id
_CHUNK = 1024  # trials per keyed stream and per task
_ROWS = 512  # trials reduced at once: bounds the arrays a worker thread holds
_EMIT_MODES = ("ber_vs_snr", "ber_vs_w", "pdf_curves")
_PDF_POINTS = 800  # rows of a pdf_curves table
# a point's summed bin energy, mean W (1 + gamma) P_w under H1, must stay
# 2^20 below the float64 maximum, so squaring and summing the bins cannot
# overflow: no trial's statistic comes near that multiple of the mean (the
# largest of 1e5 kernel trials at W=1, from-Ps genie, was 91 times it)
_BIN_ENERGY_MAX = np.finfo(np.float64).max / 2.0 ** 20

# the fixed CSV schema, in column order: (column, BerResult attribute, parser)
_CSV_COLUMNS = (
    ("snr_db", "snr_db", float),
    ("W", "W", int),
    ("trials", "trials", int),
    ("errors", "bit_errors", int),
    ("ber_sim", "ber_sim", float),
    ("ci95", "ci95_halfwidth", float),
    ("ber_theory_approx", "ber_theory_approx", float),
    ("ber_theory_exact", "ber_theory_exact", float),
    ("threshold", "threshold_used", float),
    ("dof_convention", "dof_convention", str),
    ("threshold_mode", "threshold_mode", str),
    ("seed", "seed", int),
)
CSV_HEADER = ",".join(column for column, _, _ in _CSV_COLUMNS)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a (SNR, W) sweep at a fixed trial budget."""

    base: SystemConfig = field(default_factory=SystemConfig)
    snr_db_list: tuple = (6.0, 9.0, 13.0, 16.0)
    W_list: tuple = (3, 12)
    trials_per_point: int = 100_000
    output_path: str = "results.csv"
    emit: str = "ber_vs_snr"
    workers: int = 0  # threads; 0 = one per CPU this process may run on

    def __post_init__(self):
        if not self.snr_db_list or not self.W_list:
            raise ValueError("sweep lists must be non-empty")
        if not all(math.isfinite(snr) for snr in self.snr_db_list):
            raise ValueError(f"snr_db_list must be finite, got {self.snr_db_list}")
        # a bool or float count would run, then report or fail mid-sweep
        for name in ("trials_per_point", "workers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.trials_per_point >= (1 << _TRIAL_BITS):
            raise ValueError(f"trials_per_point must be < 2^{_TRIAL_BITS}")
        if self.emit not in _EMIT_MODES:
            raise ValueError(f"emit must be one of {_EMIT_MODES}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        # SystemConfig checks each point's W; the operating point at the mean
        # tap energies fails where every trial of the point would
        for point in self.points():
            if point.W < 2 and point.threshold_mode == "closed-form":
                raise ValueError(f"W={point.W}: the closed-form threshold needs W >= 2")
            _, gamma = detection_snr(point)
            if point.W * (1.0 + gamma) * noise_power(point) > _BIN_ENERGY_MAX:
                raise ValueError(
                    f"W={point.W}: detection SNR {10.0 * math.log10(gamma):.1f} dB is out "
                    "of range: the statistic's bin energies would overflow float64")

    def points(self) -> list[SystemConfig]:
        """The sweep points in run order, each one SystemConfig.

        direct-gamma: each SNR, then each W. from-Ps: each W, since the SNR
        follows the channel draw.
        """
        if self.base.snr_mode == "direct-gamma":
            return [replace(self.base, gamma_db=snr, W=w)
                    for snr in self.snr_db_list for w in self.W_list]
        return [replace(self.base, W=w) for w in self.W_list]


@dataclass
class BerResult:
    """Simulated and theoretical error rates for one sweep point.

    wall_ms is the run's time from the previous point's completion (or the
    start of the run) to this point's, chunks and theory columns included.
    Points overlap on the worker threads, so this is not the point's own
    cost, but the points' values add up to the run's wall time.
    """

    snr_db: float
    W: int
    trials: int
    bit_errors: int
    ber_sim: float
    ci95_halfwidth: float
    ber_theory_approx: float
    ber_theory_exact: float
    threshold_used: float
    wall_ms: int
    dof_convention: str
    threshold_mode: str
    seed: int


def trial_stream(seed: int, point_index: int, trial_index: int) -> RngStream:
    """Dedicated stream for one trial of one sweep point."""
    return RngStream(seed=seed, stream=(point_index << _TRIAL_BITS) | trial_index)


def run_trial(config: SystemConfig, stream: RngStream):
    """One full-frame trial on its own stream: returns (sent_bit, decided_bit) as ints.

    Stream consumption order: channel taps (h, g, f), the tag bit, the
    source symbol, the frame noise. The frame's source power and SNR follow
    detection_snr, and decide decides it, as in the batch kernel.
    """
    gen = stream.generator()
    channels = draw_channels(config, gen)
    ps, gamma = detection_snr(config, channels.sum_g2, channels.sum_f2)
    bit = int(gen.integers(0, 2))
    frame = simulate_frame(config, channels, bit, ps, gen)
    stat = test_statistic(process(frame.y, config), config)
    return bit, int(decide(config, stat, gamma))


def _chunk_statistics(point: SystemConfig, point_index: int, start: int, count: int,
                      force_bit: int | None = None):
    """(bits, statistics, gamma) of `count` trials of one point, one Philox stream.

    gamma is the detection SNR from detection_snr: one scalar, or one per
    trial for a from-Ps genie point. force_bit, if set, replaces the drawn
    bits (the bit's normal is still drawn).

    The chunk's stream is trial_stream(seed, point_index, start), read as
    a (count, 2 n + 1) block of standard normals, row j for trial
    start + j: (re, im) pairs for the complex blocks g (M+1), f (K+1), S (W),
    pre (M), z (min(M, R+1)), b (K) and a (W), n entries in all, then one
    normal for the bit; no source window (module docstring). A chunk is thus
    a prefix of any longer chunk from the same start, but a trial's draws
    depend on that start: callers keep chunks at fixed multiples of _CHUNK.

    The block is drawn and reduced _ROWS rows at a time: the same normals in
    the same order, and each row's statistic reads its own row alone, so the
    values do not depend on _ROWS, while a worker thread holds the arrays of
    only _ROWS trials at once.
    """
    gen = trial_stream(point.seed, point_index, start).generator()
    parts = [_row_statistics(point, gen, min(_ROWS, count - i), force_bit)
             for i in range(0, count, _ROWS)]
    bits, stats, gamma = zip(*parts)
    # the point's scalar SNR in every part, or one array per part
    gamma = np.concatenate(gamma) if np.ndim(gamma[0]) else gamma[0]
    return np.concatenate(bits), np.concatenate(stats), gamma


def _row_statistics(point: SystemConfig, gen: np.random.Generator, count: int,
                    force_bit: int | None):
    """(bits, statistics, gamma) of the next `count` rows of gen's block."""
    m, m1, k1 = point.M, point.M + 1, point.K + 1
    # the blocks above, with S, pre and z as one window block
    ends = np.cumsum([m1, k1, point.W + m + min(m, point.R + 1), point.K, point.W])
    v = np.empty((count, 2 * ends[-1] + 1))
    gen.standard_normal(out=v)

    # each complex entry is re + j*im of two standard normals: CN(0, 2), the
    # law of one source sample; the 1/sqrt(2) factors are applied below
    cv = v[:, :-1].view(np.complex128)
    g, f, window, b, a = np.split(cv, ends[:-1], axis=1)
    sum_g2 = 0.5 * np.sum(v[:, : 2 * m1] ** 2, axis=1)
    sum_f2 = 0.5 * np.sum(v[:, 2 * m1 : 2 * (m1 + k1)] ** 2, axis=1)
    ps, gamma = detection_snr(point, sum_g2, sum_f2)
    g_bins, f_bins = bin_gains(g, f, point)
    u_bins, noise = symbol_bins(g, g_bins, window, b, a, point)

    bits = (v[:, -1] > 0) if force_bit is None else np.full(count, force_bit == 1)
    bits = bits.astype(np.int64)

    # back to CN(0, 1) scales: f, a and b each carry a factor sqrt(2), and
    # the product of g and s a factor 2
    amp = bits * point.eta * np.sqrt(ps / 2.0) / 2.0
    bins = amp[:, None] * f_bins * u_bins + math.sqrt(point.Nw) * noise
    return bits, bin_statistic(bins, point), gamma


def _run_chunk(point: SystemConfig, point_index: int, start: int, count: int) -> int:
    """Error count of one chunk of `count` trials of one point.

    One decision call decides the chunk: at the point's scalar SNR against
    its threshold (the LRU entry _point_setup filled), or per trial (from-Ps
    genie) by the sign of the log-density ratio at each statistic.
    """
    bits, stats, gamma = _chunk_statistics(point, point_index, start, count)
    return int(np.sum(decide(point, stats, gamma) != bits))


def _chunk_plan(trials: int) -> list[tuple[int, int]]:
    """(start, count) of a point's chunks, each starting at a multiple of _CHUNK."""
    return [(start, min(_CHUNK, trials - start)) for start in range(0, trials, _CHUNK)]


def collect_statistics(point: SystemConfig, trials: int,
                       force_bit: int | None = None, point_index: int = 0):
    """Per-trial (bits, test statistics) of one point from the batch kernel."""
    if not 1 <= trials < (1 << _TRIAL_BITS):
        raise ValueError(f"trials must be in [1, 2^{_TRIAL_BITS}), got {trials}")
    if force_bit not in (None, 0, 1):
        raise ValueError(f"force_bit must be None, 0 or 1, got {force_bit!r}")
    chunks = [_chunk_statistics(point, point_index, start, count, force_bit)
              for start, count in _chunk_plan(trials)]
    bits, stats, _ = zip(*chunks)
    return np.concatenate(bits), np.concatenate(stats)


def _point_setup(point: SystemConfig):
    """(reported snr_db, detection SNR gamma, threshold) of one sweep point.

    The SNR is the operating point's at the mean tap energies: the pinned
    SNR in direct-gamma mode, the ensemble SNR in from-Ps mode.
    """
    _, gamma = detection_snr(point)
    if point.snr_mode == "direct-gamma":
        snr_db = point.gamma_db
    else:
        snr_db = 10.0 * math.log10(gamma) if gamma > 0 else -math.inf
    return snr_db, gamma, threshold_for(point, gamma)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _thread_pool(workers: int) -> ThreadPoolExecutor:
    """The worker threads, kept from one run to the next.

    A pool per run starts new threads while the last run's are still
    exiting, and glibc gives each new thread its own malloc arena, so
    back-to-back runs in one process grow its peak RSS by several MB.
    """
    return ThreadPoolExecutor(max_workers=workers)


def run_experiment(spec: ExperimentSpec) -> list[BerResult]:
    """Run every sweep point; deterministic for fixed (seed, spec).

    Every point is set up first, so a bad point fails before any chunk runs,
    and its threshold is in threshold_for's LRU before any chunk reads it.
    With more than one worker, every point's chunks are then submitted at
    once to _thread_pool and collected in point order, so the calling
    thread works out a point's theory columns while the workers run later
    points; with one, the chunks run in the calling thread.
    """
    t0, done_ms = time.perf_counter(), 0
    points = spec.points()
    setups = [_point_setup(point) for point in points]
    workers = spec.workers or _available_cpus()
    pool = _thread_pool(workers) if workers > 1 else None
    results, tasks = [], []
    try:
        for point_index, point in enumerate(points):
            args = [(point, point_index, start, count)
                    for start, count in _chunk_plan(spec.trials_per_point)]
            tasks.append([pool.submit(_run_chunk, *a) for a in args] if pool else args)

        for point, (snr_db, gamma, threshold), chunks in zip(points, setups, tasks):
            errors = (sum(c.result() for c in chunks) if pool
                      else sum(_run_chunk(*a) for a in chunks))
            _, _, pe_exact = analysis.ber_exact(point, gamma, threshold)
            pe_approx = analysis.ber_approx(point, gamma, threshold)
            # rounded on the run's clock, so the points' wall_ms add up to it
            run_ms = int(round(1000 * (time.perf_counter() - t0)))
            wall_ms, done_ms = run_ms - done_ms, run_ms

            ber = errors / spec.trials_per_point
            ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / spec.trials_per_point)
            results.append(
                BerResult(
                    snr_db=float(snr_db),
                    W=point.W,
                    trials=spec.trials_per_point,
                    bit_errors=errors,
                    ber_sim=ber,
                    ci95_halfwidth=ci,
                    ber_theory_approx=pe_approx,
                    ber_theory_exact=pe_exact,
                    threshold_used=threshold,
                    wall_ms=wall_ms,
                    dof_convention=point.dof_convention,
                    threshold_mode=point.threshold_mode,
                    seed=point.seed,
                )
            )
    finally:
        # after a success every chunk is done; after an error this drops the
        # chunks not yet started instead of running out the sweep
        if pool:
            for chunks in tasks:
                for chunk in chunks:
                    chunk.cancel()

    if spec.emit == "ber_vs_w":
        results.sort(key=lambda r: (r.snr_db, r.W))
    else:
        results.sort(key=lambda r: (r.W, r.snr_db))
    return results


def _write_csv(path, header: str, rows, what: str) -> None:
    """Write header and rows as CSV lines; str() of a Python float is its repr."""
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path!r}: {exc}") from exc


def emit_csv(results, path) -> None:
    """Write results as CSV with the fixed 12-column schema, full precision."""
    rows = ([getattr(res, attr) for _, attr, _ in _CSV_COLUMNS] for res in results)
    _write_csv(path, CSV_HEADER, rows, "results")


def parse_csv(path) -> list[BerResult]:
    """Read back an emit_csv file (wall_ms is not stored; set to 0)."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path!r}")
    out = []
    for lineno, line in enumerate(text[1:], 2):
        cells = line.split(",")
        if len(cells) != len(_CSV_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns, "
                             f"got {len(cells)}")
        out.append(BerResult(wall_ms=0, **{attr: parse(cell) for (_, attr, parse), cell
                                           in zip(_CSV_COLUMNS, cells)}))
    return out


def run_pdf_curves(spec: ExperimentSpec) -> np.ndarray:
    """Density table for the first sweep point (pdf_curves emit mode).

    The point is spec.points()[0] at the SNR of its BER row: the first
    listed SNR and W in direct-gamma mode, the ensemble SNR at the first W
    in from-Ps mode.
    """
    point = spec.points()[0]
    _, gamma = detection_snr(point)
    w = point.W
    hi = w * (1.0 + gamma) + 8.0 * math.sqrt(2.0 * w * (1.0 + 2.0 * gamma))
    grid = np.linspace(hi / _PDF_POINTS, hi, _PDF_POINTS)
    return analysis.pdf_curves(point, gamma, grid)


def write_pdf_csv(table: np.ndarray, path) -> None:
    """Write a pdf_curves table as x,f0,f1 rows."""
    _write_csv(path, "x,f0,f1", table.tolist(), "pdf table")


# --- flat key=value configuration files -----------------------------------

def _parser(default):
    """A config value's parser: its default's type; for a tuple, a list of its items' type."""
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda s: tuple(item(v) for v in s.replace(",", " ").split())
    return type(default)


# the SystemConfig fields each sweep point sets, and the lists they come from
_SWEPT_FIELDS = {"W": "W_list", "gamma_db": "snr_db_list"}
# every other SystemConfig field, and every ExperimentSpec field but the base
# config, each parsed by its default
_CONFIG_FIELDS = {f.name: _parser(f.default) for f in fields(SystemConfig)
                  if f.name not in _SWEPT_FIELDS}
_SPEC_FIELDS = {f.name: _parser(f.default) for f in fields(ExperimentSpec) if f.name != "base"}


def load_config_file(path) -> dict:
    """Parse a flat key=value file with # comments into raw string values."""
    values, linenos = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_FIELDS and key not in _SPEC_FIELDS and key not in _SWEPT_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} already given on line "
                             f"{linenos[key]}")
        values[key], linenos[key] = val, lineno
    return values


def build_spec(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentSpec:
    """Assemble an ExperimentSpec from file values plus typed overrides.

    W and gamma_db are refused, as each sweep point sets them; the base
    takes the first listed W, so only swept W values meet the R+1 check.
    """
    overrides = {key: val for key, val in (overrides or {}).items() if val is not None}
    for key in (*(file_values or {}), *overrides):
        if key in _SWEPT_FIELDS:
            raise ValueError(f"{key} is set per sweep point: give {_SWEPT_FIELDS[key]}")
    cfg_kwargs, spec_kwargs = {}, {}
    for key, raw in (file_values or {}).items():
        kwargs, parse = ((cfg_kwargs, _CONFIG_FIELDS[key]) if key in _CONFIG_FIELDS
                         else (spec_kwargs, _SPEC_FIELDS[key]))
        try:
            kwargs[key] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"{key} = {raw!r}: {exc}") from exc
    for key, val in overrides.items():
        if key in _CONFIG_FIELDS:
            cfg_kwargs[key] = val
        elif key in _SPEC_FIELDS:
            spec_kwargs[key] = val
        else:
            raise ValueError(f"unknown configuration key {key!r}")
    cfg_kwargs["W"] = (spec_kwargs.get("W_list") or ExperimentSpec.W_list)[0]
    return ExperimentSpec(base=SystemConfig(**cfg_kwargs), **spec_kwargs)


def format_effective_config(spec: ExperimentSpec) -> str:
    """Dump the effective configuration as key=value lines."""
    lines = []
    for key in _CONFIG_FIELDS:
        lines.append(f"{key}={getattr(spec.base, key)}")
    for key in _SPEC_FIELDS:
        val = getattr(spec, key)
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key}={val}")
    return "\n".join(lines)
