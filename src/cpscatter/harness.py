"""Seeded Monte Carlo experiment driver with deterministic parallelism.

Every trial draws its randomness from a dedicated Philox stream keyed by
(seed, point_index << 40 | trial_index), so results are a pure function of
(seed, experiment spec) no matter how many workers execute the chunks or in
what order they finish. Error counts are integers and reduce commutatively.

Two execution paths exist:

  * run_trial: the reference single-trial path. It assembles the complete
    N+C frame (full-length source symbol, full-frame noise, all three
    channels) and pushes it through the receiver and detector.
  * the batch kernel used by run_experiment: per trial it draws only what
    can influence the decision: the g/f taps, the C source samples the two
    receiver windows depend on (everything the windows see lives in the CP
    block by the cyclic-prefix identity), the window noise, and the bit.
    The direct source->reader path is omitted because the Phase 2/4
    subtraction removes it exactly (an invariant the test suite checks to
    1e-10); this is what makes 1e5-trial sweep points affordable.

The two paths consume streams differently, so they are not bit-identical
trial for trial; the suite checks they agree statistically.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
# threshold_exact is no longer called here, but perfbench/spans.py traces the
# exact-root threshold through this namespace, so the name stays importable
from .detector import (
    DetectorParams,
    detection_snr,
    threshold_exact,
    threshold_for,
    decide,
)
from .numerics import RngStream, as_generator
from .phy import SystemConfig, draw_channels, simulate_frame
from .receiver import noise_power, process, test_statistic

_U64 = 1 << 64
_TRIAL_BITS = 40  # trial index width inside a stream id
_CHUNK = 1024  # fixed batch size; keeps the working set cache-resident
_EMIT_MODES = ("ber_vs_snr", "ber_vs_w", "pdf_curves")

CSV_HEADER = (
    "snr_db,W,trials,errors,ber_sim,ci95,ber_theory_approx,"
    "ber_theory_exact,threshold,dof_convention,threshold_mode,seed"
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a (SNR, W) sweep at a fixed trial budget."""

    base: SystemConfig = field(default_factory=SystemConfig)
    snr_db_list: tuple = (6.0, 9.0, 13.0, 16.0)
    W_list: tuple = (3, 12)
    trials_per_point: int = 100_000
    output_path: str = "results.csv"
    emit: str = "ber_vs_snr"
    workers: int = 0  # 0 = use all available CPUs

    def __post_init__(self):
        if not self.snr_db_list or not self.W_list:
            raise ValueError("sweep lists must be non-empty")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.trials_per_point >= (1 << _TRIAL_BITS):
            raise ValueError(f"trials_per_point must be < 2^{_TRIAL_BITS}")
        if self.emit not in _EMIT_MODES:
            raise ValueError(f"emit must be one of {_EMIT_MODES}")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        for w in self.W_list:
            if w < 1 or w > self.base.R + 1:
                raise ValueError(f"W={w} outside [1, R+1={self.base.R + 1}]")
            if w < 2 and self.base.threshold_mode == "closed-form":
                raise ValueError(f"W={w}: the closed-form threshold needs W >= 2")
        # with no noise the statistic is 0/0 and the BER would be noise, not
        # a measurement; SystemConfig itself allows Nw=0 for noiseless frames
        if self.base.Nw == 0:
            raise ValueError("a sweep needs noise power Nw > 0")


@dataclass
class BerResult:
    """Simulated and theoretical error rates for one sweep point."""

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


def _gamma_target(config: SystemConfig) -> float:
    return 10.0 ** (config.gamma_db / 10.0)


def _ensemble_gamma(config: SystemConfig) -> float:
    # channel-averaged tap energies: E[sum|g|^2] = M+1, E[sum|f|^2] = K+1
    return (
        (config.R + 1)
        * abs(config.eta) ** 2
        * config.Ps
        * (config.M + 1)
        * (config.K + 1)
        / noise_power(config)
    )


def run_trial(config: SystemConfig, rng):
    """One full-frame trial: returns (sent_bit, decided_bit).

    Stream consumption order: channel taps (h, g, f), the tag bit, the
    source symbol, the frame noise. In direct-gamma mode the source power
    is rescaled per channel draw so the realized detection SNR equals
    10^(gamma_db/10) exactly.
    """
    gen = as_generator(rng)
    channels = draw_channels(config, gen)
    if config.snr_mode == "direct-gamma":
        if config.eta == 0:
            raise ValueError("direct-gamma mode needs eta != 0")
        target = _gamma_target(config)
        ps_eff = (
            target
            * noise_power(config)
            / ((config.R + 1) * abs(config.eta) ** 2 * channels.sum_g2 * channels.sum_f2)
        )
        cfg = replace(config, Ps=ps_eff)
        gamma_det = target
    else:
        cfg = config
        if config.gamma_knowledge == "genie":
            gamma_det = detection_snr(channels, cfg).gamma
        else:
            gamma_det = _ensemble_gamma(cfg)
    bit = int(gen.integers(0, 2))
    frame = simulate_frame(cfg, channels, bit, gen)
    block = process(frame.y, cfg)
    stat = test_statistic(block.z_tilde, cfg.W, noise_power(cfg))
    threshold = threshold_for(cfg, cfg.W, gamma_det)
    return bit, decide(stat, threshold)


def _run_chunk(config: SystemConfig, W: int, gamma_target: float | None,
               threshold: float | None, point_index: int, start: int,
               count: int, collect: bool = False, force_bit: int | None = None):
    """Vectorized batch of `count` trials with per-trial Philox streams.

    gamma_target is the pinned detection SNR (direct-gamma mode) or None
    (from-Ps). threshold is the scalar detection threshold, or None to
    derive one per trial from the genie SNR, all in one array solve.
    Returns the error count, or (bits, statistics) arrays when collect is
    set.
    """
    m1, k1 = config.M + 1, config.K + 1
    c, q, t, r, k = config.C, config.Q, config.T, config.R, config.K
    pw = noise_power(config)
    nwin = t + 1
    dim = 2 * m1 + 2 * k1 + 2 * c + 1 + 4 * nwin

    v = np.empty((count, dim))
    seed = config.seed % _U64
    base = point_index << _TRIAL_BITS
    # per-trial Philox streams keyed (seed, point<<40 | trial); rekeying via
    # the state dict is bit-identical to constructing Philox(key=...) fresh
    # and roughly twice as fast
    bitgen = np.random.Philox(key=[seed, 0])
    gen = np.random.Generator(bitgen)
    for j in range(count):
        st = bitgen.state
        st["state"]["counter"][:] = 0
        st["state"]["key"][0] = seed
        st["state"]["key"][1] = base | (start + j)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        bitgen.state = st
        v[j] = gen.standard_normal(dim)

    ofs = 0

    def block(n):
        nonlocal ofs
        b = v[:, ofs : ofs + n]
        ofs += n
        return b

    def to_complex(b, var):
        return (b[:, 0::2] + 1j * b[:, 1::2]) * math.sqrt(var / 2.0)

    g = to_complex(block(2 * m1), 1.0)
    f = to_complex(block(2 * k1), 1.0)
    s_unit = to_complex(block(2 * c), 1.0)
    bit_draw = block(1)[:, 0]
    w1 = to_complex(block(2 * nwin), config.Nw)
    w2 = to_complex(block(2 * nwin), config.Nw)

    sum_g2 = np.sum(np.abs(g) ** 2, axis=1)
    sum_f2 = np.sum(np.abs(f) ** 2, axis=1)
    if gamma_target is not None:
        if config.eta == 0:
            raise ValueError("direct-gamma mode needs eta != 0")
        ps_eff = gamma_target * pw / ((r + 1) * abs(config.eta) ** 2 * sum_g2 * sum_f2)
        gamma_trial = np.full(count, gamma_target)
    else:
        ps_eff = np.full(count, config.Ps)
        gamma_trial = (r + 1) * abs(config.eta) ** 2 * config.Ps * sum_g2 * sum_f2 / pw

    s = s_unit * np.sqrt(ps_eff)[:, None]

    # tag signal on the CP block (history-free: Q >= M keeps indices causal)
    x = np.zeros((count, c), dtype=np.complex128)
    for m in range(m1):
        x[:, m:] += g[:, m : m + 1] * s[:, : c - m]
    u = x[:, q : c - k] if k else x[:, q:]

    # backscatter part of the cancelled window, eta * conv(f, gated x)
    bs = np.zeros((count, nwin), dtype=np.complex128)
    for kk in range(k1):
        bs[:, kk : kk + r + 1] += f[:, kk : kk + 1] * u
    bs *= config.eta

    if force_bit is None:
        bits = (bit_draw > 0).astype(np.int64)
    else:
        bits = np.full(count, int(force_bit), dtype=np.int64)

    z = bits[:, None] * bs + (w1 - w2)
    zf = z[:, : r + 1].copy()
    if k:
        zf[:, :k] += z[:, r + 1 :]
    zt = np.fft.fft(zf, axis=1)
    stats = np.sum(np.abs(zt[:, :W]) ** 2, axis=1) / pw

    if collect:
        return bits, stats

    thr = threshold if threshold is not None else threshold_for(config, W, gamma_trial)
    decisions = (stats >= thr).astype(np.int64)
    return int(np.sum(decisions != bits))


def collect_statistics(config: SystemConfig, W: int, trials: int,
                       gamma_target: float | None = None,
                       force_bit: int | None = None,
                       point_index: int = 0):
    """Per-trial (bits, test statistics) from the batch kernel."""
    all_bits, all_stats = [], []
    start = 0
    while start < trials:
        n = min(_CHUNK, trials - start)
        bits, stats = _run_chunk(config, W, gamma_target, None, point_index,
                                 start, n, collect=True, force_bit=force_bit)
        all_bits.append(bits)
        all_stats.append(stats)
        start += n
    return np.concatenate(all_bits), np.concatenate(all_stats)


def _point_setup(config: SystemConfig, snr_db: float | None, W: int):
    """Resolve (reported snr_db, point gamma, scalar-or-None threshold)."""
    if config.snr_mode == "direct-gamma":
        gamma = 10.0 ** (snr_db / 10.0)
        return snr_db, gamma, threshold_for(config, W, gamma), gamma
    gamma_ens = _ensemble_gamma(config)
    reported = 10.0 * math.log10(gamma_ens) if gamma_ens > 0 else -math.inf
    if config.gamma_knowledge == "ensemble":
        return reported, gamma_ens, threshold_for(config, W, gamma_ens), None
    return reported, gamma_ens, None, None


def run_experiment(spec: ExperimentSpec) -> list[BerResult]:
    """Run every sweep point; deterministic for fixed (seed, spec)."""
    config = spec.base
    if config.snr_mode == "direct-gamma":
        points = [(snr, w) for snr in spec.snr_db_list for w in spec.W_list]
    else:
        # the per-trial SNR floats with the channel draw; one point per W
        points = [(None, w) for w in spec.W_list]

    workers = spec.workers if spec.workers > 0 else (os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    results = []
    try:
        for point_index, (snr_db, w) in enumerate(points):
            reported_snr, gamma, threshold, kernel_gamma = _point_setup(config, snr_db, w)
            t0 = time.perf_counter()
            tasks = []
            start = 0
            while start < spec.trials_per_point:
                n = min(_CHUNK, spec.trials_per_point - start)
                args = (config, w, kernel_gamma, threshold, point_index, start, n)
                tasks.append(pool.submit(_run_chunk, *args) if pool else _run_chunk(*args))
                start += n
            errors = sum(t.result() for t in tasks) if pool else sum(tasks)
            wall_ms = int(round(1000 * (time.perf_counter() - t0)))

            thr_report = threshold if threshold is not None else threshold_for(config, w, gamma)
            params = DetectorParams(W=w, gamma=gamma, dof_convention=config.dof_convention)
            _, _, pe_exact = analysis.ber_exact(params, thr_report)
            pe_approx = analysis.ber_approx(w, gamma, thr_report)

            ber = errors / spec.trials_per_point
            ci = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / spec.trials_per_point)
            results.append(
                BerResult(
                    snr_db=float(reported_snr),
                    W=w,
                    trials=spec.trials_per_point,
                    bit_errors=errors,
                    ber_sim=ber,
                    ci95_halfwidth=ci,
                    ber_theory_approx=pe_approx,
                    ber_theory_exact=pe_exact,
                    threshold_used=thr_report,
                    wall_ms=wall_ms,
                    dof_convention=config.dof_convention,
                    threshold_mode=config.threshold_mode,
                    seed=config.seed,
                )
            )
    finally:
        if pool:
            pool.shutdown()

    if spec.emit == "ber_vs_w":
        results.sort(key=lambda r: (r.snr_db, r.W))
    else:
        results.sort(key=lambda r: (r.W, r.snr_db))
    return results


def emit_csv(results, path) -> None:
    """Write results as CSV with the fixed 12-column schema, full precision."""
    lines = [CSV_HEADER]
    for res in results:
        lines.append(
            f"{res.snr_db!r},{res.W},{res.trials},{res.bit_errors},"
            f"{res.ber_sim!r},{res.ci95_halfwidth!r},{res.ber_theory_approx!r},"
            f"{res.ber_theory_exact!r},{res.threshold_used!r},"
            f"{res.dof_convention},{res.threshold_mode},{res.seed}"
        )
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


def parse_csv(path) -> list[BerResult]:
    """Read back an emit_csv file (wall_ms is not stored; set to 0)."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path!r}")
    out = []
    for line in text[1:]:
        c = line.split(",")
        out.append(
            BerResult(
                snr_db=float(c[0]), W=int(c[1]), trials=int(c[2]),
                bit_errors=int(c[3]), ber_sim=float(c[4]),
                ci95_halfwidth=float(c[5]), ber_theory_approx=float(c[6]),
                ber_theory_exact=float(c[7]), threshold_used=float(c[8]),
                wall_ms=0, dof_convention=c[9], threshold_mode=c[10],
                seed=int(c[11]),
            )
        )
    return out


def run_pdf_curves(spec: ExperimentSpec, n_points: int = 800) -> np.ndarray:
    """Density table for the first sweep point (pdf_curves emit mode)."""
    config = spec.base
    snr_db = spec.snr_db_list[0]
    w = spec.W_list[0]
    gamma = 10.0 ** (snr_db / 10.0)
    params = DetectorParams(W=w, gamma=gamma, dof_convention=config.dof_convention)
    hi = w * (1.0 + gamma) + 8.0 * math.sqrt(2.0 * w * (1.0 + 2.0 * gamma))
    grid = np.linspace(hi / n_points, hi, n_points)
    return analysis.pdf_curves(params, grid)


def write_pdf_csv(table: np.ndarray, path) -> None:
    """Write a pdf_curves table as x,f0,f1 rows."""
    lines = ["x,f0,f1"]
    for x, f0, f1 in table:
        lines.append(f"{x!r},{f0!r},{f1!r}")
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write pdf table to {path!r}: {exc}") from exc


# --- flat key=value configuration files -----------------------------------

_CONFIG_FIELDS = {
    "N": int, "C": int, "L": int, "M": int, "K": int,
    "eta": complex, "Ps": float, "Nw": float, "W": int,
    "trials": int, "seed": int, "snr_mode": str, "gamma_db": float,
    "dof_convention": str, "threshold_mode": str, "gamma_knowledge": str,
}
_SPEC_FIELDS = {
    "snr_db_list": lambda s: tuple(float(v) for v in s.replace(",", " ").split()),
    "W_list": lambda s: tuple(int(v) for v in s.replace(",", " ").split()),
    "trials_per_point": int,
    "output_path": str,
    "emit": str,
    "workers": int,
}


def load_config_file(path) -> dict:
    """Parse a flat key=value file with # comments into raw string values."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_FIELDS and key not in _SPEC_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def build_spec(file_values: dict | None = None, overrides: dict | None = None) -> ExperimentSpec:
    """Assemble an ExperimentSpec from file values plus typed overrides."""
    cfg_kwargs, spec_kwargs = {}, {}
    for key, raw in (file_values or {}).items():
        if key in _CONFIG_FIELDS:
            cfg_kwargs[key] = _CONFIG_FIELDS[key](raw)
        else:
            spec_kwargs[key] = _SPEC_FIELDS[key](raw)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key in _CONFIG_FIELDS:
            cfg_kwargs[key] = val
        elif key in _SPEC_FIELDS:
            spec_kwargs[key] = val
        else:
            raise ValueError(f"unknown configuration key {key!r}")
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
