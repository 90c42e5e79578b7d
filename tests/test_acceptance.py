"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines as
they happen; every line is also appended to reports/discrepancy_report.txt
together with the quantitative gaps the suite is asked to record.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from cpscatter.analysis import ber_exact
from cpscatter.detector import threshold_exact, threshold_paper
from cpscatter.harness import ExperimentSpec, collect_statistics, emit_csv, run_experiment
from cpscatter.numerics import (RngStream, complex_gaussian, dft, gaussian_q, log_bessel_i_normalized,
                                log_chi2_pdf)
from cpscatter.phy import SystemConfig, draw_channels, legacy_demodulate, observe_components, simulate_frame, tag_gate
from cpscatter.receiver import cancel, extract_windows, fold, noise_power, process

from conftest import ACCEPTANCE_BASE

pytestmark = pytest.mark.slow


def record(report, num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(f"\n{line}")
    report.add(line)
    return ok


def _runtime(elapsed, limit):
    # the report records a run time only when it breaks its limit, so that
    # unchanged results give an unchanged report
    if elapsed < limit:
        return f"within the {limit:.0f}s limit"
    return f"{elapsed:.1f}s (limit {limit:.0f}s)"


def test_criterion_1_exact_cancellation(report):
    cfg = SystemConfig(Nw=0.0)
    gen = RngStream(cfg.seed, 1).generator()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ch = draw_channels(cfg, gen)
        fr = simulate_frame(cfg, ch, 0, cfg.Ps, gen)
        y1, y2 = extract_windows(fr.y, cfg)
        z = cancel(y1, y2)
        worst = max(worst, float(np.max(np.abs(z)) / np.max(np.abs(y1))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert record(report, 1, ok,
                  f"1000-frame cancellation worst |z|/|y1| = {worst:.2e} "
                  f"(limit 1e-10), {_runtime(elapsed, 10.0)}")


def test_criterion_2_diagonalization_oracle(report):
    cfg = SystemConfig()
    n = cfg.R + 1
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    F = np.exp(-2j * np.pi * p * q / n)
    gen = RngStream(cfg.seed, 2).generator()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        f_taps = complex_gaussian(gen, 1.0, cfg.K + 1)
        x = complex_gaussian(gen, 1.0, n)
        fast = dft(fold(cfg.eta * np.convolve(f_taps, x), cfg))
        col = np.zeros(n, dtype=complex)
        col[: cfg.K + 1] = f_taps
        circ = np.column_stack([np.roll(col, j) for j in range(n)])
        dense = cfg.eta * (F @ (circ @ x))
        err = float(np.max(np.abs(fast - dense)) / np.max(np.abs(dense)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    assert record(report, 2, ok,
                  f"200-instance fold+DFT vs dense matrix path, worst rel err "
                  f"{worst:.2e} (limit 1e-9), {_runtime(elapsed, 5.0)}")


def test_criterion_3_legacy_noninterference(report):
    cfg = SystemConfig(Nw=0.0)
    gen = RngStream(cfg.seed, 3).generator()
    worst = 0.0
    for _ in range(200):
        ch = draw_channels(cfg, gen)
        fr = simulate_frame(cfg, ch, 0, cfg.Ps, gen)
        outs = []
        for bit in (0, 1):
            direct, backscatter = observe_components(fr.s, fr.x, tag_gate(cfg, bit), ch, cfg)
            outs.append(legacy_demodulate(direct + backscatter, cfg))
        err = float(np.max(np.abs(outs[0] - outs[1])) / np.max(np.abs(outs[0])))
        worst = max(worst, err)
    ok = worst < 1e-9
    assert record(report, 3, ok,
                  f"legacy demodulator bit-0 vs bit-1 worst rel diff {worst:.2e} "
                  f"(limit 1e-9) over 200 frames")


def test_criterion_4_noise_calibration(report):
    cfg = SystemConfig()
    gen = RngStream(cfg.seed, 4).generator()
    acc, count = 0.0, 0
    while count < 100_000:
        ch = draw_channels(cfg, gen)
        fr = simulate_frame(cfg, ch, 0, cfg.Ps, gen)
        zt = process(fr.y, cfg)
        acc += float(np.sum(np.abs(zt) ** 2))
        count += len(zt)
    mean = acc / count
    want = noise_power(cfg)
    ok = abs(mean - want) <= 0.03 * want
    assert record(report, 4, ok,
                  f"E|z_tilde|^2 = {mean:.2f} vs 2(T+1)Nw = {want:.0f} "
                  f"({100 * (mean / want - 1):+.2f}%, limit 3%) over {count} samples")


@pytest.mark.parametrize("w", [3, 12])
def test_criterion_5_distribution_fit(report, w):
    cfg = SystemConfig(W=w, gamma_db=13.0, seed=ACCEPTANCE_BASE.seed)
    _, g = collect_statistics(cfg, 10_000, force_bit=0, point_index=50 + w)
    ks_c = stats.kstest(2.0 * g, stats.chi2(2 * w).cdf)
    ks_p = stats.kstest(g, stats.chi2(w).cdf)
    report.add(f"  criterion 5 detail (W={w}): paper-dof KS D={ks_p.statistic:.4f} "
               f"(p={ks_p.pvalue:.2e}) vs complex-dof D={ks_c.statistic:.4f}")
    ok = ks_c.pvalue > 0.01
    assert record(report, 5, ok,
                  f"W={w}: KS of 2*stat vs chi2({2 * w}) D={ks_c.statistic:.4f} "
                  f"p={ks_c.pvalue:.3f} (need p>0.01); paper-dof D={ks_p.statistic:.4f} recorded")


def test_criterion_6_special_functions(report):
    # each closed form read back through the function that now holds it:
    # Gamma(1/2) and Gamma(5) from the chi-square densities with 1 and 10 dof,
    # I_1/2(1) from h(1/2, 1) = log(Gamma(3/2) sqrt(2) I_1/2(1)) = log sinh 1,
    # and the sin-power integral at W=3 from threshold_paper(3, 1) = L^2/3,
    # L = 3/2 - log(integral/2)
    x = 7.0
    checks = [
        ("Gamma(0.5)", math.exp(-0.5 - 0.5 * math.log(2.0) - log_chi2_pdf(1.0, 1)),
         math.sqrt(math.pi), 1e-12),
        ("Gamma(5)", x ** 4 * math.exp(-x / 2) / (2 ** 5 * math.exp(log_chi2_pdf(x, 10))), 24.0,
         1e-12),
        ("I_1/2(1)", math.sqrt(2 / math.pi) * math.exp(log_bessel_i_normalized(0.5, 1.0)),
         math.sqrt(2 / math.pi) * math.sinh(1.0), 1e-9),
        ("sin_power_integral(3)", 2.0 * math.exp(1.5 - math.sqrt(3.0 * threshold_paper(3, 1.0))),
         math.e - math.exp(-1.0), 1e-9),
        ("Q(0)", gaussian_q(0.0), 0.5, 1e-12),
    ]
    bad = [name for name, got, want, tol in checks
           if abs(got - want) > tol * max(abs(want), 1.0)]
    ok = not bad
    assert record(report, 6, ok,
                  "special functions match closed forms"
                  + ("" if ok else f" except {bad}"))


def test_criterion_7_ber_vs_snr_trends(report, sweep_snr):
    results, elapsed = sweep_snr
    by_w = {}
    for r in results:
        by_w.setdefault(r.W, []).append(r)
    problems = []
    for w, rows in by_w.items():
        rows.sort(key=lambda r: r.snr_db)
        for a, b in zip(rows, rows[1:]):
            if b.ber_sim > a.ber_sim + 3 * (a.ci95_halfwidth + b.ci95_halfwidth):
                problems.append(f"W={w}: BER rises {a.snr_db}->{b.snr_db} dB")
    for r3, r12 in zip(by_w[3], by_w[12]):
        if r3.ber_sim > 10 * r3.ci95_halfwidth and not r12.ber_sim < r3.ber_sim:
            problems.append(f"BER(W=12) !< BER(W=3) at {r3.snr_db} dB")
    if elapsed >= 180.0:
        problems.append(f"runtime {elapsed:.0f}s >= 180s")
    ok = not problems
    bers = {w: [round(r.ber_sim, 5) for r in rows] for w, rows in by_w.items()}
    assert record(report, 7, ok,
                  f"BER vs SNR trends at 1e5 trials ({_runtime(elapsed, 180.0)}): {bers}"
                  + ("" if ok else f"; problems: {problems}"))


def test_criterion_8_ber_vs_w_trends(report, sweep_w):
    by_snr = {}
    for r in sweep_w:
        by_snr.setdefault(r.snr_db, []).append(r)
    problems = []
    for snr, rows in by_snr.items():
        rows.sort(key=lambda r: r.W)
        for a, b in zip(rows, rows[1:]):
            if b.ber_sim > a.ber_sim + 3 * (a.ci95_halfwidth + b.ci95_halfwidth):
                problems.append(f"{snr} dB: BER rises W={a.W}->W={b.W}")
    ok = not problems
    bers = {snr: [round(r.ber_sim, 5) for r in rows] for snr, rows in by_snr.items()}
    assert record(report, 8, ok,
                  f"BER vs W trends at 13/16 dB, 1e5 trials: {bers}"
                  + ("" if ok else f"; problems: {problems}"))


def test_criterion_9_theory_vs_simulation(report, sweep_snr, sweep_w):
    """|ber_sim - ber_theory_exact| <= max(3*ci95, 0.5*ber_theory_exact) at
    every sweep point whose modeled BER is at least 1e-4.

    The modeled H1 statistic treats the backscatter bin energies as a fixed
    noncentrality, but in the simulated chain the W statistic bins sit inside
    one channel coherence bandwidth and ride a product of two Rayleigh-like
    fades, so the simulated BER saturates far above the fixed-noncentrality
    prediction. The gap below is structural, not a tolerance issue.
    """
    results = sweep_snr[0] + sweep_w
    gaps, failures = [], []
    for r in results:
        gap = abs(r.ber_sim - r.ber_theory_exact)
        approx_line = (f"  criterion 9 detail: snr={r.snr_db:g} W={r.W} "
                       f"sim={r.ber_sim:.4e} exact={r.ber_theory_exact:.4e} "
                       f"approx={r.ber_theory_approx:.4e} gap={gap:.4e}")
        report.add(approx_line)
        if r.ber_theory_exact >= 1e-4:
            bound = max(3 * r.ci95_halfwidth, 0.5 * r.ber_theory_exact)
            if gap > bound:
                failures.append(
                    f"snr={r.snr_db:g} W={r.W}: sim {r.ber_sim:.3e} vs "
                    f"theory {r.ber_theory_exact:.3e} (bound {bound:.3e})"
                )
        gaps.append(gap)
    ok = not failures
    assert record(report, 9, ok,
                  "theory-vs-simulation agreement at gated points"
                  + ("" if ok else f"; {len(failures)} points exceed bound: {failures}"))


def test_criterion_10_ml_optimality_probe(report):
    worst = None
    ok = True
    for w in (3, 12):
        for snr_db in (13.0, 16.0):
            gamma = 10 ** (snr_db / 10)
            p = SystemConfig(W=w, dof_convention="complex")
            th = threshold_exact(p, gamma)
            _, _, pe = ber_exact(p, gamma, th)
            for c in (0.5, 0.8, 1.2, 2.0):
                _, _, pe_c = ber_exact(p, gamma, c * th)
                if pe > pe_c * (1 + 1e-9):
                    ok = False
                    worst = f"W={w} snr={snr_db} c={c}: {pe:.3e} > {pe_c:.3e}"
    assert record(report, 10, ok,
                  "ML threshold minimizes modeled BER under perturbations "
                  "c in {0.5, 0.8, 1.2, 2.0}" + ("" if ok else f"; violated at {worst}"))


def test_criterion_11_determinism_across_workers(report, tmp_path):
    files = []
    for workers in (1, 8):
        spec = ExperimentSpec(base=SystemConfig(seed=424242), workers=workers)
        results = run_experiment(spec)
        path = tmp_path / f"default_w{workers}.csv"
        emit_csv(results, path)
        files.append(path.read_bytes())
        if workers == 1:
            # note how the default pipeline behaves for the record
            rows = sorted(results, key=lambda r: (r.W, r.snr_db))
            report.add("  criterion 11 detail (default convention sweep): "
                       + ", ".join(f"(W={r.W},{r.snr_db:g}dB)={r.ber_sim:.4f}" for r in rows))
    ok = files[0] == files[1]
    assert record(report, 11, ok,
                  f"default experiment CSVs byte-identical at 1 and 8 workers "
                  f"({len(files[0])} bytes)")
