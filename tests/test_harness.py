"""Monte Carlo driver: determinism, trends, CSV contract, config handling, CLI."""

import math
import re
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import cpscatter
from cpscatter import cli, detector, harness
from cpscatter.harness import (
    _CHUNK,
    CSV_HEADER,
    BerResult,
    ExperimentSpec,
    _chunk_statistics,
    _point_setup,
    _run_chunk,
    build_spec,
    collect_statistics,
    emit_csv,
    format_effective_config,
    load_config_file,
    parse_csv,
    run_experiment,
    run_pdf_curves,
    run_trial,
    trial_stream,
    write_pdf_csv,
)
from cpscatter.detector import detection_snr, threshold_exact, threshold_for
from cpscatter.phy import SystemConfig, draw_channels
from cpscatter.receiver import bin_gains, bin_geometry, statistic_bins


def make_result(**kw):
    base = dict(
        snr_db=6.0, W=3, trials=100, bit_errors=20, ber_sim=0.2,
        ci95_halfwidth=0.01, ber_theory_approx=0.1, ber_theory_exact=0.12,
        threshold_used=6.5, wall_ms=10, dof_convention="paper",
        threshold_mode="closed-form", seed=1,
    )
    base.update(kw)
    return BerResult(**base)


# --- streams and run_trial ------------------------------------------------------

def test_trial_streams_unique():
    ids = {trial_stream(1, p, t).stream for p in range(3) for t in range(50)}
    assert len(ids) == 150


def test_run_trial_deterministic():
    cfg = SystemConfig(seed=5)
    seq1 = [run_trial(cfg, trial_stream(5, 0, i)) for i in range(100)]
    seq2 = [run_trial(cfg, trial_stream(5, 0, i)) for i in range(100)]
    assert seq1 == seq2
    assert any(b == 1 for b, _ in seq1) and any(b == 0 for b, _ in seq1)


def test_run_trial_eta_zero_is_chance_level():
    cfg = SystemConfig(eta=0.0, snr_mode="from-Ps", seed=31)
    n = 5000
    errs = sum(b != d for b, d in (run_trial(cfg, trial_stream(31, 0, i)) for i in range(n)))
    assert errs / n == pytest.approx(0.5, abs=0.03)


def test_run_trial_high_snr_sanity():
    # vanishing noise and a huge detection SNR; the statistic spans the whole
    # band (W = R+1) so per-window channel fades average out
    cfg = SystemConfig(Nw=1e-12, snr_mode="from-Ps", W=246, seed=32)
    n = 3000
    errs = sum(b != d for b, d in (run_trial(cfg, trial_stream(32, 0, i)) for i in range(n)))
    assert errs / n < 1e-3


def test_small_w_error_floor_under_fading():
    # with W inside one coherence bandwidth the H1 statistic rides a single
    # two-fold Rayleigh product fade, so the error rate saturates no matter
    # how large the SNR gets
    cfg = SystemConfig(gamma_db=60.0, dof_convention="complex",
                       threshold_mode="exact-root", W=12, seed=33)
    errs = _run_chunk(cfg, 0, 0, 5000)
    assert 0.10 < errs / 5000 < 0.25


# (sent, decided) of 256 run_trial frames as 256-bit hex words, frame 0 in
# the most significant bit; recorded before the detection-SNR formula and
# the direct-gamma rescale were shared with the batch kernel
RUN_TRIAL_GOLDEN = [
    # (gamma_db or None for from-Ps, W, point_index, sent, decided)
    (6.0, 3, 0,
     "968c29f791edcb2fec0cdfb4659b5e1099c963ee411e48947527793624edee1e",
     "8288204100cdcb206c044230601106189109436c401208c436206820006d063e"),
    (16.0, 12, 7,
     "e7f0a89d1475193afc3f634cfc2152e9f7ab6b3e92397aa9483c91663c95158d",
     "8560a0851431182258272204ec2052e9f6ab681292195aa0481091600c14058d"),
    (None, 12, 1,
     "97a8612ba230a0318a6a6b6b5b46e2a873fc6821d883991c5d05d0ad2d8225a0",
     "9188612b8020a030082820285806a22811ac68218803801c4505500d2d022420"),
]


@pytest.mark.parametrize("gamma_db,w,point,sent,decided", RUN_TRIAL_GOLDEN)
def test_run_trial_golden_sequence(gamma_db, w, point, sent, decided):
    cfg = SystemConfig(dof_convention="complex", threshold_mode="exact-root",
                       W=w, seed=1)
    cfg = replace(cfg, snr_mode="from-Ps") if gamma_db is None else replace(cfg, gamma_db=gamma_db)
    seq = [run_trial(cfg, trial_stream(1, point, i)) for i in range(256)]
    as_hex = lambda bits: format(int("".join(map(str, bits)), 2), "064x")
    assert as_hex([b for b, _ in seq]) == sent
    assert as_hex([d for _, d in seq]) == decided


# run_trial's errors per point on the benchmark's reference-frames sweep
# (seed 1, complex, exact-root, genie, 256 frames per point, point_index in
# run order), recorded while phy still filtered with np.convolve
REFERENCE_FRAMES_ERRORS = {
    (6.0, 3): 67, (6.0, 12): 41, (9.0, 3): 47, (9.0, 12): 52,
    (13.0, 3): 64, (13.0, 12): 45, (16.0, 3): 53, (16.0, 12): 44,
}


def test_run_trial_reference_frames_errors_pinned():
    base = SystemConfig(dof_convention="complex", threshold_mode="exact-root",
                        gamma_knowledge="genie", seed=1)
    got = {}
    for point, (snr, w) in enumerate(REFERENCE_FRAMES_ERRORS):
        cfg = replace(base, gamma_db=snr, W=w)
        got[snr, w] = sum(b != d for b, d in (run_trial(cfg, trial_stream(1, point, i))
                                              for i in range(256)))
    assert got == REFERENCE_FRAMES_ERRORS
    assert sum(got.values()) == 413


# per-point errors of a from-Ps genie exact-root sweep (seed 1313, 4096
# trials, W in the run order 3, 12, 1, 2, 64, 246, workers 1). W 3 and 12
# were recorded while the kernel still solved each trial's threshold, the
# rest while it evaluated the log-density ratio at every trial; neither the
# sign of that ratio nor the Bessel-ratio bounds that now settle most trials
# may change one decision
FROM_PS_W_ORDER = (3, 12, 1, 2, 64, 246)
FROM_PS_GOLDEN = {
    "paper": {3: 1010, 12: 823, 1: 1339, 2: 1067, 64: 455, 246: 3},
    "complex": {3: 1030, 12: 831, 1: 1324, 2: 1081, 64: 458, 246: 3},
}


@pytest.mark.parametrize("conv", sorted(FROM_PS_GOLDEN))
def test_from_ps_genie_errors_golden(conv):
    base = SystemConfig(snr_mode="from-Ps", gamma_knowledge="genie", dof_convention=conv,
                        threshold_mode="exact-root", seed=1313)
    spec = ExperimentSpec(base=base, W_list=FROM_PS_W_ORDER, trials_per_point=4096, workers=1)
    assert {r.W: r.bit_errors for r in run_experiment(spec)} == FROM_PS_GOLDEN[conv]


# far past the SNRs where lam * x (the density's Bessel argument squared),
# 4 nc x (the Chernoff tail) and the closed form's L^2 overflow; each point
# runs with the BER of its row at a moderate SNR, or fails before any chunk,
# naming the SNR
HIGH_SNR_REFERENCE = {"from-Ps": 1e20, "direct-gamma": 200.0}
HIGH_SNR_POINTS = [("from-Ps", ps) for ps in (1e100, 1e160, 1e200, 1e290)] + [
    ("direct-gamma", db) for db in (2000.0, 3000.0)]


def _high_snr_spec(conv, mode, level, w, threshold):
    if mode == "from-Ps":
        base = SystemConfig(snr_mode=mode, Ps=level, dof_convention=conv,
                            threshold_mode=threshold, seed=29)
        return ExperimentSpec(base=base, W_list=w, trials_per_point=1024, workers=1)
    base = SystemConfig(dof_convention=conv, threshold_mode=threshold, seed=29)
    return ExperimentSpec(base=base, snr_db_list=(level,), W_list=w,
                          trials_per_point=1024, workers=1)


@pytest.mark.parametrize("mode,level", HIGH_SNR_POINTS)
@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_extreme_snr_runs_true_or_fails_first(conv, mode, level):
    # both threshold modes in one loop (not parameters, so the test ids stay)
    w = (3, 12, 246)
    for threshold in ("exact-root", "closed-form"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = run_experiment(
                _high_snr_spec(conv, mode, HIGH_SNR_REFERENCE[mode], w, threshold))
            try:
                spec = _high_snr_spec(conv, mode, level, w, threshold)
            except ValueError as exc:
                assert mode == "direct-gamma" and f"SNR {level:.1f} dB" in str(exc)
                continue
            got = run_experiment(spec)
        assert mode == "from-Ps" or level < 3000
        for r, r0 in zip(got, ref):
            assert r.W == r0.W
            assert math.isfinite(r.threshold_used), (threshold, r.W)
            assert abs(r.ber_sim - r0.ber_sim) <= 3 * max(r0.ci95_halfwidth, 1.0 / r0.trials)
            assert 0.0 <= r.ber_theory_exact <= 1.0


def test_statistic_overflow_fails_before_any_chunk(tmp_path, monkeypatch, capsys):
    # at Ps = 1e303 the bins' energies would overflow float64 (the W = 12
    # row moved once the decision itself no longer overflowed); the run is
    # refused with the SNR named, and no chunk runs and no CSV is written
    ran = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *a: ran.append(a) or 0)
    out = tmp_path / "never.csv"
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("snr_mode=from-Ps\nPs=1e303\nthreshold_mode=exact-root\n")
    rc = cli.main(["run", "--config", str(cfg), "--w", "3", "12", "--trials", "64",
                   "--out", str(out)])
    assert rc == 1 and not ran and not out.exists()
    assert re.search(r"W=3: detection SNR 30\d\d\.\d dB is out of range", capsys.readouterr().err)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_fails_before_any_work(seed, tmp_path, capsys):
    # numpy would alias such a seed onto another one's Philox key
    with pytest.raises(ValueError, match="seed"):
        SystemConfig(seed=seed)
    out = tmp_path / "never.csv"
    rc = cli.main(["run", "--seed", str(seed), "--trials", "8", "--out", str(out)])
    assert rc == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_seeds_above_2_63_get_their_own_streams():
    # 2^63 and 2^63 + 1 once collapsed onto the same float64 key word
    seeds = (1 << 63, (1 << 63) + 1)
    stats = [collect_statistics(SystemConfig(W=3, seed=s), 64)[1] for s in seeds]
    frames = [[run_trial(SystemConfig(W=3, seed=s), trial_stream(s, 0, i)) for i in range(64)]
              for s in seeds]
    assert not np.array_equal(*stats)
    assert frames[0] != frames[1]


def test_largest_seed_runs_without_warnings():
    seed = (1 << 64) - 1
    cfg = SystemConfig(W=3, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run_chunk(cfg, 0, 0, 16)
        run_trial(cfg, trial_stream(seed, 0, 0))


def test_run_trial_direct_gamma_requires_eta():
    cfg = SystemConfig(eta=0.0)
    with pytest.raises(ValueError):
        run_trial(cfg, trial_stream(1, 0, 0))



def test_run_trial_reuses_the_point_threshold():
    # each frame has its own source power; the threshold is looked up at the
    # point, so a direct-gamma point solves it once
    from cpscatter import detector

    cfg = SystemConfig(gamma_db=7.25, W=5, dof_convention="complex",
                       threshold_mode="exact-root", seed=3)
    detector.threshold_for.cache_clear()
    for i in range(20):
        run_trial(cfg, trial_stream(3, 0, i))
    info = detector.threshold_for.cache_info()
    assert (info.misses, info.hits) == (1, 19)


SNR_MODES = [
    dict(snr_mode="direct-gamma"),
    dict(snr_mode="from-Ps", gamma_knowledge="genie"),
    dict(snr_mode="from-Ps", gamma_knowledge="ensemble"),
]


@pytest.mark.parametrize("mode", SNR_MODES[:2])
def test_run_trial_decides_each_frame_through_decide(monkeypatch, mode):
    # run_trial makes one detector.decide call per frame, at the frame's own
    # SNR (the pinned one, or the drawn taps' for from-Ps genie), and returns
    # ints, from which callers build bytes
    cfg = SystemConfig(W=3, dof_convention="complex", threshold_mode="exact-root",
                       seed=5, **mode)
    calls = []

    def spy(config, stat, gamma):
        calls.append((config, gamma))
        return detector.decide(config, stat, gamma)

    monkeypatch.setattr(harness, "decide", spy)
    gammas = []
    for i in range(8):
        calls.clear()
        sent, decided = run_trial(cfg, trial_stream(5, 0, i))
        channels = draw_channels(cfg, trial_stream(5, 0, i).generator())
        _, gamma = detection_snr(cfg, channels.sum_g2, channels.sum_f2)
        assert calls == [(cfg, gamma)]
        assert type(sent) is int and type(decided) is int and decided in (0, 1)
        gammas.append(gamma)
    assert len(set(gammas)) == (1 if mode["snr_mode"] == "direct-gamma" else 8)


@pytest.mark.parametrize("mode", SNR_MODES)
def test_zero_noise_fails_in_every_snr_mode(mode):
    # the statistic is 0/0 without noise; both paths must say so, not divide
    cfg = SystemConfig(Nw=0.0, **mode)
    with pytest.raises(ValueError, match="Nw"):
        run_trial(cfg, trial_stream(1, 0, 0))
    with pytest.raises(ValueError, match="Nw"):
        collect_statistics(cfg, 16)


# --- batch kernel ----------------------------------------------------------------

def test_kernel_reproducible_and_chunk_invariant():
    # a point's trials are its _CHUNK-aligned chunks, one keyed stream each:
    # repeat runs agree, collect_statistics is their concatenation, and the
    # chunks' error counts are the statistics decided at the point threshold
    cfg = SystemConfig(gamma_db=6.0, W=3, dof_convention="complex",
                       threshold_mode="exact-root", seed=6)
    n = 2 * _CHUNK + 452
    bits, stats = collect_statistics(cfg, n)
    again_bits, again_stats = collect_statistics(cfg, n)
    assert np.array_equal(bits, again_bits) and np.array_equal(stats, again_stats)
    starts = range(0, n, _CHUNK)
    chunks = [_chunk_statistics(cfg, 0, s, min(_CHUNK, n - s)) for s in starts]
    assert np.array_equal(bits, np.concatenate([c[0] for c in chunks]))
    assert np.array_equal(stats, np.concatenate([c[1] for c in chunks]))
    errors = [_run_chunk(cfg, 0, s, min(_CHUNK, n - s)) for s in starts]
    assert errors == [_run_chunk(cfg, 0, s, min(_CHUNK, n - s)) for s in starts]
    _, _, threshold = _point_setup(cfg)
    assert sum(errors) == int(np.sum((stats >= threshold) != bits))


# no, short and long edges, edges longer than the window (M > R+1), and
# each W up to R+1, where the window tail is a function of the bins
_ORACLE_GEOMETRIES = [{}, {"M": 0}, {"L": 9, "M": 11, "K": 8},
                      {"N": 64, "C": 32, "L": 2, "M": 7, "K": 3},
                      {"N": 64, "C": 32, "L": 0, "M": 20, "K": 0}]


def _oracle_ws(geometry):
    return sorted({1, 3, 12, SystemConfig(**geometry).R + 1})


def test_kernel_streams_match_fresh_philox():
    # keying half: a chunk's statistics must equal those rebuilt from
    # Philox(key=[seed, point << 40 | start]), its block of normals read row
    # by row in the layout [g | f | S | pre | z | b | a | bit], with the edge
    # samples from the edge map (checked by the window half below) and explicit
    # W-bin sums for the tap DFTs G and F, the edge terms and the noise bins
    from cpscatter.receiver import noise_power

    for geometry in _ORACLE_GEOMETRIES:
        for w in _oracle_ws(geometry):
            cfg = SystemConfig(seed=12, eta=1.0, snr_mode="from-Ps", Nw=1.5, W=w,
                               **geometry)
            m, k, nb = cfg.M, cfg.K, cfg.R + 1
            sizes = [m + 1, k + 1, w, m, min(m, nb), k, w]
            emap = bin_geometry(w, m, k, nb)[1]

            def omega(n):
                return np.exp(-2j * np.pi * (n % nb) / nb)

            rows, stats = [], []
            for start in (0, 3 * _CHUNK):
                stats.extend(_chunk_statistics(cfg, 3, start, 2, force_bit=1)[1])
                rows.extend(np.random.Generator(
                    np.random.Philox(key=[12, (3 << 40) | start])
                ).standard_normal((2, 2 * sum(sizes) + 1)))
            for i, fresh in enumerate(rows):
                cn = (fresh[0:-1:2] + 1j * fresh[1:-1:2]) / np.sqrt(2.0)  # CN(0, 1)
                g, f, s_bins, pre, z, b, a = np.split(cn, np.cumsum(sizes[:-1]))
                # d_i = s[Q-i] - s[Q+nb-i], i = 1..M
                d = pre - np.concatenate([s_bins, pre, z]) @ emap
                want = 0.0
                for p in range(w):  # eta = 1, Ps = 1, bit = 1
                    big_g = sum(g[j] * omega(p * j) for j in range(m + 1))
                    big_f = sum(f[j] * omega(p * j) for j in range(k + 1))
                    edge = sum(g[j] * d[i_ - 1] * omega(p * (j - i_))
                               for j in range(1, m + 1) for i_ in range(1, j + 1))
                    signal = big_f * (big_g * np.sqrt(nb) * s_bins[p] + edge)
                    noise = np.sqrt(2.0 * cfg.Nw) * (
                        np.sqrt(nb) * a[p] + sum(b[j] * omega(p * j) for j in range(k)))
                    want += abs(signal + noise) ** 2
                assert stats[i] == pytest.approx(want / noise_power(cfg), rel=1e-12), (
                    geometry, w, i)


def test_kernel_edge_draw_has_the_full_window_law():
    # window half: in place of the nb-sample window the kernel draws its bins
    # S = sqrt(nb) s_bins, the M pre-window samples and the innovations z,
    # and maps [s_bins | pre | z] to the edge samples s[Q+nb-i], i = 1..M.
    # All are jointly Gaussian, so the law is the covariance: that of
    # (S, edge, pre) must equal the DFT-and-selector map's on a full window
    # of i.i.d. samples, where edge sample i is window[nb-i] for i <= nb
    # and pre-window sample i-nb beyond it
    for geometry in _ORACLE_GEOMETRIES:
        cfg = SystemConfig(**geometry)
        m, nb = cfg.M, cfg.R + 1
        for w in _oracle_ws(geometry):
            mt = min(m, nb)
            emap = bin_geometry(w, m, cfg.K, nb)[1]
            drawn = np.zeros((w + 2 * m, w + m + mt), dtype=complex)
            drawn[:w, :w] = np.sqrt(nb) * np.eye(w)
            drawn[w : w + m] = emap.T
            drawn[w + m :, w : w + m] = np.eye(m)
            full = np.zeros((w + 2 * m, nb + m), dtype=complex)  # [window | pre]
            full[:w, :nb] = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(nb)) / nb)
            for i in range(1, m + 1):
                full[w + i - 1, nb - i if i <= nb else nb + (i - nb) - 1] = 1.0
            full[w + m :, nb:] = np.eye(m)
            cov_drawn = drawn @ drawn.conj().T
            cov_full = full @ full.conj().T
            assert np.max(np.abs(cov_drawn - cov_full)) < 1e-12 * nb, (geometry, w)


@pytest.mark.parametrize("rows", [1, 100, _CHUNK])
def test_chunk_statistics_do_not_depend_on_the_row_block(monkeypatch, rows):
    # a chunk is drawn and reduced _ROWS rows at a time; any block size gives
    # the same bits, statistics and SNRs (a scalar, or one per genie trial)
    from cpscatter import harness

    points = [SystemConfig(seed=31, W=12, gamma_db=9.0),
              SystemConfig(seed=31, W=3, snr_mode="from-Ps", dof_convention="complex",
                           threshold_mode="exact-root")]
    want = [_chunk_statistics(p, 1, _CHUNK, _CHUNK - 24) for p in points]
    monkeypatch.setattr(harness, "_ROWS", rows)
    for point, expected in zip(points, want):
        got = _chunk_statistics(point, 1, _CHUNK, _CHUNK - 24)
        for g, e in zip(got, expected):
            assert np.shape(g) == np.shape(e) and np.array_equal(g, e), (point.snr_mode, rows)


def test_kernel_chunk_is_a_prefix_of_any_longer_chunk():
    # the chunk's stream fills its block row by row, so trial start + j reads
    # the same normals whatever the chunk's length: _run_chunk(p, s, n) is
    # bit for bit the first n rows of _run_chunk(p, s, n + k)
    cfg = SystemConfig(seed=23, W=12, gamma_db=9.0)
    for start in (0, 2 * _CHUNK):
        bits, stats, _ = _chunk_statistics(cfg, 2, start, 40)
        for n in (1, 7, 39):
            head_bits, head_stats, _ = _chunk_statistics(cfg, 2, start, n)
            assert np.array_equal(head_bits, bits[:n]), (start, n)
            assert np.array_equal(head_stats, stats[:n]), (start, n)


def test_edge_map_is_cached_read_only_and_fresh():
    geometry = bin_geometry(3, 5, 5, 246)
    assert bin_geometry(3, 5, 5, 246) is geometry
    for table, fresh in zip(geometry, bin_geometry.__wrapped__(3, 5, 5, 246)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert np.array_equal(table, fresh)


def test_kernel_phases_are_the_receiver_bins_dft():
    # the kernel forms its bins from the shared phase table; column i must be
    # the DFT of a unit impulse at offset i (mod R+1: at M > R+1 the offsets
    # wrap), read at the bins test_statistic sums, so the paths cannot drift.
    # The tap stage the kernel calls, bin_gains, must give the DFTs of the
    # taps folded mod R+1 at those bins
    rng = np.random.default_rng(27)
    for geometry in _ORACLE_GEOMETRIES:
        cfg = SystemConfig(**geometry)
        nb = cfg.R + 1
        for w in _oracle_ws(geometry):
            phase, _ = bin_geometry(w, cfg.M, cfg.K, nb)
            assert phase.shape == (w, max(cfg.M, cfg.K) + 1), (geometry, w)
            for i in range(phase.shape[1]):
                impulse = np.zeros(nb)
                impulse[i % nb] = 1.0
                want = np.fft.fft(impulse)[statistic_bins(w)]
                assert np.max(np.abs(phase[:, i] - want)) < 1e-12, (geometry, w, i)

            point = replace(cfg, W=w)
            taps = [rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
                    for n in (cfg.M + 1, cfg.K + 1)]
            for tap, gains in zip(taps, bin_gains(*taps, point)):
                folded = np.zeros((4, nb), dtype=complex)
                np.add.at(folded, (slice(None), np.arange(tap.shape[1]) % nb), tap)
                want = np.fft.fft(folded, axis=1)[:, statistic_bins(w)]
                assert gains.shape == want.shape, (geometry, w)
                assert np.max(np.abs(gains - want)) < 1e-12 * nb, (geometry, w)


_LAW_GAMMA_DB = 13.0
_LAW_WS = (1, 3, 12, 246)


@lru_cache(maxsize=None)
def _full_frame_statistics(bit, geometry=(), seed=7002, n=2000):
    # the full-frame chain (draw_channels -> simulate_frame -> process ->
    # test_statistic) with run_trial's direct-gamma source rescale; one
    # frame gives the statistic at every W the geometry allows
    from cpscatter.phy import draw_channels, simulate_frame
    from cpscatter.receiver import process, test_statistic

    cfg = SystemConfig(gamma_db=_LAW_GAMMA_DB, seed=seed, **dict(geometry))
    points = {w: replace(cfg, W=w) for w in _LAW_WS if w <= cfg.R + 1}
    out = {w: np.empty(n) for w in points}
    for i in range(n):
        gen = trial_stream(cfg.seed, bit, i).generator()
        ch = draw_channels(cfg, gen)
        ps = detection_snr(cfg, ch.sum_g2, ch.sum_f2)[0]
        zt = process(simulate_frame(cfg, ch, bit, ps, gen).y, cfg)
        for w, point in points.items():
            out[w][i] = test_statistic(zt, point)
    return out


@pytest.mark.parametrize("w", _LAW_WS)
@pytest.mark.parametrize("bit", [0, 1])
def test_kernel_statistic_law_matches_full_frames(w, bit):
    # two-sample KS of forced-bit statistics, lean kernel against full
    # frames; the two sides use different seeds so no Philox key is shared
    from scipy import stats as sps

    frames = _full_frame_statistics(bit)[w]
    point = SystemConfig(W=w, gamma_db=_LAW_GAMMA_DB, seed=7001)
    _, lean = collect_statistics(point, len(frames), force_bit=bit, point_index=bit)
    assert sps.ks_2samp(lean, frames).pvalue > 1e-3


@pytest.mark.parametrize("bit", [0, 1])
def test_kernel_law_matches_full_frames_when_edges_outrun_the_window(bit):
    # at M > R+1 (here M = 20, R+1 = 12) the edge samples s[Q+R+1-i] with
    # i > R+1 precede the window: they are pre-window samples, and drawing
    # them as window-tail samples gives a plausible-looking wrong law
    from scipy import stats as sps

    geometry = (("N", 64), ("C", 32), ("L", 0), ("M", 20), ("K", 0))
    frames = _full_frame_statistics(bit, geometry, seed=7012, n=4000)[3]
    point = SystemConfig(W=3, gamma_db=_LAW_GAMMA_DB, seed=7011, **dict(geometry))
    _, lean = collect_statistics(point, len(frames), force_bit=bit, point_index=bit)
    assert sps.ks_2samp(lean, frames).pvalue > 1e-3


@pytest.mark.parametrize("w", [3, 12])
@pytest.mark.parametrize("gamma_db", [6.0, 16.0])
def test_no_multipath_statistic_is_a_scaled_central_gamma(w, gamma_db):
    # at L = M = K = 0 nothing fades and each signal bin is g f S_p with S_p
    # the DFT of a Gaussian source window, so the bins are complex Gaussian:
    # H1 is (1+gamma) Gamma(W, 1), a scaled central law (not the model's
    # noncentral chi-square), and H0 is Gamma(W, 1)
    from scipy import stats as sps

    point = SystemConfig(L=0, M=0, K=0, W=w, gamma_db=gamma_db,
                         dof_convention="complex", seed=7101)
    gamma = 10.0 ** (gamma_db / 10.0)
    _, h0 = collect_statistics(point, 20_000, force_bit=0, point_index=0)
    _, h1 = collect_statistics(point, 20_000, force_bit=1, point_index=1)
    assert sps.kstest(h0, sps.gamma(w).cdf).pvalue > 1e-3
    assert sps.kstest(h1, sps.gamma(w, scale=1.0 + gamma).cdf).pvalue > 1e-3


def test_kernel_agrees_with_run_trial_statistically():
    gamma_db, w, n = 6.0, 3, 4000
    cfg = SystemConfig(gamma_db=gamma_db, W=w, dof_convention="complex",
                       threshold_mode="exact-root", seed=91)
    kernel_errs = _run_chunk(cfg, 0, 0, n)
    ref_errs = sum(b != d for b, d in (run_trial(cfg, trial_stream(91, 7, i)) for i in range(n)))
    p1, p2 = kernel_errs / n, ref_errs / n
    sigma = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n)
    assert abs(p1 - p2) < 4 * sigma


def test_from_ps_chunk_matches_scalar_threshold_loop(monkeypatch):
    # a from-Ps chunk decides each trial at its own gamma in one array pass
    # (closed-form with no mask, exact-root by the sign of D); per-trial
    # scalar thresholds must decide every trial the same way
    seen = []

    def spy(config, stats, gamma):
        seen.append((np.array(gamma), detector.decide(config, stats, gamma)))
        return seen[-1][1]

    monkeypatch.setattr(harness, "decide", spy)
    for mode, conv in (("closed-form", "paper"), ("exact-root", "paper"),
                       ("exact-root", "complex")):
        cfg = SystemConfig(snr_mode="from-Ps", dof_convention=conv,
                           threshold_mode=mode, W=12, seed=14)
        seen.clear()
        errors = _run_chunk(cfg, 0, 0, 1024)
        ((gammas, decided),) = seen
        bits, stats = collect_statistics(cfg, 1024)
        ref = stats >= np.array([threshold_for(cfg, float(g)) for g in gammas])
        assert np.array_equal(decided, ref), (mode, conv)
        assert errors == int(np.sum(ref != bits))
        assert 0 < errors < 1024


@pytest.mark.parametrize("mode", [SNR_MODES[0], SNR_MODES[2]])
def test_kernel_threshold_handoff(mode):
    # a point with one SNR: its chunks decide at the threshold
    # run_experiment solves once per point, and the row sums the chunks
    base = SystemConfig(dof_convention="complex", threshold_mode="exact-root",
                        seed=21, **mode)
    spec = ExperimentSpec(base=base, snr_db_list=(9.0,), W_list=(3,),
                          trials_per_point=2048, workers=1)
    (point,) = spec.points()
    _, _, threshold = _point_setup(point)
    errors = [_run_chunk(point, 0, start, 1024) for start in (0, 1024)]
    bits, stats = collect_statistics(point, 2048)
    assert sum(errors) == int(np.sum((stats >= threshold) != bits))
    (row,) = run_experiment(spec)
    assert row.bit_errors == sum(errors)
    assert row.threshold_used == threshold


def test_collect_statistics_forced_bit():
    cfg = SystemConfig(W=3, gamma_db=10 * math.log10(4.0), seed=41)
    bits, stats = collect_statistics(cfg, 3000, force_bit=0)
    assert not bits.any()
    assert np.mean(stats) == pytest.approx(3.0, rel=0.05)
    bits1, stats1 = collect_statistics(cfg, 3000, force_bit=1)
    assert bits1.all()
    assert np.mean(stats1) == pytest.approx(3.0 * 5.0, rel=0.15)


@pytest.mark.parametrize("kw", [
    {"trials": 0},
    {"trials": -5},
    {"trials": 1 << 40},
    {"trials": 16, "force_bit": 2},
    {"trials": 16, "force_bit": -1},
])
def test_collect_statistics_rejects_bad_arguments_before_any_chunk(monkeypatch, kw):
    from cpscatter import harness

    calls = []
    monkeypatch.setattr(harness, "_chunk_statistics", lambda *a, **k: calls.append(a))
    # by name: with no chunks at all, unpacking them would raise a ValueError too
    with pytest.raises(ValueError, match="force_bit" if "force_bit" in kw else "trials"):
        collect_statistics(SystemConfig(W=3), **kw)
    assert calls == []


# --- run_experiment ----------------------------------------------------------------

def test_single_trial_ber_is_degenerate():
    spec = ExperimentSpec(base=SystemConfig(seed=2), snr_db_list=(13.0,),
                          W_list=(3,), trials_per_point=1, workers=1)
    (res,) = run_experiment(spec)
    assert res.ber_sim in (0.0, 1.0)
    assert res.trials == 1 and res.bit_errors in (0, 1)


def test_theory_column_finite_at_300_db():
    # chndtr returns nan for p1 here; the Chernoff bound puts p1 at 0.0
    spec = ExperimentSpec(base=SystemConfig(dof_convention="complex"), snr_db_list=(300.0,),
                          W_list=(3,), trials_per_point=64, workers=1)
    (res,) = run_experiment(spec)
    assert math.isfinite(res.ber_theory_exact)


def test_w_trend_at_high_snr():
    spec = ExperimentSpec(
        base=SystemConfig(dof_convention="complex", threshold_mode="exact-root", seed=7),
        snr_db_list=(16.0,), W_list=(3, 12), trials_per_point=20_000, workers=1,
    )
    by_w = {r.W: r for r in run_experiment(spec)}
    assert by_w[12].ber_sim < by_w[3].ber_sim


def test_snr_trend_with_noise_allowance():
    spec = ExperimentSpec(
        base=SystemConfig(dof_convention="complex", threshold_mode="exact-root", seed=8),
        snr_db_list=(13.0, 16.0), W_list=(12,), trials_per_point=20_000, workers=1,
    )
    res = sorted(run_experiment(spec), key=lambda r: r.snr_db)
    allowance = 3 * (res[0].ci95_halfwidth + res[1].ci95_halfwidth)
    assert res[1].ber_sim <= res[0].ber_sim + allowance
    for r in res:
        assert r.ber_sim == pytest.approx(r.bit_errors / r.trials, rel=1e-12)
        assert r.ci95_halfwidth == pytest.approx(
            1.96 * math.sqrt(r.ber_sim * (1 - r.ber_sim) / r.trials), rel=1e-12
        )


def test_worker_count_invariance(tmp_path):
    # direct-gamma, and from-Ps genie exact-root, whose trials are each
    # decided at their own SNR; 3000 trials leave a short last chunk, and 8
    # workers are more threads than the 3 chunks of a point
    from_ps = dict(snr_mode="from-Ps", gamma_knowledge="genie",
                   dof_convention="complex", threshold_mode="exact-root")
    for mode, base in (("direct", SystemConfig(seed=9)),
                       ("from-ps", SystemConfig(seed=9, **from_ps))):
        csvs = []
        for workers in (1, 2, 8):
            spec = ExperimentSpec(base=base, snr_db_list=(9.0,), W_list=(3, 12),
                                  trials_per_point=3000, workers=workers,
                                  output_path=str(tmp_path / f"{mode}-w{workers}.csv"))
            emit_csv(run_experiment(spec), spec.output_path)
            csvs.append(Path(spec.output_path).read_bytes())
        assert csvs[1:] == [csvs[0]] * 2, mode


_SEEN_CHUNKS = []


def _chunk_spy(point, point_index, start, count):
    errors = _run_chunk(point, point_index, start, count)
    _SEEN_CHUNKS.append((point_index, start, count, errors, threading.current_thread()))
    return errors


def test_pooled_chunks_run_in_this_process_on_threads_kept_across_runs(monkeypatch):
    # the worker threads call the module's _run_chunk, so a patch of it sees
    # every chunk of every point exactly once, and its counts are the row's;
    # a chunk run in another process would append to that process's list.
    # The second run reuses the first run's two threads
    from cpscatter import harness

    seen, threads = _SEEN_CHUNKS, set()
    monkeypatch.setattr(harness, "_run_chunk", _chunk_spy)
    spec = ExperimentSpec(base=SystemConfig(seed=6), snr_db_list=(6.0, 16.0), W_list=(3,),
                          trials_per_point=2500, workers=2)
    for _ in range(2):
        seen.clear()
        rows = run_experiment(spec)
        assert sorted(s[:3] for s in seen) == [(i, start, min(_CHUNK, 2500 - start))
                                               for i in (0, 1) for start in (0, 1024, 2048)]
        for i, row in enumerate(rows):
            assert row.bit_errors == sum(s[3] for s in seen if s[0] == i)
        threads |= {s[4] for s in seen}
    assert len(threads) <= 2 and threading.main_thread() not in threads


def test_threads_racing_on_a_cold_geometry_cache_give_the_serial_counts():
    # more threads than CPUs on a short switch interval, with bin_geometry's
    # LRU cold, so chunks race on its misses; a torn or lost entry would
    # move an error count
    spec = ExperimentSpec(base=SystemConfig(seed=8, M=7, K=3), snr_db_list=(6.0, 9.0),
                          W_list=(3, 12), trials_per_point=4 * _CHUNK, workers=1)
    want = [r.bit_errors for r in run_experiment(spec)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        bin_geometry.cache_clear()
        got = [r.bit_errors for r in run_experiment(replace(spec, workers=8))]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("affinity, want", [({0}, 1), ({0, 2, 5}, 3), (None, 5)])
def test_default_workers_are_the_cpus_this_process_may_use(monkeypatch, affinity, want):
    # workers=0 counts the affinity mask, not every CPU of the machine;
    # os.cpu_count() only where the OS has no affinity call
    from cpscatter import harness

    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity))
    pools, thread_pool = [], harness._thread_pool

    def spy_pool(workers):
        pools.append(workers)
        return thread_pool(workers)

    monkeypatch.setattr(harness, "_thread_pool", spy_pool)
    spec = ExperimentSpec(base=SystemConfig(seed=6), snr_db_list=(6.0,), W_list=(3,),
                          trials_per_point=64, workers=0)
    run_experiment(spec)
    assert pools == ([] if want == 1 else [want])  # one worker runs in this thread


class _ChunkFailure(RuntimeError):
    pass


def _chunk_failing_at_point_1(point, point_index, start, count):
    # point 1 fails at once; the later points' chunks only sleep
    if point_index == 1:
        raise _ChunkFailure(f"chunk {start} of point 1")
    if point_index > 1:
        time.sleep(0.25)
        return 0
    return _run_chunk(point, point_index, start, count)


def test_chunk_failure_propagates_and_cancels_later_chunks(monkeypatch):
    # every chunk is submitted up front; when one fails, the error must
    # reach the caller without waiting for the later points' 20 chunks
    # (2.5 s of sleeps on two workers)
    from cpscatter import harness

    monkeypatch.setattr(harness, "_run_chunk", _chunk_failing_at_point_1)
    spec = ExperimentSpec(base=SystemConfig(seed=4), snr_db_list=(6.0, 9.0, 13.0, 16.0),
                          W_list=(3,), trials_per_point=10 * _CHUNK, workers=2)
    t0 = time.perf_counter()
    with pytest.raises(_ChunkFailure):
        run_experiment(spec)
    assert time.perf_counter() - t0 < 1.5


def test_point_wall_times_add_up_to_the_run(monkeypatch):
    # wall_ms runs from the previous point's completion (or the run's start)
    # to this point's, rounded on the run's clock: rounding each interval
    # alone would give 10, 11, 14, 4 here, 39 ms against a 40 ms run
    from types import SimpleNamespace

    from cpscatter import harness

    clock = iter([0.0, 0.0104, 0.0213, 0.0356, 0.0401])  # start, then each point
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    spec = ExperimentSpec(base=SystemConfig(seed=4), snr_db_list=(6.0, 9.0),
                          W_list=(3, 12), trials_per_point=64, workers=1)
    walls = {(r.snr_db, r.W): r.wall_ms for r in run_experiment(spec)}
    assert walls == {(6.0, 3): 10, (6.0, 12): 11, (9.0, 3): 15, (9.0, 12): 4}


def test_from_ps_mode_reports_ensemble_snr():
    base = SystemConfig(snr_mode="from-Ps", gamma_knowledge="ensemble", seed=10)
    spec = ExperimentSpec(base=base, snr_db_list=(0.0,), W_list=(3, 12),
                          trials_per_point=500, workers=1)
    res = run_experiment(spec)
    assert len(res) == 2  # one point per W; the snr axis is channel-determined
    want_gamma = 246 * 0.25 * 1.0 * 36 / 502.0
    for r in res:
        assert r.snr_db == pytest.approx(10 * math.log10(want_gamma), rel=1e-9)



@pytest.mark.parametrize("kw", [
    dict(dof_convention="paper", threshold_mode="closed-form"),
    dict(dof_convention="complex", threshold_mode="exact-root"),
])
def test_row_theory_columns_come_from_its_point(kw):
    from cpscatter import analysis

    spec = ExperimentSpec(base=SystemConfig(seed=12, **kw), snr_db_list=(6.0, 16.0),
                          W_list=(3, 12), trials_per_point=64, workers=1)
    rows = {(r.snr_db, r.W): r for r in run_experiment(spec)}
    for point in spec.points():
        _, gamma = detection_snr(point, point.M + 1, point.K + 1)
        row = rows[(point.gamma_db, point.W)]
        assert row.threshold_used == threshold_for(point, gamma)
        assert row.ber_theory_exact == analysis.ber_exact(point, gamma, row.threshold_used)[2]
        assert row.ber_theory_approx == analysis.ber_approx(point, gamma, row.threshold_used)

def test_emit_mode_ordering():
    base = SystemConfig(seed=11)
    kw = dict(base=base, snr_db_list=(9.0, 6.0), W_list=(12, 3),
              trials_per_point=50, workers=1)
    by_snr = run_experiment(ExperimentSpec(emit="ber_vs_snr", **kw))
    assert [(r.W, r.snr_db) for r in by_snr] == [(3, 6.0), (3, 9.0), (12, 6.0), (12, 9.0)]
    by_w = run_experiment(ExperimentSpec(emit="ber_vs_w", **kw))
    assert [(r.snr_db, r.W) for r in by_w] == [(6.0, 3), (6.0, 12), (9.0, 3), (9.0, 12)]


def test_spec_points_in_run_order():
    base = SystemConfig(seed=3)
    spec = ExperimentSpec(base=base, snr_db_list=(9.0, 6.0), W_list=(12, 3))
    assert spec.points() == [replace(base, gamma_db=snr, W=w)
                             for snr, w in ((9.0, 12), (9.0, 3), (6.0, 12), (6.0, 3))]
    from_ps = replace(spec, base=replace(base, snr_mode="from-Ps"))
    assert from_ps.points() == [replace(from_ps.base, W=w) for w in (12, 3)]


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(snr_db_list=())
    with pytest.raises(ValueError):
        ExperimentSpec(W_list=())
    with pytest.raises(ValueError):
        ExperimentSpec(trials_per_point=0)
    with pytest.raises(ValueError):
        ExperimentSpec(emit="nope")
    with pytest.raises(ValueError):
        ExperimentSpec(W_list=(500,))
    # a bool count ran one trial; a float count failed only inside the run
    for bad in ({"trials_per_point": True}, {"trials_per_point": 100.5},
                {"workers": 1.5}, {"workers": False}):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentSpec(**bad)
    spec = ExperimentSpec(trials_per_point=np.int64(64), workers=np.int32(1))
    assert spec.trials_per_point == 64 and spec.workers == 1


@pytest.mark.parametrize("cfg_text", [
    "Nw = 0\n",  # 0/0 statistics would give a chance-level ber_sim
    "threshold_mode = closed-form\nW_list = 3 1\n",  # W=1 only fails at its point
    "eta = 0\n",  # direct-gamma rescales to an SNR that eta = 0 cannot reach
    "trials = 5\n",  # the removed SystemConfig.trials is now an unknown key
    "Nw = nan\n",  # non-finite values used to give a plausible wrong row
    "Nw = inf\n",
    "eta = nan\n",
    "eta = inf\n",
    "snr_mode = from-Ps\nPs = inf\n",
    "snr_db_list = 6 nan\n",
    "snr_db_list = inf\n",
    "snr_db_list = -inf 6\n",
    "gamma_db = 3090\n",  # each point sets gamma_db, so a base value is refused
    "snr_db_list = 3090\n",  # 10^(gamma_db/10) overflowed with a bare OverflowError
    "snr_db_list = 6 3090\n",
    "gamma_knowledge = ensemble\n",  # direct-gamma wrote the genie CSV without a word
])
def test_degenerate_sweeps_fail_before_any_chunk(monkeypatch, tmp_path, cfg_text):
    from cpscatter import harness

    calls = []
    monkeypatch.setattr(harness, "_run_chunk", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    with pytest.raises(ValueError):
        build_spec(load_config_file(cfg))
    out = tmp_path / "r.csv"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 1
    assert calls == [] and not out.exists()


def test_paper_convention_exact_root_at_w1():
    base = SystemConfig(threshold_mode="exact-root", snr_mode="from-Ps", seed=15)
    (res,) = run_experiment(ExperimentSpec(base=base, W_list=(1,),
                                           trials_per_point=256, workers=1))
    assert res.W == 1 and res.threshold_used > 0
    assert 0.0 <= res.ber_theory_exact <= 0.5


# --- CSV contract -------------------------------------------------------------------

def test_csv_header_and_column_count(tmp_path):
    path = tmp_path / "r.csv"
    emit_csv([make_result()], path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines[0].split(",")) == 12
    assert len(lines[1].split(",")) == 12


def test_csv_empty_results(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_round_trip(tmp_path):
    res = [
        make_result(snr_db=6.0, W=3, ber_sim=1 / 3, ci95_halfwidth=1.234e-5,
                    ber_theory_exact=2.5e-13, threshold_used=20.070335570339452),
        make_result(snr_db=16.0, W=12, dof_convention="complex",
                    threshold_mode="exact-root", seed=77),
    ]
    path = tmp_path / "rt.csv"
    emit_csv(res, path)
    back = parse_csv(path)
    for a, b in zip(res, back):
        for name in ("snr_db", "W", "trials", "bit_errors", "ber_sim",
                     "ci95_halfwidth", "ber_theory_approx", "ber_theory_exact",
                     "threshold_used", "dof_convention", "threshold_mode", "seed"):
            assert getattr(a, name) == getattr(b, name)


def test_csv_write_error_mentions_path():
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv([], "/no/such/dir/out.csv")
    with pytest.raises(OSError, match="pdf table.*no/such/dir"):
        write_pdf_csv(np.zeros((2, 3)), "/no/such/dir/pdf.csv")


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp: ExperimentSpec(trials_per_point=2 ** 40), r"trials_per_point must be < 2\^40"),
    (lambda tmp: ExperimentSpec(workers=-1), "workers must be >= 0"),
    (lambda tmp: parse_csv(_write(tmp / "r.csv", "snr_db,W\n6.0,3\n")),
     r"unexpected CSV header in .*r\.csv"),
    (lambda tmp: load_config_file(_write(tmp / "b.cfg", "seed = 1\nseed 2\n")),
     r"b\.cfg:2: expected key=value, got 'seed 2'"),
    (lambda tmp: build_spec(None, {"frobnicate": 3}), "unknown configuration key 'frobnicate'"),
], ids=["trials-2^40", "workers-negative", "csv-header", "config-no-equals", "override-key"])
def test_harness_refusals(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


@pytest.mark.parametrize("edit", [lambda row: row.rsplit(",", 1)[0],
                                  lambda row: row + ",7"], ids=["short", "long"])
def test_parse_csv_rejects_wrong_column_count(tmp_path, edit):
    # a missing column would raise a bare IndexError, an extra one was dropped
    path = tmp_path / "r.csv"
    emit_csv([make_result(), make_result(seed=5)], path)
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, edit(second)]) + "\n")
    with pytest.raises(ValueError, match=r"r\.csv:3: expected 12 columns"):
        parse_csv(path)


# --- configuration files -------------------------------------------------------------

SAMPLE_CONFIG = """
# link geometry
C = 256
L = 5          # channel order
eta = 0.4+0.1j
snr_mode = direct-gamma

# experiment
snr_db_list = 6, 9, 13
W_list = 3 12
trials_per_point = 500
emit = ber_vs_w
"""


def test_config_file_parsing(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text(SAMPLE_CONFIG)
    spec = build_spec(load_config_file(p))
    assert spec.base.eta == 0.4 + 0.1j
    assert spec.base.L == 5
    assert spec.snr_db_list == (6.0, 9.0, 13.0)
    assert spec.W_list == (3, 12)
    assert spec.trials_per_point == 500
    assert spec.emit == "ber_vs_w"


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("frobnicate = 3\n")
    with pytest.raises(ValueError, match="frobnicate"):
        load_config_file(p)


@pytest.mark.parametrize("text, key, raw", [
    ("seed = abc\n", "seed", "abc"),
    ("W_list = 3, x\n", "W_list", "3, x"),
    ("eta = 1+\n", "eta", "1+"),
])
def test_config_value_error_names_key(tmp_path, text, key, raw):
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    with pytest.raises(ValueError) as err:
        build_spec(load_config_file(p))
    assert str(err.value).startswith(f"{key} = {raw!r}: ")


def test_config_file_rejects_repeated_key(tmp_path):
    p = tmp_path / "twice.cfg"
    p.write_text("seed = 1\n# another run\nseed = 2\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:3: key 'seed' already given on line 1"):
        load_config_file(p)


def test_build_spec_refuses_the_per_point_keys(tmp_path):
    # every sweep point replaces W and gamma_db, so a base value would do
    # nothing; only the swept W values are checked against R+1 (10 at C=20)
    for key, raw, val, names in (("W", "5", 5, "W_list"),
                                 ("gamma_db", "40", 40.0, "snr_db_list")):
        cfg = tmp_path / "swept.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        with pytest.raises(ValueError, match=names):
            build_spec(load_config_file(cfg))
        with pytest.raises(ValueError, match=names):
            build_spec(None, {key: val})
    spec = build_spec({"C": "20", "W_list": "3"})
    assert spec.base.W == 3 and [p.W for p in spec.points()] == [3, 3, 3, 3]
    with pytest.raises(ValueError, match="R\\+1 = 10, got W=12"):
        build_spec({"C": "20", "W_list": "3 12"})
    with pytest.raises(ValueError, match="3090"):
        build_spec({"snr_db_list": "3090"})


def test_overrides_beat_file_values(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text("trials_per_point = 500\nseed = 3\n")
    spec = build_spec(load_config_file(p), {"trials_per_point": 700, "seed": 9})
    assert spec.trials_per_point == 700
    assert spec.base.seed == 9


def test_effective_config_dump_round_trips(tmp_path):
    spec = build_spec(None, {"W_list": (2, 4), "snr_db_list": (11.0,)})
    dump = format_effective_config(spec)
    p = tmp_path / "dump.cfg"
    p.write_text(dump)
    spec2 = build_spec(load_config_file(p))
    assert spec2 == spec


# --- pdf curves emit -------------------------------------------------------------------

def test_run_pdf_curves_table(tmp_path):
    spec = ExperimentSpec(base=SystemConfig(seed=1), snr_db_list=(13.0,), W_list=(3,))
    table = run_pdf_curves(spec)
    assert table.shape == (800, 3)
    assert np.all(table[:, 1:] >= 0)
    path = tmp_path / "pdf.csv"
    write_pdf_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f0,f1"
    assert len(lines) == 801
    # plain float reprs, not numpy's np.float64(...), so the table reads back exactly
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), table)


def test_run_pdf_curves_from_ps_uses_ensemble_snr():
    from cpscatter import analysis

    base = SystemConfig(snr_mode="from-Ps", Ps=10.0, dof_convention="complex")
    spec = ExperimentSpec(base=base, snr_db_list=(6.0,), W_list=(12,))
    table = run_pdf_curves(spec)
    _, gamma = detection_snr(base, base.M + 1, base.K + 1)
    assert gamma == pytest.approx(44.1, rel=1e-3)  # 16.4 dB, not the listed 6 dB
    (point,) = spec.points()
    assert np.array_equal(table, analysis.pdf_curves(point, gamma, table[:, 0]))
    hi = 12 * (1 + gamma) + 8 * math.sqrt(2 * 12 * (1 + 2 * gamma))
    assert table[-1, 0] == pytest.approx(hi, rel=1e-12)


# --- CLI ----------------------------------------------------------------------------------

def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = cli.main([
        "run", "--snr-db", "9", "--w", "3", "--trials", "200",
        "--seed", "4", "--out", str(out), "--workers", "1",
    ])
    assert rc == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2
    assert "wrote 1 rows" in capsys.readouterr().out


def test_cli_print_config(tmp_path, capsys):
    rc = cli.main(["run", "--seed", "123", "--print-config"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "seed=123" in text and "C=256" in text


# `sim run --print-config` output, recorded while _CONFIG_FIELDS was a
# hand-written table; deriving it from the dataclass must not change a byte
# (the removed trials field has since dropped its line, and so have W and
# gamma_db, which each sweep point sets)
PRINT_CONFIG_DEFAULT = """N=2048
C=256
L=5
M=5
K=5
eta=(0.5+0j)
Ps=1.0
Nw=1.0
seed=1
snr_mode=direct-gamma
dof_convention=paper
threshold_mode=closed-form
gamma_knowledge=genie
snr_db_list=6.0,9.0,13.0,16.0
W_list=3,12
trials_per_point=100000
output_path=results.csv
emit=ber_vs_snr
workers=0
"""


def test_cli_print_config_is_unchanged(tmp_path, capsys):
    assert cli.main(["run", "--print-config"]) == 0
    assert capsys.readouterr().out == PRINT_CONFIG_DEFAULT
    cfg = tmp_path / "pc.cfg"
    cfg.write_text("eta = 0.4+0.1j\nNw = 2.5\nsnr_mode = from-Ps\nW_list = 2 4\n")
    assert cli.main(["run", "--config", str(cfg), "--seed", "7", "--print-config"]) == 0
    want = (PRINT_CONFIG_DEFAULT.replace("eta=(0.5+0j)", "eta=(0.4+0.1j)")
            .replace("Nw=1.0", "Nw=2.5").replace("seed=1\n", "seed=7\n")
            .replace("snr_mode=direct-gamma", "snr_mode=from-Ps")
            .replace("W_list=3,12", "W_list=2,4"))
    assert capsys.readouterr().out == want


def test_cli_import_loads_no_scipy_integrate_or_stats():
    # a fresh interpreter, as `sim` starts: each of these costs start-up time
    # (scipy.optimize, for one, about as much as the whole CLI import)
    src = str(Path(cpscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, cpscatter.cli; "
            "print(sorted(m for m in ('multiprocessing', 'scipy.integrate', 'scipy.optimize',"
            " 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_pdf_curves(tmp_path):
    out = tmp_path / "pdf.csv"
    rc = cli.main(["run", "--emit", "pdf_curves", "--snr-db", "13",
                   "--w", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("x,f0,f1\n")


def test_cli_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    rc = cli.main(["run", "--config", str(missing)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("debug", [False, True])
def test_cli_debug_flag_prints_traceback(tmp_path, capsys, debug):
    missing = tmp_path / "nope.cfg"
    argv = ["run", "--config", str(missing)] + (["--debug"] if debug else [])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "nope.cfg" in err
    assert ("Traceback (most recent call last)" in err) == debug
