"""Detection SNR, hypothesis densities, thresholds, and the decision rule."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from cpscatter import detector, harness
from cpscatter.analysis import ber_approx, ber_exact, pdf_curves
from cpscatter.detector import (
    decide,
    decide_array,
    detection_snr,
    pdf_h0,
    pdf_h1,
    threshold_exact,
    threshold_for,
    threshold_paper,
)
from cpscatter.harness import collect_statistics
from cpscatter.numerics import RngStream
from cpscatter.phy import SystemConfig
from cpscatter.receiver import noise_power

mpmath.mp.dps = 40


# six taps of magnitude 1 on g and on f: tap energies equal to the tap counts
UNIT_TAPS = (6.0, 6.0)


# --- detection SNR ------------------------------------------------------------

def test_detection_snr_reference_arithmetic():
    cfg = SystemConfig(snr_mode="from-Ps")
    assert noise_power(cfg) == pytest.approx(502.0)
    ps, gamma = detection_snr(cfg, *UNIT_TAPS)
    assert ps == cfg.Ps
    assert gamma == pytest.approx(246.0 * 0.25 * 36.0 / 502.0, rel=1e-12)


def test_detection_snr_eta_zero():
    cfg = SystemConfig(eta=0.0, snr_mode="from-Ps")
    assert detection_snr(cfg, *UNIT_TAPS) == (cfg.Ps, 0.0)
    # direct-gamma cannot rescale the source to reach a target SNR through eta = 0
    with pytest.raises(ValueError, match="eta"):
        detection_snr(replace(cfg, snr_mode="direct-gamma"), *UNIT_TAPS)


def test_detection_snr_linear_in_ps():
    _, g1 = detection_snr(SystemConfig(snr_mode="from-Ps", Ps=1.0), *UNIT_TAPS)
    _, g2 = detection_snr(SystemConfig(snr_mode="from-Ps", Ps=2.0), *UNIT_TAPS)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_detection_snr_zero_noise_error():
    with pytest.raises(ValueError):
        detection_snr(SystemConfig(Nw=0.0), *UNIT_TAPS)


@pytest.mark.parametrize("taps", [
    (3.5, 7.25),
    (np.array([1.0, 3.5, 12.0, 0.25]), np.array([7.25, 0.5, 2.0, 9.0])),
], ids=["scalar", "array"])
@pytest.mark.parametrize("mode", ["direct-gamma", "genie", "ensemble"])
def test_detection_snr_modes(mode, taps):
    # direct-gamma pins gamma and rescales Ps; from-Ps keeps Ps, with the
    # drawn taps' SNR (genie, one per trial) or the mean taps' (ensemble)
    cfg = SystemConfig(snr_mode="direct-gamma" if mode == "direct-gamma" else "from-Ps",
                       gamma_knowledge="ensemble" if mode == "ensemble" else "genie",
                       gamma_db=9.0, Ps=2.0, eta=0.3 - 0.4j, Nw=1.5)
    sum_g2, sum_f2 = taps
    ps, gamma = detection_snr(cfg, sum_g2, sum_f2)
    scale = (cfg.R + 1) * abs(cfg.eta) ** 2 / noise_power(cfg)
    if mode == "direct-gamma":
        assert gamma == 10.0 ** (9.0 / 10.0)
        assert np.shape(ps) == np.shape(sum_g2)
        np.testing.assert_allclose(scale * ps * sum_g2 * sum_f2, gamma, rtol=1e-13)
    elif mode == "genie":
        assert ps == cfg.Ps
        assert np.shape(gamma) == np.shape(sum_g2)
        np.testing.assert_allclose(gamma, scale * cfg.Ps * sum_g2 * sum_f2, rtol=1e-13)
    else:
        assert ps == cfg.Ps and np.ndim(gamma) == 0
        assert gamma == pytest.approx(scale * cfg.Ps * (cfg.M + 1) * (cfg.K + 1), rel=1e-13)
        assert detection_snr(cfg, 2.0 * sum_g2, sum_f2 + 1.0) == (ps, gamma)
    with pytest.raises(ValueError, match="Nw"):
        detection_snr(replace(cfg, Nw=0.0), sum_g2, sum_f2)


# --- operating point and densities ---------------------------------------------

def test_negative_gamma_rejected():
    # every function of (point, gamma) refuses a negative or non-finite
    # detection SNR, decide_array at one gamma and at one per trial alike
    point = SystemConfig(W=3, threshold_mode="exact-root")
    closed = SystemConfig(W=3, threshold_mode="closed-form")
    for gamma in (-1.0, math.nan, math.inf):
        for call in (lambda: pdf_h1(1.0, point, gamma),
                     lambda: threshold_exact(point, gamma),
                     lambda: threshold_for(point, gamma),
                     lambda: threshold_for(closed, gamma),
                     lambda: decide_array(point, np.array([2.0, 2.0]), gamma),
                     lambda: decide_array(closed, np.array([2.0, 2.0]), gamma),
                     lambda: decide_array(point, np.array([2.0, 2.0]), np.array([1.0, gamma])),
                     lambda: decide_array(closed, np.array([2.0, 2.0]), np.array([1.0, gamma])),
                     lambda: ber_exact(point, gamma, 1.0),
                     lambda: ber_approx(point, gamma, 1.0),
                     lambda: pdf_curves(point, gamma, np.array([1.0, 2.0]))):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_pdfs_zero_gamma_coincide(conv):
    p = SystemConfig(W=5, dof_convention=conv)
    for x in np.linspace(0.2, 30, 30):
        assert pdf_h1(float(x), p, 0.0) == pytest.approx(pdf_h0(float(x), p), abs=1e-6)


@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_pdfs_vanish_left_of_origin(conv):
    p = SystemConfig(W=5, dof_convention=conv)
    for x in (-3.0, 0.0):
        assert pdf_h0(x, p) == 0.0
        assert pdf_h1(x, p, 2.0) == 0.0


@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_pdfs_normalize(conv):
    p = SystemConfig(W=4, dof_convention=conv)
    for f in (lambda x: pdf_h0(x, p), lambda x: pdf_h1(x, p, 3.0)):
        total, _ = quad(f, 0, np.inf, epsabs=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_complex_convention_matches_scipy_scaling():
    p = SystemConfig(W=6, dof_convention="complex")
    for x in (1.0, 6.0, 20.0, 45.0):
        assert pdf_h0(x, p) == pytest.approx(2 * stats.chi2.pdf(2 * x, 12), rel=1e-9, abs=0)
        assert pdf_h1(x, p, 4.0) == pytest.approx(
            2 * stats.ncx2.pdf(2 * x, 12, 48.0), rel=1e-8, abs=0
        )


@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [1, 2, 3, 12, 246])
def test_log_ratio_is_the_log_density_difference(conv, w):
    # D = lam/2 - h(u) is log f0 - log f1 with the central terms cancelled,
    # around the threshold, wherever both densities are representable
    p = SystemConfig(W=w, dof_convention=conv, threshold_mode="exact-root")
    checked = 0
    for gamma in (1e-3, 1.0, 1e3):
        x = threshold_exact(p, gamma) * np.array([0.5, 0.9, 1.0, 1.1, 2.0])
        f0, f1 = pdf_h0(x, p), pdf_h1(x, p, gamma)
        got = detector._log_ratio(x, p, gamma)
        for xv, a, b, dv in zip(x, f0, f1, got):
            if min(a, b) >= 1e-300:
                a, b = math.log(a), math.log(b)
                assert abs(dv - (a - b)) <= 1e-14 * (1 + abs(a) + abs(b)), (gamma, xv, dv, a - b)
                checked += 1
    assert checked >= 10


# --- closed-form threshold -------------------------------------------------------

def test_threshold_paper_reference_value():
    # W=2, gamma=1: (ln(e / I_0(1)))^2 / 2, via high-precision Bessel
    want = float((mpmath.log(mpmath.e / mpmath.besseli(0, 1))) ** 2 / 2)
    assert threshold_paper(2, 1.0) == pytest.approx(want, rel=1e-9)
    assert threshold_paper(2, 1.0) == pytest.approx(0.2919, abs=5e-4)


# closed-form thresholds at gamma = 0.5, 4, 10^0.9, 10^1.3, 10^1.6, recorded
# while the closed form's integral was an adaptive quadrature
THRESHOLD_PAPER_RECORDED = {
    2: [0.069741226042675, 1.7710425895615538, 3.7392301265991335,
        9.741791909760044, 19.670143171706027],
    3: [0.23093575007181452, 2.8407325273841804, 5.7971160973399245,
        14.80346340990232, 29.69681665147702],
    12: [1.4587441316186596, 11.958492443204284, 23.78832163555587,
         59.81633314495547, 119.3906112664098],
    64: [7.99219033138914, 63.992188662854055, 127.08470610040902,
         319.2341588672983, 636.963661334037],
    246: [30.74796752991819, 245.9979675005305, 488.5098318538796,
          1227.084291203035, 2448.3570664007625],
}


@pytest.mark.parametrize("w", sorted(THRESHOLD_PAPER_RECORDED))
def test_threshold_paper_matches_recorded_values(w):
    gammas = (0.5, 4.0, 10 ** 0.9, 10 ** 1.3, 10 ** 1.6)
    got = [threshold_paper(w, g) for g in gammas]
    assert got == pytest.approx(THRESHOLD_PAPER_RECORDED[w], rel=1e-12)


def test_threshold_paper_domain():
    with pytest.raises(ValueError):
        threshold_paper(1, 1.0)
    with pytest.raises(ValueError):
        threshold_paper(4, 0.0)


def test_threshold_paper_grows_toward_zero_gamma():
    # divergence like const^2/(W*gamma) once the constant log term dominates
    vals = [threshold_paper(4, g) for g in (1e-5, 1e-4, 1e-3, 1e-2)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_threshold_paper_depends_only_on_w_gamma():
    assert threshold_paper(3, 2.5) == threshold_paper(3, 2.5)


# --- exact threshold --------------------------------------------------------------

@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w,gamma", [(2, 1.0), (3, 19.953), (4, 0.01),
                                     (12, 39.81), (12, 0.5)])
def test_threshold_exact_root_contract(conv, w, gamma):
    p = SystemConfig(W=w, dof_convention=conv)
    th = threshold_exact(p, gamma)
    assert th > 0
    f0, f1 = pdf_h0(th, p), pdf_h1(th, p, gamma)
    assert abs(f0 - f1) < 1e-9 * f0


def test_threshold_exact_sanity_bracket():
    th = threshold_exact(SystemConfig(W=4), 0.01)
    assert th > 2.0  # above half the H0 mean


def test_threshold_exact_gamma_domain():
    with pytest.raises(ValueError):
        threshold_exact(SystemConfig(W=4), 0.0)


def test_threshold_exact_vs_paper_reported():
    # the closed form bakes in an integral approximation; report the gap,
    # require both finite and positive
    print()
    for w in (3, 12):
        for snr_db in (13.0, 16.0):
            gamma = 10 ** (snr_db / 10)
            exact = threshold_exact(SystemConfig(W=w), gamma)
            closed = threshold_paper(w, gamma)
            assert math.isfinite(exact) and exact > 0
            assert math.isfinite(closed) and closed > 0
            print(f"  W={w:2d} snr={snr_db:4.1f}dB threshold exact={exact:10.4f} "
                  f"closed-form={closed:10.4f} ratio={closed / exact:6.3f}")


@pytest.mark.parametrize("w", [2, 3, 12])
def test_thresholds_finite_over_gamma_range(w):
    for gamma in (0.1, 0.5, 2.0, 10.0, 40.0, 100.0):
        te = threshold_exact(SystemConfig(W=w), gamma)
        tp = threshold_paper(w, gamma)
        assert math.isfinite(te) and te > 0
        assert math.isfinite(tp) and tp > 0


@pytest.mark.parametrize("w", [1, 3, 12, 246])
def test_exact_root_threshold_finite_at_high_snr(w, capfd):
    # u = sqrt(lam s x) passes 1.07e9 here, where scipy's ive is nan; the
    # threshold must still be the crossing D = log f0 - log f1 changes sign
    # at, and nothing (hyp0f1's ignored exceptions) may reach stderr
    p = SystemConfig(W=w, dof_convention="complex", threshold_mode="exact-root")
    for db in range(80, 151, 10):
        gamma = 10 ** (db / 10)
        th = threshold_for(p, gamma)
        assert math.isfinite(th) and th > 0, (w, db)
        assert detector._log_ratio(th * (1 - 1e-12), p, gamma) > 0, (w, db)
        assert detector._log_ratio(th * (1 + 1e-12), p, gamma) < 0, (w, db)
    assert capfd.readouterr().err == ""


def test_threshold_for_modes():
    cfg_cf = SystemConfig(threshold_mode="closed-form", W=3)
    cfg_ex = SystemConfig(threshold_mode="exact-root", dof_convention="complex", W=3)
    assert threshold_for(cfg_cf, 2.0) == pytest.approx(threshold_paper(3, 2.0))
    assert threshold_for(cfg_ex, 2.0) == pytest.approx(
        threshold_exact(cfg_ex, 2.0)
    )
    assert threshold_for(SystemConfig(W=7), 0.0) == 7.0  # degenerate SNR fallback


def _mp_root(W, gamma, conv, dps=50):
    # the true density crossing to dps digits: the same log-density
    # difference in mpmath, bracketed by halving and doubling from the H1
    # mean, then a bracketing root finder
    with mpmath.workdps(dps):
        s = 1 if conv == "paper" else 2
        d, lam = s * W, s * W * mpmath.mpf(gamma)
        nu = mpmath.mpf(d) / 2 - 1

        def diff(x):  # log f0 - log f1 at s*x; the Jacobian s cancels
            y = s * x
            log_f0 = (-y / 2 + nu * mpmath.log(y) - d * mpmath.log(2) / 2
                      - mpmath.loggamma(mpmath.mpf(d) / 2))
            log_f1 = (-mpmath.log(2) + nu / 2 * mpmath.log(y / lam) - (y + lam) / 2
                      + mpmath.log(mpmath.besseli(nu, mpmath.sqrt(lam * y))))
            return log_f0 - log_f1

        lo = hi = W * (1 + mpmath.mpf(gamma))
        while diff(lo) <= 0:
            lo /= 2
        while diff(hi) >= 0:
            hi *= 2
        return float(mpmath.findroot(diff, (lo, hi), solver="anderson"))


@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [1, 2, 3, 12, 246])
def test_threshold_array_solve_matches_scalar(conv, w):
    # threshold_for over a gamma grid: W at gamma == 0, else the exact root
    gammas = [1e-3, 0.36, 4.4, 17.5, 1e3]
    cfg = SystemConfig(threshold_mode="exact-root", dof_convention=conv, W=w)
    assert threshold_for(cfg, 0.0) == float(w)
    for g in gammas:
        th = threshold_for(cfg, g)
        assert th == pytest.approx(threshold_exact(cfg, g), abs=1e-10, rel=1e-15)
        assert th == pytest.approx(_mp_root(w, g, conv), abs=1e-10, rel=1e-15)


@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [1, 2, 3, 12, 246])
def test_threshold_exact_in_closed_form_bracket_from_tiny_to_huge_snr(conv, w, capfd):
    # the root lies in [W, W (1 + e/(2b))], e = lam (a+b)/(2b), a = nu + 1/2,
    # b = nu + 3/2, at every SNR; below about -80 dB D's rounding leaves it
    # anywhere within O(W gamma) of W, so it is held to that there. At
    # subnormal gamma (-3200 dB, and -3233 dB, which is 5e-324) the bracket
    # is [W, W], and no solve may warn (pytest records warnings, so capfd
    # alone would not see them)
    p = SystemConfig(W=w, dof_convention=conv, threshold_mode="exact-root")
    s, d = detector.dof_scaling(p)
    a, b = 0.5 * d - 0.5, 0.5 * d + 0.5
    for db in (-3233, -3200, -300, -200, -80, -20, 0, 20, 40, 60, 80, 100, 150, 300):
        gamma = 10.0 ** (db / 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            th = threshold_exact(p, gamma)
        e = s * w * gamma * (a + b) / (2 * b)
        assert math.isfinite(th) and w <= th <= w * (1 + e / (2 * b)), (db, th)
        if db < -3000:
            # the bracket check has pinned th to W, and the root is W + O(W
            # gamma); 80 digits cannot resolve a D of about 1e-320
            continue
        ref = _mp_root(w, gamma, conv, dps=80)
        assert abs(th - ref) <= max(1e-10 * max(1.0, th), w * gamma), (db, th, ref)
        if db >= 0:
            assert detector._log_ratio(th * (1 - 1e-12), p, gamma) > 0, db
            assert detector._log_ratio(th * (1 + 1e-12), p, gamma) < 0, db
    # lam (a+b) overflows at W=246 here; e, lam times a ratio <= 1, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th = threshold_exact(p, 1e303)
    assert math.isfinite(th) and detector._log_ratio(th * (1 + 1e-12), p, 1e303) < 0
    assert capfd.readouterr().err == ""


def _kernel_gammas(point):
    # the per-trial genie gammas of one 1024-trial chunk
    _, _, gammas = harness._chunk_statistics(point, 0, 0, 1024)
    assert gammas.shape == (1024,)
    return gammas


@pytest.mark.parametrize("w,conv,gammas", [
    (3, "complex", None), (12, "complex", None), (3, "paper", None), (12, "paper", None),
    # order -1/2, a 245th-order Bessel ratio, and gammas far from the sweep
    (1, "paper", (1e-3, 1e3)), (1, "complex", (1e-3, 1e3)),
    (246, "complex", (1e-3, 1e3)), (246, "paper", (1e-3, 1e3)),
], ids=lambda v: "kernel" if v is None else "extremes" if isinstance(v, tuple) else str(v))
def test_threshold_solve_density_passes(monkeypatch, w, conv, gammas):
    # one _log_ratio call per evaluation of D, for each gamma
    point = SystemConfig(W=w, snr_mode="from-Ps", dof_convention=conv,
                         threshold_mode="exact-root", gamma_knowledge="genie", seed=401)
    gammas = _kernel_gammas(point) if gammas is None else gammas
    calls = []
    real = detector._log_ratio
    monkeypatch.setattr(detector, "_log_ratio", lambda *args: calls.append(1) or real(*args))
    passes = []
    for g in gammas:
        calls.clear()
        threshold_exact(point, float(g))
        passes.append(len(calls))
    assert max(passes) <= 12


@pytest.mark.parametrize("mode", ["exact-root", "closed-form"])
@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [1, 3, 12, 246])
def test_kernel_decisions_match_per_trial_thresholds(monkeypatch, w, conv, mode):
    # a from-Ps genie chunk decides each trial by decide_array, never by a
    # threshold solve; every decision is the statistic against its own
    # per-trial threshold
    point = SystemConfig(W=w, snr_mode="from-Ps", dof_convention=conv,
                         threshold_mode=mode, gamma_knowledge="genie", seed=417)
    seen = []

    def spy(cfg, stats, g):
        seen.append((stats, g, decide_array(cfg, stats, g)))
        return seen[-1][2]

    def no_solve(*args):
        raise AssertionError("the per-trial path solved a threshold")

    with monkeypatch.context() as m:
        m.setattr(harness, "decide_array", spy)
        m.setattr(detector, "threshold_for", no_solve)
        m.setattr(detector, "threshold_exact", no_solve)
        if w == 1 and mode == "closed-form":  # the closed form needs W >= 2
            with pytest.raises(ValueError):
                harness._run_chunk(point, 0, 0, 1024)
        else:
            errors = harness._run_chunk(point, 0, 0, 1024)
    if w == 1 and mode == "closed-form":
        with pytest.raises(ValueError):
            threshold_for(point, 1.0)
        return
    ((stats, gammas, got),) = seen
    assert gammas.shape == stats.shape == (1024,) and np.all(gammas > 0)
    want = stats >= np.array([threshold_for(point, float(g)) for g in gammas])
    assert np.array_equal(got, want)
    assert 0 < np.sum(got) < 1024
    bits, _ = collect_statistics(point, 1024)
    assert errors == int(np.sum(want != bits))


@pytest.mark.parametrize("mode", ["exact-root", "closed-form"])
def test_decide_array_at_zero_gamma_and_on_bad_gamma(mode):
    point = SystemConfig(W=5, dof_convention="complex", threshold_mode=mode)
    stats = np.array([0.5, 4.999, 5.0, 7.0, 3.0, 30.0])
    gammas = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 2.0])
    got = decide_array(point, stats, gammas)
    assert got.tolist()[:4] == [False, False, True, True]  # stat >= W where gamma == 0
    assert np.array_equal(got, stats >= [threshold_for(point, float(g)) for g in gammas])
    for bad in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
        with pytest.raises(ValueError, match="gamma"):
            decide_array(point, stats, np.where(gammas > 0, bad, gammas))
    # one gamma for the whole batch: the point's threshold
    assert np.array_equal(decide_array(point, stats, 0.0), stats >= 5.0)
    got = decide_array(point, stats, 2.0)
    assert np.array_equal(got, stats >= threshold_for(point, 2.0))
    assert 0 < np.sum(got) < stats.size
    for bad in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
        with pytest.raises(ValueError, match="gamma"):
            decide_array(point, stats, bad)


# per-trial SNRs from a from-Ps chunk's range (about 0.37 up) and beyond
EXACT_GRID_GAMMAS = (1e-3, 0.37, 1.0, 4.4, 30.0, 1e3, 1e5)


@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [1, 2, 3, 12, 64, 246])
def test_decide_array_per_trial_is_the_sign_of_the_log_ratio(monkeypatch, conv, w):
    # the bounds settle most trials; those right at the threshold, within
    # 1e-12 of it, are left to _log_ratio, and every decision is its sign
    point = SystemConfig(W=w, dof_convention=conv, threshold_mode="exact-root")
    factors = np.array([1e-3, 0.1, 0.5, 0.9, 0.99, 1 - 1e-12, 1 + 1e-12, 1.01, 1.1, 2.0, 1e3])
    stats, gammas = [], []
    for g in EXACT_GRID_GAMMAS:
        stats.append(threshold_for(point, g) * factors)
        gammas.append(np.full(factors.size, g))
    stats, gammas = np.concatenate(stats), np.concatenate(gammas)
    opened = []

    def counted(x, cfg, gamma):
        opened.append(np.size(x))
        return real(x, cfg, gamma)

    real = detector._log_ratio
    monkeypatch.setattr(detector, "_log_ratio", counted)
    got = decide_array(point, stats, gammas)
    monkeypatch.undo()
    assert np.array_equal(got, real(stats, point, gammas) <= 0)
    # the solved root sits between the two neighbours (from gamma 0.37: at
    # 1e-3 the root itself is off by more, see threshold_for)
    sides = got.reshape(len(EXACT_GRID_GAMMAS), factors.size)[1:, 5:7]
    assert not sides[:, 0].any() and sides[:, 1].all()
    (n_open,) = opened
    assert 2 * len(EXACT_GRID_GAMMAS) <= n_open < stats.size / 2


def test_log_ratio_evaluated_on_few_trials_of_the_benchmark_sweep(monkeypatch):
    # the from-Ps exact-root sweep the benchmark times (complex, genie, W 3
    # and 12, 2048 trials a point): the bounds leave under 10% to _log_ratio
    counts = []
    real = detector._log_ratio

    def counted(x, cfg, gamma):
        if np.ndim(x):  # the threshold solve's scalar calls are not trials
            counts.append(np.size(x))
        return real(x, cfg, gamma)

    monkeypatch.setattr(detector, "_log_ratio", counted)
    base = SystemConfig(snr_mode="from-Ps", dof_convention="complex",
                        threshold_mode="exact-root", gamma_knowledge="genie", seed=1)
    spec = harness.ExperimentSpec(base=base, W_list=(3, 12), trials_per_point=2048, workers=1)
    results = harness.run_experiment(spec)
    trials = sum(r.trials for r in results)
    assert trials == 4096 and len(counts) == 4  # one call per 1024-trial chunk
    assert 0 < sum(counts) < 0.1 * trials


def test_threshold_for_array_closed_form_matches_scalar():
    # decide_array compares per-trial statistics with threshold_paper on a
    # gamma array: elementwise, it is the scalar closed form threshold_for uses
    cfg = SystemConfig(threshold_mode="closed-form", W=12)
    gammas = np.array([1e-3, 0.36, 4.4, 17.5, 1e3])
    got = threshold_paper(12, gammas)
    assert got.shape == gammas.shape
    assert np.array_equal(got, [threshold_for(cfg, float(g)) for g in gammas])
    assert got == pytest.approx([threshold_paper(12, float(g)) for g in gammas], rel=1e-15)
    assert threshold_for(cfg, 0.0) == 12.0
    with pytest.raises(ValueError):
        threshold_paper(12, np.array([1.0, -1.0]))


def test_caches_stay_bounded_over_distinct_gammas():
    from cpscatter import detector, numerics

    caches = [obj for mod in (detector, numerics) for obj in vars(mod).values()
              if hasattr(obj, "cache_info")]
    assert caches and all(c.cache_info().maxsize is not None for c in caches)
    gammas = np.linspace(0.01, 50.0, 10_000)
    cf = SystemConfig(threshold_mode="closed-form", W=3)
    ex = SystemConfig(threshold_mode="exact-root", dof_convention="complex", W=3)
    for g in gammas:
        threshold_for(cf, float(g))
    # scalar exact solves cost milliseconds: overflow the LRU a few times over
    for g in gammas[:: len(gammas) // 400]:
        threshold_for(ex, float(g))
    for c in caches:
        info = c.cache_info()
        assert info.currsize <= info.maxsize


def test_threshold_exact_paper_convention_w1():
    # 1 dof puts the noncentral density's Bessel order at -1/2
    for gamma in (0.36, 4.4, 17.5):
        p = SystemConfig(W=1, dof_convention="paper")
        th = threshold_exact(p, gamma)
        assert th == pytest.approx(_mp_root(1, gamma, "paper"), abs=1e-10)
        assert abs(pdf_h0(th, p) - pdf_h1(th, p, gamma)) < 1e-9 * pdf_h0(th, p)
        assert pdf_h1(th, p, gamma) == pytest.approx(stats.ncx2.pdf(th, 1, gamma), rel=1e-10, abs=0)


# --- decision rule -----------------------------------------------------------------

def test_decide_basic():
    th = 2.5
    assert decide(0.0, th) == 0
    assert decide(2 * th, th) == 1
    assert decide(th, th) == 1  # tie -> 1


def test_decide_scale_invariance():
    for c in (0.5, 1.0, 3.0, 100.0):
        for g in (0.3, 1.0, 2.7):
            assert decide(c * g, c * 1.0) == decide(g, 1.0)


def test_decide_flips_once():
    th = 4.0
    decisions = [decide(g, th) for g in np.linspace(0, 10, 101)]
    flips = sum(a != b for a, b in zip(decisions, decisions[1:]))
    assert flips == 1
    assert decisions[0] == 0 and decisions[-1] == 1


def test_decide_threshold_domain():
    with pytest.raises(ValueError):
        decide(1.0, 0.0)


# --- distribution fit --------------------------------------------------------------

def test_h0_statistic_fits_complex_convention():
    # 2*Gamma under H0 against chi-square with 2W dof (smaller sibling of the
    # acceptance-suite check)
    cfg = SystemConfig(W=3, gamma_db=10.0, seed=901)
    _, g = collect_statistics(cfg, 4000, force_bit=0)
    ks_complex = stats.kstest(2 * g, stats.chi2(6).cdf)
    assert ks_complex.pvalue > 0.01
    # the W-dof convention does not fit the same samples; record the statistic
    ks_paper = stats.kstest(g, stats.chi2(3).cdf)
    print(f"\n  KS complex D={ks_complex.statistic:.4f} (p={ks_complex.pvalue:.3f}) "
          f"vs paper-dof D={ks_paper.statistic:.4f}")
    assert ks_paper.statistic > ks_complex.statistic
