"""Detection SNR, hypothesis densities, thresholds, and the decision rule."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from cpscatter.detector import (
    DetectorParams,
    decide,
    detection_snr,
    log_pdf_h0,
    log_pdf_h1,
    pdf_h0,
    pdf_h1,
    threshold_exact,
    threshold_for,
    threshold_paper,
)
from cpscatter.harness import collect_statistics
from cpscatter.numerics import RngStream
from cpscatter.phy import ChannelSet, SystemConfig
from cpscatter.receiver import DetectionStatistic, noise_power

mpmath.mp.dps = 40


def unit_channelset(l=5, m=5, k=5):
    # taps of magnitude 1 so the energy sums are exactly the tap counts
    return ChannelSet(
        h=np.ones(l + 1, dtype=complex),
        g=np.ones(m + 1, dtype=complex),
        f=np.ones(k + 1, dtype=complex),
    )


# --- detection SNR ------------------------------------------------------------

def test_detection_snr_reference_arithmetic():
    cfg = SystemConfig()
    assert noise_power(cfg) == pytest.approx(502.0)
    gamma = detection_snr(unit_channelset(), cfg)
    assert gamma == pytest.approx(246.0 * 0.25 * 36.0 / 502.0, rel=1e-12)


def test_detection_snr_eta_zero():
    cfg = SystemConfig(eta=0.0, snr_mode="from-Ps")
    assert detection_snr(unit_channelset(), cfg) == 0.0


def test_detection_snr_linear_in_ps():
    ch = unit_channelset()
    g1 = detection_snr(ch, SystemConfig(Ps=1.0))
    g2 = detection_snr(ch, SystemConfig(Ps=2.0))
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_detection_snr_zero_noise_error():
    with pytest.raises(ValueError):
        detection_snr(unit_channelset(), SystemConfig(Nw=0.0))


# --- params and densities -------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(W=0, gamma=1.0)
    with pytest.raises(ValueError):
        DetectorParams(W=3, gamma=-1.0)
    with pytest.raises(ValueError):
        DetectorParams(W=3, gamma=1.0, dof_convention="bogus")
    assert DetectorParams(W=4, gamma=2.5).lam == pytest.approx(10.0)


@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_pdfs_zero_gamma_coincide(conv):
    p = DetectorParams(W=5, gamma=0.0, dof_convention=conv)
    for x in np.linspace(0.2, 30, 30):
        assert pdf_h1(float(x), p) == pytest.approx(pdf_h0(float(x), p), abs=1e-6)


@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_pdfs_vanish_left_of_origin(conv):
    p = DetectorParams(W=5, gamma=2.0, dof_convention=conv)
    for x in (-3.0, 0.0):
        assert pdf_h0(x, p) == 0.0
        assert pdf_h1(x, p) == 0.0


@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_pdfs_normalize(conv):
    p = DetectorParams(W=4, gamma=3.0, dof_convention=conv)
    for f in (pdf_h0, pdf_h1):
        total, _ = quad(lambda x: f(x, p), 0, np.inf, epsabs=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_complex_convention_matches_scipy_scaling():
    p = DetectorParams(W=6, gamma=4.0, dof_convention="complex")
    for x in (1.0, 6.0, 20.0, 45.0):
        assert pdf_h0(x, p) == pytest.approx(2 * stats.chi2.pdf(2 * x, 12), rel=1e-9, abs=0)
        assert pdf_h1(x, p) == pytest.approx(
            2 * stats.ncx2.pdf(2 * x, 12, 48.0), rel=1e-8, abs=0
        )


# --- closed-form threshold -------------------------------------------------------

def test_threshold_paper_reference_value():
    # W=2, gamma=1: (ln(e / I_0(1)))^2 / 2, via high-precision Bessel
    want = float((mpmath.log(mpmath.e / mpmath.besseli(0, 1))) ** 2 / 2)
    assert threshold_paper(2, 1.0) == pytest.approx(want, rel=1e-9)
    assert threshold_paper(2, 1.0) == pytest.approx(0.2919, abs=5e-4)


# closed-form thresholds at gamma = 0.5, 4, 10^0.9, 10^1.3, 10^1.6, recorded
# while sin_power_integral was an adaptive quadrature
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
    p = DetectorParams(W=w, gamma=gamma, dof_convention=conv)
    th = threshold_exact(p)
    assert th > 0
    f0, f1 = pdf_h0(th, p), pdf_h1(th, p)
    assert abs(f0 - f1) < 1e-9 * f0


def test_threshold_exact_sanity_bracket():
    th = threshold_exact(DetectorParams(W=4, gamma=0.01))
    assert th > 2.0  # above half the H0 mean


def test_threshold_exact_gamma_domain():
    with pytest.raises(ValueError):
        threshold_exact(DetectorParams(W=4, gamma=0.0))


def test_threshold_exact_vs_paper_reported():
    # the closed form bakes in an integral approximation; report the gap,
    # require both finite and positive
    print()
    for w in (3, 12):
        for snr_db in (13.0, 16.0):
            gamma = 10 ** (snr_db / 10)
            exact = threshold_exact(DetectorParams(W=w, gamma=gamma))
            closed = threshold_paper(w, gamma)
            assert math.isfinite(exact) and exact > 0
            assert math.isfinite(closed) and closed > 0
            print(f"  W={w:2d} snr={snr_db:4.1f}dB threshold exact={exact:10.4f} "
                  f"closed-form={closed:10.4f} ratio={closed / exact:6.3f}")


@pytest.mark.parametrize("w", [2, 3, 12])
def test_thresholds_finite_over_gamma_range(w):
    for gamma in (0.1, 0.5, 2.0, 10.0, 40.0, 100.0):
        te = threshold_exact(DetectorParams(W=w, gamma=gamma))
        tp = threshold_paper(w, gamma)
        assert math.isfinite(te) and te > 0
        assert math.isfinite(tp) and tp > 0


def test_threshold_for_modes():
    cfg_cf = SystemConfig(threshold_mode="closed-form", W=3)
    cfg_ex = SystemConfig(threshold_mode="exact-root", dof_convention="complex", W=3)
    assert threshold_for(cfg_cf, 2.0) == pytest.approx(threshold_paper(3, 2.0))
    assert threshold_for(cfg_ex, 2.0) == pytest.approx(
        threshold_exact(DetectorParams(W=3, gamma=2.0, dof_convention="complex"))
    )
    assert threshold_for(SystemConfig(W=7), 0.0) == 7.0  # degenerate SNR fallback


def _reference_bisection(W, gamma, conv, xtol=1e-10):
    # the per-threshold scalar loop the array solve replaced: same bracket,
    # caps and stopping rule, one scalar density difference per step
    p = DetectorParams(W=W, gamma=gamma, dof_convention=conv)

    def diff(x):
        return log_pdf_h0(x, p) - log_pdf_h1(x, p)

    lo = max(W - (2.0 if conv == "paper" else 1.0), 0.0, 1e-8)
    hi = W * (1.0 + gamma)
    for _ in range(200):
        if diff(lo) > 0:
            break
        lo *= 0.5
    for _ in range(200):
        if diff(hi) < 0:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid <= lo or mid >= hi:
            break
        if diff(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [1, 2, 3, 12, 246])
def test_threshold_array_solve_matches_scalar(conv, w):
    gammas = np.array([0.0, 1e-3, 0.36, 4.4, 17.5, 1e3])
    cfg = SystemConfig(threshold_mode="exact-root", dof_convention=conv, W=w)
    got = threshold_for(cfg, gammas)
    assert got.shape == gammas.shape
    assert got[0] == float(w)  # gamma == 0 maps to W elementwise
    for g, th in zip(gammas[1:], got[1:]):
        scalar = threshold_exact(DetectorParams(W=w, gamma=float(g), dof_convention=conv))
        assert th == pytest.approx(scalar, abs=1e-10, rel=1e-15)
        assert th == pytest.approx(_reference_bisection(w, float(g), conv),
                                   abs=1e-10, rel=1e-15)


def test_threshold_for_array_closed_form_matches_scalar():
    cfg = SystemConfig(threshold_mode="closed-form", W=12)
    gammas = np.array([0.0, 1e-3, 0.36, 4.4, 17.5, 1e3])
    got = threshold_for(cfg, gammas)
    assert got[0] == 12.0
    assert got[1:] == pytest.approx([threshold_paper(12, float(g)) for g in gammas[1:]],
                                    rel=1e-15)
    with pytest.raises(ValueError):
        threshold_for(cfg, np.array([1.0, -1.0]))


def test_caches_stay_bounded_over_distinct_gammas():
    from cpscatter import detector, numerics

    caches = [obj for mod in (detector, numerics) for obj in vars(mod).values()
              if hasattr(obj, "cache_info")]
    assert caches and all(c.cache_info().maxsize is not None for c in caches)
    gammas = np.linspace(0.01, 50.0, 10_000)
    cf = SystemConfig(threshold_mode="closed-form", W=3)
    ex = SystemConfig(threshold_mode="exact-root", dof_convention="complex", W=3)
    threshold_for(ex, gammas)
    threshold_for(cf, gammas)
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
        p = DetectorParams(W=1, gamma=gamma, dof_convention="paper")
        th = threshold_exact(p)
        assert th == pytest.approx(_reference_bisection(1, gamma, "paper"), abs=1e-10)
        assert abs(pdf_h0(th, p) - pdf_h1(th, p)) < 1e-9 * pdf_h0(th, p)
        assert pdf_h1(th, p) == pytest.approx(stats.ncx2.pdf(th, 1, gamma), rel=1e-10, abs=0)


# --- decision rule -----------------------------------------------------------------

def test_decide_basic():
    th = 2.5
    assert decide(DetectionStatistic(gamma_t=0.0), th) == 0
    assert decide(DetectionStatistic(gamma_t=2 * th), th) == 1
    assert decide(DetectionStatistic(gamma_t=th), th) == 1  # tie -> 1
    assert decide(5.0, th) == 1  # bare float accepted


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
