"""Error-probability theory: approximation, chi-square-tail BER, density tables."""

import math

import mpmath
import numpy as np
import pytest

from cpscatter.analysis import ber_approx, ber_exact, pdf_curves
from cpscatter.detector import DetectorParams, threshold_exact

mpmath.mp.dps = 40


# --- Gaussian approximation -----------------------------------------------------

def test_ber_approx_zero_gamma_at_mean_threshold():
    # both Q arguments vanish: 1/2*Q(0) + 1/2*Q(0) = 0.5, first term 0.25
    assert ber_approx(8, 0.0, 8.0) == pytest.approx(0.5, abs=1e-12)


def test_ber_approx_large_gamma_limit():
    w, th = 6, 9.0
    first = 0.5 * 0.5 * math.erfc((th - w) / math.sqrt(2 * w) / math.sqrt(2))
    assert ber_approx(w, 1e9, th) == pytest.approx(first, rel=1e-9)


def test_ber_approx_reference_arithmetic():
    # independent high-precision evaluation of the same closed form
    w, gamma, th = 12, 10 ** 1.6, 60.0
    q = lambda x: 0.5 * mpmath.erfc(x / mpmath.sqrt(2))
    want = float(
        0.5 * q((th - w) / mpmath.sqrt(2 * w))
        + 0.5 * q((w * (1 + gamma) - th) / mpmath.sqrt(2 * w * (1 + 2 * gamma)))
    )
    assert ber_approx(w, gamma, th) == pytest.approx(want, rel=1e-12)


def test_ber_approx_domain():
    with pytest.raises(ValueError):
        ber_approx(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ber_approx(3, -1.0, 1.0)
    with pytest.raises(ValueError):
        ber_approx(3, 1.0, 0.0)


# --- exact BER from the chi-square tails ------------------------------------------

@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_ber_exact_threshold_limits(conv):
    p = DetectorParams(W=4, gamma=5.0, dof_convention=conv)
    p0, p1, pe = ber_exact(p, 1e-9)
    assert p0 == pytest.approx(1.0, abs=1e-6)
    assert p1 == pytest.approx(0.0, abs=1e-9)
    assert pe == pytest.approx(0.5, abs=1e-6)
    p0, p1, pe = ber_exact(p, 1e4)
    assert p0 == pytest.approx(0.0, abs=1e-9)
    assert p1 == pytest.approx(1.0, abs=1e-6)
    assert pe == pytest.approx(0.5, abs=1e-6)


def test_ber_exact_local_optimality():
    p = DetectorParams(W=3, gamma=10 ** 1.3, dof_convention="paper")
    th = threshold_exact(p)
    _, _, pe = ber_exact(p, th)
    for c in (0.8, 1.2):
        _, _, pe_c = ber_exact(p, c * th)
        assert pe <= pe_c


@pytest.mark.parametrize("w,gamma", [(3, 10 ** 1.3), (12, 10 ** 1.6)])
def test_ml_threshold_minimizes_over_wide_perturbations(w, gamma):
    p = DetectorParams(W=w, gamma=gamma, dof_convention="complex")
    th = threshold_exact(p)
    _, _, pe = ber_exact(p, th)
    for c in np.linspace(0.5, 2.0, 21):
        _, _, pe_c = ber_exact(p, float(c) * th)
        assert pe <= pe_c * (1 + 1e-9)


def test_p0_p1_monotone_in_threshold():
    p = DetectorParams(W=6, gamma=4.0, dof_convention="paper")
    ths = np.linspace(2.0, 40.0, 12)
    p0s, p1s = [], []
    for th in ths:
        p0, p1, _ = ber_exact(p, float(th))
        p0s.append(p0)
        p1s.append(p1)
    assert all(a >= b for a, b in zip(p0s, p0s[1:]))
    assert all(a <= b for a, b in zip(p1s, p1s[1:]))


def _mp_tails(d, x, nc):
    # P(chi2_d > x) and the noncentral CDF as a Poisson mixture of central
    # chi-square CDFs, at 60 digits
    with mpmath.workdps(60):
        x, h = mpmath.mpf(x), mpmath.mpf(nc) / 2
        p0 = mpmath.gammainc(mpmath.mpf(d) / 2, x / 2, mpmath.inf, regularized=True)
        p1, j = mpmath.mpf(0), 0
        while True:
            weight = mpmath.exp(-h + j * mpmath.log(h) - mpmath.loggamma(j + 1))
            term = weight * mpmath.gammainc(mpmath.mpf(d) / 2 + j, 0, x / 2, regularized=True)
            p1 += term
            if j > h and term < p1 * mpmath.mpf(10) ** -40:
                return float(p0), float(p1)
            j += 1


@pytest.mark.parametrize("conv", ["paper", "complex"])
@pytest.mark.parametrize("w", [3, 12])
@pytest.mark.parametrize("snr_db", [6, 9, 13, 16])
def test_ber_exact_vs_mpmath_at_sweep_points(conv, w, snr_db):
    gamma = 10 ** (snr_db / 10)
    p = DetectorParams(W=w, gamma=gamma, dof_convention=conv)
    th = threshold_exact(p)
    s = 1 if conv == "paper" else 2
    want0, want1 = _mp_tails(s * w, s * th, s * w * gamma)
    p0, p1, pe = ber_exact(p, th)
    assert p0 == pytest.approx(want0, rel=1e-12, abs=0)
    assert p1 == pytest.approx(want1, rel=1e-12, abs=0)
    assert pe == pytest.approx(0.5 * (want0 + want1), rel=1e-12, abs=0)


@pytest.mark.parametrize("conv, snr_db", [
    ("complex", 9.25), ("complex", 11.5), ("paper", 11.5), ("paper", 13.0),
])
def test_ber_exact_where_chndtr_underflows(conv, snr_db):
    # at W=246 chndtr returns 0 for these p1 (1e-152 .. 1e-284); the
    # Poisson-mixture fallback must still give the true miss probability
    gamma = 10 ** (snr_db / 10)
    p = DetectorParams(W=246, gamma=gamma, dof_convention=conv)
    th = threshold_exact(p)
    s = 1 if conv == "paper" else 2
    want0, want1 = _mp_tails(s * 246, s * th, s * 246 * gamma)
    p0, p1, pe = ber_exact(p, th)
    assert 0.0 < want1 < 1e-142
    # abs=0: pytest.approx's default 1e-12 absolute slack would pass p1 = 0
    assert p0 == pytest.approx(want0, rel=1e-10, abs=0)
    assert p1 == pytest.approx(want1, rel=1e-10, abs=0)
    assert pe == pytest.approx(0.5 * (want0 + want1), rel=1e-10, abs=0)


def test_ber_identity_half_sum():
    p = DetectorParams(W=5, gamma=6.0, dof_convention="complex")
    th = threshold_exact(p)
    p0, p1, pe = ber_exact(p, th)
    assert pe == pytest.approx(0.5 * (p0 + p1), rel=1e-12)


@pytest.mark.xfail(
    reason="the Gaussian tail approximation departs from the chi-square tails "
    "by factors of 25..1e11 at these operating points (measured); the gap is "
    "recorded by the acceptance report instead",
    strict=True,
)
def test_approx_within_factor_two_of_exact():
    for gamma in (10.0, 20.0, 50.0):
        p = DetectorParams(W=12, gamma=gamma, dof_convention="paper")
        th = threshold_exact(p)
        _, _, pe = ber_exact(p, th)
        ap = ber_approx(12, gamma, th)
        assert 0.5 <= ap / pe <= 2.0


# --- density tables -----------------------------------------------------------------

def test_pdf_curves_mode_and_positivity():
    p = DetectorParams(W=6, gamma=3.0, dof_convention="paper")
    grid = np.linspace(0.05, 60, 1200)
    table = pdf_curves(p, grid)
    assert table.shape == (1200, 3)
    assert np.all(table[:, 1:] >= 0)
    peak_x = table[np.argmax(table[:, 1]), 0]
    assert peak_x == pytest.approx(4.0, abs=0.1)  # chi-square mode at W-2


def test_pdf_curves_h1_mean():
    p = DetectorParams(W=4, gamma=5.0, dof_convention="paper")
    hi = 4 * (1 + 5.0) + 10 * math.sqrt(2 * 4 * 11)
    grid = np.linspace(hi / 4000, hi, 4000)
    table = pdf_curves(p, grid)
    mean = np.trapezoid(table[:, 0] * table[:, 2], table[:, 0])
    assert mean == pytest.approx(4 + 20.0, rel=0.01)


def test_pdf_curves_crossing_matches_exact_threshold():
    p = DetectorParams(W=6, gamma=8.0, dof_convention="complex")
    th = threshold_exact(p)
    grid = np.linspace(0.1, 80, 8000)
    table = pdf_curves(p, grid)
    diff = table[:, 1] - table[:, 2]
    sign_change = np.nonzero(np.diff(np.sign(diff)))[0]
    crossings = table[sign_change, 0]
    assert any(abs(c - th) < (grid[1] - grid[0]) * 2 for c in crossings)


def test_pdf_curves_rejects_bad_grid():
    p = DetectorParams(W=4, gamma=1.0)
    with pytest.raises(ValueError):
        pdf_curves(p, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        pdf_curves(p, np.array([2.0, 1.0]))

