"""Error-probability theory: approximation, chi-square-tail BER, density tables."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import cpscatter
from cpscatter.analysis import ber_approx, ber_exact, pdf_curves
from cpscatter.detector import threshold_exact
from cpscatter.phy import SystemConfig

mpmath.mp.dps = 40


# --- Gaussian approximation -----------------------------------------------------

def paper(w):
    return SystemConfig(W=w, dof_convention="paper")


def test_ber_approx_zero_gamma_at_mean_threshold():
    # both Q arguments vanish: 1/2*Q(0) + 1/2*Q(0) = 0.5, first term 0.25
    assert ber_approx(paper(8), 0.0, 8.0) == pytest.approx(0.5, abs=1e-12)


def test_ber_approx_large_gamma_limit():
    w, th = 6, 9.0
    first = 0.5 * 0.5 * math.erfc((th - w) / math.sqrt(2 * w) / math.sqrt(2))
    assert ber_approx(paper(w), 1e9, th) == pytest.approx(first, rel=1e-9, abs=0)


def test_ber_approx_reference_arithmetic():
    # independent high-precision evaluation of the same closed form
    w, gamma, th = 12, 10 ** 1.6, 60.0
    q = lambda x: 0.5 * mpmath.erfc(x / mpmath.sqrt(2))
    want = float(
        0.5 * q((th - w) / mpmath.sqrt(2 * w))
        + 0.5 * q((w * (1 + gamma) - th) / mpmath.sqrt(2 * w * (1 + 2 * gamma)))
    )
    assert ber_approx(paper(w), gamma, th) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("w,gamma,th", [(3, 10 ** 0.6, 6.9), (12, 10 ** 1.6, 144.6)],
                         ids=["W3-6dB", "W12-16dB"])
def test_ber_approx_complex_convention_variances(w, gamma, th):
    # the complex convention's modeled statistic has variances W (H0) and
    # W(1+2 gamma) (H1), half the paper convention's
    q = lambda x: 0.5 * mpmath.erfc(x / mpmath.sqrt(2))
    want = float(
        0.5 * q((th - w) / mpmath.sqrt(w))
        + 0.5 * q((w * (1 + gamma) - th) / mpmath.sqrt(w * (1 + 2 * gamma)))
    )
    got = ber_approx(SystemConfig(W=w, dof_convention="complex"), gamma, th)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_ber_approx_domain():
    with pytest.raises(ValueError):
        ber_approx(paper(3), -1.0, 1.0)
    with pytest.raises(ValueError):
        ber_approx(paper(3), 1.0, 0.0)


# --- exact BER from the chi-square tails ------------------------------------------

@pytest.mark.parametrize("conv", ["paper", "complex"])
def test_ber_exact_threshold_limits(conv):
    p, gamma = SystemConfig(W=4, dof_convention=conv), 5.0
    p0, p1, pe = ber_exact(p, gamma, 1e-9)
    assert p0 == pytest.approx(1.0, abs=1e-6)
    assert p1 == pytest.approx(0.0, abs=1e-9)
    assert pe == pytest.approx(0.5, abs=1e-6)
    p0, p1, pe = ber_exact(p, gamma, 1e4)
    assert p0 == pytest.approx(0.0, abs=1e-9)
    assert p1 == pytest.approx(1.0, abs=1e-6)
    assert pe == pytest.approx(0.5, abs=1e-6)


def test_ber_exact_local_optimality():
    p, gamma = paper(3), 10 ** 1.3
    th = threshold_exact(p, gamma)
    _, _, pe = ber_exact(p, gamma, th)
    for c in (0.8, 1.2):
        _, _, pe_c = ber_exact(p, gamma, c * th)
        assert pe <= pe_c


@pytest.mark.parametrize("w,gamma", [(3, 10 ** 1.3), (12, 10 ** 1.6)])
def test_ml_threshold_minimizes_over_wide_perturbations(w, gamma):
    p = SystemConfig(W=w, dof_convention="complex")
    th = threshold_exact(p, gamma)
    _, _, pe = ber_exact(p, gamma, th)
    for c in np.linspace(0.5, 2.0, 21):
        _, _, pe_c = ber_exact(p, gamma, float(c) * th)
        assert pe <= pe_c * (1 + 1e-9)


def test_p0_p1_monotone_in_threshold():
    ths = np.linspace(2.0, 40.0, 12)
    p0s, p1s = [], []
    for th in ths:
        p0, p1, _ = ber_exact(paper(6), 4.0, float(th))
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
    p = SystemConfig(W=w, dof_convention=conv)
    th = threshold_exact(p, gamma)
    s = 1 if conv == "paper" else 2
    want0, want1 = _mp_tails(s * w, s * th, s * w * gamma)
    p0, p1, pe = ber_exact(p, gamma, th)
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
    p = SystemConfig(W=246, dof_convention=conv)
    th = threshold_exact(p, gamma)
    s = 1 if conv == "paper" else 2
    want0, want1 = _mp_tails(s * 246, s * th, s * 246 * gamma)
    p0, p1, pe = ber_exact(p, gamma, th)
    assert 0.0 < want1 < 1e-142
    # abs=0: pytest.approx's default 1e-12 absolute slack would pass p1 = 0
    assert p0 == pytest.approx(want0, rel=1e-10, abs=0)
    assert p1 == pytest.approx(want1, rel=1e-10, abs=0)
    assert pe == pytest.approx(0.5 * (want0 + want1), rel=1e-10, abs=0)


def test_ber_exact_bounded_at_high_snr():
    # where chndtr gives no positive p1 (0, or nan from ~165 dB) a Chernoff
    # bound below the float64 floor settles p1 = 0.0 before any Poisson
    # mixture is built; the grid runs in a child that caps its own address
    # space, so a mixture that grows with gamma fails the child, not the host
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cpscatter.analysis import ber_exact
from cpscatter.detector import threshold_paper
from cpscatter.phy import SystemConfig
for w in (3, 12, 246):
    for conv in ("paper", "complex"):
        for db in (45, 60, 100, 150, 300):
            gamma = 10 ** (db / 10)
            got = ber_exact(SystemConfig(W=w, dof_convention=conv), gamma,
                            threshold_paper(w, gamma))
            assert all(0.0 <= v <= 1.0 for v in got), (w, conv, db, got)
"""
    src = str(Path(cpscatter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_ber_exact_threshold_above_h1_mean_at_huge_snr():
    # chndtr gives nan at these noncentralities; with the threshold above the
    # H1 mean the Chernoff bound on 1 - p1 settles p1 = 1.0 instead of a
    # Poisson mixture of ~1e22 terms (in a child capped at 2 GiB, as above)
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cpscatter.analysis import ber_exact
from cpscatter.phy import SystemConfig
assert ber_exact(SystemConfig(W=3), 1e20, 1e22) == (0.0, 1.0, 0.5)
for w in (3, 12, 246):
    for conv in ("paper", "complex"):
        for gamma in (1e17, 1e20, 1e30):
            got = ber_exact(SystemConfig(W=w, dof_convention=conv), gamma, 4 * w * gamma)
            assert got == (0.0, 1.0, 0.5), (w, conv, gamma, got)
"""
    src = str(Path(cpscatter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_ber_exact_refuses_a_mixture_it_cannot_hold():
    # a threshold one sigma above the H1 mean at gamma = 1e15: chndtr is nan,
    # the Chernoff bounds settle nothing there, and the Poisson mixture would
    # need ~1.5e15 terms (PiB); it must raise, naming gamma and the threshold,
    # before allocating (in a child capped at 2 GiB, as above)
    code = """
import math, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cpscatter.analysis import ber_exact
from cpscatter.phy import SystemConfig
gamma, w = 1e15, 3
nc = w * gamma  # paper convention: s = 1, d = W
threshold = w + nc + math.sqrt(2.0 * (w + 2.0 * nc))
try:
    ber_exact(SystemConfig(W=w), gamma, threshold)
except ValueError as exc:
    assert f"gamma={gamma!r}, threshold={threshold!r}" in str(exc), exc
else:
    raise AssertionError("no ValueError")
"""
    src = str(Path(cpscatter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_ber_identity_half_sum():
    p = SystemConfig(W=5, dof_convention="complex")
    th = threshold_exact(p, 6.0)
    p0, p1, pe = ber_exact(p, 6.0, th)
    assert pe == pytest.approx(0.5 * (p0 + p1), rel=1e-12, abs=0)


@pytest.mark.xfail(
    reason="the Gaussian tail approximation departs from the chi-square tails "
    "by factors of 25..1e11 at these operating points (measured); the gap is "
    "recorded by the acceptance report instead",
    strict=True,
)
def test_approx_within_factor_two_of_exact():
    for gamma in (10.0, 20.0, 50.0):
        th = threshold_exact(paper(12), gamma)
        _, _, pe = ber_exact(paper(12), gamma, th)
        ap = ber_approx(paper(12), gamma, th)
        assert 0.5 <= ap / pe <= 2.0


# --- density tables -----------------------------------------------------------------

def test_pdf_curves_mode_and_positivity():
    grid = np.linspace(0.05, 60, 1200)
    table = pdf_curves(paper(6), 3.0, grid)
    assert table.shape == (1200, 3)
    assert np.all(table[:, 1:] >= 0)
    peak_x = table[np.argmax(table[:, 1]), 0]
    assert peak_x == pytest.approx(4.0, abs=0.1)  # chi-square mode at W-2


def test_pdf_curves_h1_mean():
    hi = 4 * (1 + 5.0) + 10 * math.sqrt(2 * 4 * 11)
    grid = np.linspace(hi / 4000, hi, 4000)
    table = pdf_curves(paper(4), 5.0, grid)
    mean = np.trapezoid(table[:, 0] * table[:, 2], table[:, 0])
    assert mean == pytest.approx(4 + 20.0, rel=0.01)


def test_pdf_curves_crossing_matches_exact_threshold():
    p = SystemConfig(W=6, dof_convention="complex")
    th = threshold_exact(p, 8.0)
    grid = np.linspace(0.1, 80, 8000)
    table = pdf_curves(p, 8.0, grid)
    diff = table[:, 1] - table[:, 2]
    sign_change = np.nonzero(np.diff(np.sign(diff)))[0]
    crossings = table[sign_change, 0]
    assert any(abs(c - th) < (grid[1] - grid[0]) * 2 for c in crossings)


def test_pdf_curves_rejects_bad_grid():
    with pytest.raises(ValueError):
        pdf_curves(paper(4), 1.0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        pdf_curves(paper(4), 1.0, np.array([2.0, 1.0]))

