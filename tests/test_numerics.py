"""Special functions, DFT, and random-stream tests against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import ive

from cpscatter.numerics import (
    RngStream,
    bessel_arg,
    complex_gaussian,
    gaussian_q,
    log_bessel_i_bounds,
    log_bessel_i_normalized,
    log_chi2_pdf,
    log_noncentral_chi2_pdf,
)
from cpscatter.detector import threshold_paper

mpmath.mp.dps = 40


# --- random streams ---------------------------------------------------------

# pinned output of the Philox stream (seed=42, stream=7); guards against any
# silent change in the generator algorithm or platform behavior
GOLDEN_SEQUENCE = [
    -0.3485299519982578,
    0.26246809786092623,
    0.14432400086552669,
    0.7727989230530549,
]


def test_golden_sequence():
    got = RngStream(42, 7).generator().standard_normal(4)
    assert got.tolist() == GOLDEN_SEQUENCE


def test_same_stream_same_samples():
    a = RngStream(5, 9).generator().standard_normal(100)
    b = RngStream(5, 9).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(5, 9).generator().standard_normal(100)
    b = RngStream(5, 10).generator().standard_normal(100)
    c = RngStream(6, 9).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_complex_gaussian_zero_variance():
    assert complex_gaussian(RngStream(1).generator(), 0.0, 1)[0] == 0j
    assert np.all(complex_gaussian(RngStream(1).generator(), 0.0, 50) == 0)


def test_complex_gaussian_rejects_negative_variance():
    with pytest.raises(ValueError):
        complex_gaussian(RngStream(1).generator(), -1.0, 1)


def test_complex_gaussian_moments():
    gen = RngStream(123).generator()
    n = 1_000_000
    v = complex_gaussian(gen, 1.0, n)
    assert abs(v.mean()) < 5e-3  # 3-sigma CLT bound
    v2 = complex_gaussian(gen, 2.0, n)
    assert np.mean(np.abs(v2) ** 2) == pytest.approx(2.0, rel=0.02)
    # circular symmetry: equal re/im power, no correlation
    assert np.mean(v2.real**2) == pytest.approx(1.0, rel=0.02)
    assert np.mean(v2.imag**2) == pytest.approx(1.0, rel=0.02)
    assert abs(np.mean(v2.real * v2.imag)) < 0.01


@pytest.mark.parametrize("variance", [1.0, 2.5])
def test_complex_gaussian_reads_interleaved_pairs(variance):
    # sample i is (normal 2i) + j (normal 2i+1), times sqrt(variance / 2),
    # bitwise: the stream layout every frame and tap draw relies on
    v = RngStream(9, 4).generator().standard_normal(2 * 257)
    want = (v[0::2] + 1j * v[1::2]) * math.sqrt(variance / 2.0)
    got = complex_gaussian(RngStream(9, 4).generator(), variance, 257)
    assert got.dtype == np.complex128
    assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)
    assert complex_gaussian(RngStream(9, 4).generator(), variance, 1)[0] == want[0]


# --- DFT (numpy's unnormalized FFT, which receiver.process applies) ----------

def _dft_matrix_oracle(v):
    # independently coded O(n^2) matrix multiply
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for p in range(n):
        acc = 0j
        for q in range(n):
            acc += v[q] * np.exp(-2j * np.pi * p * q / n)
        out[p] = acc
    return out


@pytest.mark.parametrize("n", [1, 4, 13, 246])
def test_dft_matches_matrix_oracle(n):
    gen = RngStream(77, n).generator()
    v = complex_gaussian(gen, 1.0, n)
    got = np.fft.fft(v)
    want = _dft_matrix_oracle(v)
    scale = np.max(np.abs(want)) + 1e-30
    assert np.max(np.abs(got - want)) / scale < 1e-9


def test_dft_impulse_and_ones():
    imp = np.zeros(17, dtype=complex)
    imp[0] = 1.0
    assert np.allclose(np.fft.fft(imp), np.ones(17), atol=1e-12)
    ones = np.ones(9, dtype=complex)
    want = np.zeros(9, dtype=complex)
    want[0] = 9.0
    assert np.allclose(np.fft.fft(ones), want, atol=1e-12)


def test_dft_parseval():
    v = complex_gaussian(RngStream(3).generator(), 1.0, 246)
    lhs = np.sum(np.abs(np.fft.fft(v)) ** 2)
    rhs = 246 * np.sum(np.abs(v) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


# --- Bessel ------------------------------------------------------------------

def _bessel_quadrature_oracle(r, u):
    # integral representation: (u/2)^r / (sqrt(pi) Gamma(r + 1/2))
    #                          * int_0^pi exp(u cos t) sin(t)^(2r) dt
    integral, _ = quad(
        lambda th: math.exp(u * math.cos(th)) * math.sin(th) ** (2 * r),
        0, math.pi, epsabs=1e-13, epsrel=1e-11,
    )
    return (u / 2) ** r / (math.sqrt(math.pi) * math.gamma(r + 0.5)) * integral


def _h_from(nu, u, log_i):
    """An oracle's log I_nu(u) as h = log I_nu - nu log(u/2) + lnGamma(nu+1), in mpmath."""
    nu = mpmath.mpf(nu)
    return float(mpmath.mpf(log_i) - nu * mpmath.log(mpmath.mpf(float(u)) / 2)
                 + mpmath.loggamma(nu + 1))


def _check_h_vs_i(got, nu, u, log_i, rel):
    """The I_nu(u) that got = h(nu, u) implies is within rel of the oracle's."""
    assert abs(math.expm1(got - _h_from(nu, u, log_i))) <= rel, (nu, u, got)


def _check_h_vs_log_i(got, nu, u, log_i, rel):
    """got = h(nu, u) within rel * max(1, |log I_nu(u)|) of the oracle's h.

    h keeps the absolute rounding of log I_nu, so a relative tolerance on
    log I_nu applies to h in absolute terms.
    """
    want = _h_from(nu, u, log_i)
    assert abs(got - want) <= rel * max(1.0, abs(float(log_i))), (nu, u, got, want)


def test_bessel_trivials():
    # h(0) = 0 at every order: I_0(0) = 1, and the leading power is all of I_r near 0
    for r in (0, 1, 0.5, -0.5):
        assert log_bessel_i_normalized(r, 0.0) == 0.0


def test_bessel_half_order_closed_form():
    # I_1/2(u) = sqrt(2 / (pi u)) sinh u, so h(1/2, u) = log(sinh u / u)
    assert log_bessel_i_normalized(0.5, 1.0) == pytest.approx(math.log(math.sinh(1.0)), rel=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.5, 2.0, 11.0, 31.0])
@pytest.mark.parametrize("u", [0.1, 1.0, 10.0, 100.0])
def test_bessel_series_vs_quadrature(r, u):
    log_i = mpmath.log(_bessel_quadrature_oracle(r, u))
    _check_h_vs_i(log_bessel_i_normalized(r, u), r, u, log_i, 1e-8)


def test_bessel_vs_mpmath():
    for r in (0.0, 0.5, 5.0, 31.0):
        for u in (0.01, 1.0, 7.0, 50.0, 100.0):
            log_i = mpmath.log(mpmath.besseli(r, u))
            _check_h_vs_i(log_bessel_i_normalized(r, u), r, u, log_i, 1e-9)


def test_log_bessel_large_argument():
    # I_r(u) beyond float64 range in linear domain; compare against mpmath's log
    for r, u in ((0.0, 800.0), (5.0, 2500.0), (11.0, 12000.0), (2.0, 30000.0)):
        log_i = mpmath.log(mpmath.besseli(r, u))
        _check_h_vs_log_i(log_bessel_i_normalized(r, u), r, u, log_i, 1e-10)


def test_log_bessel_where_ive_gives_nan_vs_mpmath():
    # scipy's ive is nan from u ~ 1.07e9 at every order; the large-argument
    # expansion takes over there, and meets ive's own path at the switch
    orders = (0.0, 0.5, 2.0, 11.0, 245.0)
    assert np.isnan(ive(orders, 1.1e9)).all()
    for r in orders:
        for u in (1.073e9, 1.1e9, 1e12):
            log_i = mpmath.log(mpmath.besseli(r, u))
            _check_h_vs_log_i(log_bessel_i_normalized(r, u), r, u, log_i, 1e-15)
        # both paths in one array give the scalar results
        u = np.array([1.0, 2e9, 5.0, 1e12])
        got = log_bessel_i_normalized(r, u)
        assert np.isfinite(got).all()
        assert got.tolist() == [log_bessel_i_normalized(r, float(uv)) for uv in u]


def test_log_bessel_elementwise():
    u = np.array([3.0, 0.0, 40.0, 1.0, 2.0])
    for r in (0.0, 0.5, 11.0, 245.0, -0.5):
        got = log_bessel_i_normalized(r, u)
        assert got.shape == (5,)
        for uv, g in zip(u, got):
            assert g == log_bessel_i_normalized(r, float(uv))
        assert got[1] == 0.0
    # ive(245, 1) underflows to 0; the hyp0f1 form takes over
    _check_h_vs_log_i(log_bessel_i_normalized(245.0, 1.0), 245.0, 1.0,
                      mpmath.log(mpmath.besseli(245, 1)), 1e-12)
    # I_-1/2(u) = sqrt(2 / (pi u)) cosh u
    _check_h_vs_log_i(log_bessel_i_normalized(-0.5, 2.0), -0.5, 2.0,
                      math.log(math.sqrt(2 / (math.pi * 2.0)) * math.cosh(2.0)), 1e-13)


def test_log_bessel_where_ive_underflows_vs_mpmath():
    # the hyp0f1 branch: every grid point where ive < 1e-280, plus the first
    # points past the switch, where ive's own path is back
    u = np.logspace(-12, 4, 161)
    checked = 0
    for r in (30.0, 60.0, 122.0, 245.0, 1000.0):
        under = np.flatnonzero(ive(r, u) < 1e-280)
        assert under.size and under[-1] + 3 < u.size
        keep = u[: under[-1] + 4]
        got = log_bessel_i_normalized(r, keep)
        with mpmath.workdps(50):
            for uv, g in zip(keep, got):
                log_i = mpmath.log(mpmath.besseli(r, mpmath.mpf(float(uv))))
                _check_h_vs_log_i(g, r, uv, log_i, 1e-13)
                checked += 1
    assert checked > 400
    # far beyond the detector's orders the hyp0f1 factor overflows: an error,
    # not a +inf log density
    with pytest.raises(ValueError, match="overflows"):
        log_bessel_i_normalized(2000.0, 2600.0)


# the Bessel orders nu = d/2 - 1 of the detector's densities at W 1, 2, 3,
# 12, 246 in either convention, and 11 (complex, W = 12)
BOUND_ORDERS = (-0.5, 0.0, 0.5, 1.0, 2.0, 11.0, 122.5, 245.0)


def _mp_h(nu, u):
    """h(u) = log(Gamma(nu+1) (2/u)^nu I_nu(u)) to 40 digits; log cosh u at nu = -1/2."""
    nu, u = mpmath.mpf(nu), mpmath.mpf(u)
    if nu == -0.5:
        return mpmath.log(mpmath.cosh(u))
    return mpmath.log(mpmath.gamma(nu + 1) * (2 / u) ** nu * mpmath.besseli(nu, u))


@pytest.mark.parametrize("nu", BOUND_ORDERS)
def test_log_bessel_i_bounds_bracket_mpmath(nu):
    u = np.logspace(-6, 8, 29)
    lo, hi = log_bessel_i_bounds(nu, u)
    got = log_bessel_i_normalized(nu, u)
    for uv, lv, hv, gv in zip(u, lo, hi, got):
        # where the lower bound is tight (u << nu) it may round an ulp above h
        h_mp = _mp_h(nu, uv)
        h = float(h_mp)
        assert lv <= h * (1 + 1e-14) and h <= hv, (nu, uv, lv, h, hv)
        # h itself is log I_nu less its leading power, so it carries the
        # rounding of log I_nu(u), not of its own (possibly tiny) size
        log_i = float(h_mp + nu * mpmath.log(mpmath.mpf(uv) / 2) - mpmath.loggamma(nu + 1))
        assert abs(gv - h) <= 4e-15 * max(1.0, abs(log_i)), (nu, uv, gv, h)
    # the bounds meet h at 0, and their gap grows with u towards its limit
    # 1 - a log(1 + 1/(2a)), a = nu + 1/2 (1 at a = 0, under 2/3 for a > 0)
    assert log_bessel_i_bounds(nu, 0.0) == (0.0, 0.0)
    assert log_bessel_i_normalized(nu, 0.0) == 0.0
    a = nu + 0.5
    gap = hi - lo
    assert np.all(np.diff(gap) >= -1e-15 * hi[1:])
    assert np.all(gap <= 1.0 - (a * math.log1p(0.5 / a) if a else 0.0) + 1e-15 * hi)


def test_log_bessel_i_bounds_large_argument_and_domain():
    # u^2 would overflow; the bounds stay finite and ordered
    lo, hi = log_bessel_i_bounds(2.0, np.array([1e160, 1e300]))
    assert np.all(np.isfinite(lo)) and np.all(lo <= hi)
    with pytest.raises(ValueError, match="nu >= -1/2"):
        log_bessel_i_bounds(-0.6, 1.0)


def test_bessel_arg_exact_where_finite_and_finite_where_product_overflows():
    lam = np.array([0.0, 3.0, 2.5, 1e200, 1e300, 7.0])
    x = np.array([4.0, 0.0, 1.7, 1e120, 1e300, -1.0])
    got = bessel_arg(lam, x)
    assert got[0] == got[1] == got[5] == 0.0
    assert got[2] == np.sqrt(2.5 * 1.7)  # bit for bit where the product is finite
    assert got[3] == pytest.approx(1e160, rel=1e-15)
    assert got[4] == pytest.approx(1e300, rel=1e-15)
    # the density where lam * x passes DBL_MAX: finite (it was nan), and
    # far below its value at the H1 mean when x sits at a quarter of lam
    with np.errstate(all="raise"):
        at_mean, below = log_noncentral_chi2_pdf(np.array([1e160, 2.5e159]), 4, 1e160)
    assert np.isfinite(at_mean) and below < at_mean - 1e158


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        log_bessel_i_normalized(0, -1.0)
    with pytest.raises(ValueError):
        log_bessel_i_normalized(-1.0, 1.0)


# --- Gaussian Q --------------------------------------------------------------

def test_q_trivials():
    assert gaussian_q(0.0) == 0.5
    assert gaussian_q(40.0) < 1e-300
    assert gaussian_q(40.0) >= 0.0


def test_q_quantile():
    # quadrature oracle of the normal tail
    want, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                   1.6448536, np.inf)
    assert gaussian_q(1.6448536) == pytest.approx(want, rel=1e-10)
    assert gaussian_q(1.6448536) == pytest.approx(0.05, abs=1e-7)


def test_q_symmetry_and_monotonicity():
    xs = np.linspace(-8, 8, 161)
    vals = [gaussian_q(float(x)) for x in xs]
    for x, v in zip(xs, vals):
        assert abs(v + gaussian_q(float(-x)) - 1.0) < 1e-12
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- the closed form's integral ----------------------------------------------

# the paper's closed-form threshold divides by int_0^pi e^{cos t} sin^{W-2} t dt;
# threshold_paper holds it as h((W-2)/2, 1), so these check it through there

def test_closed_form_integral_w2():
    # the integral is pi I_0(1), and L = gamma - log I_0(1)
    log_i0 = float(mpmath.log(mpmath.besseli(0, 1)))
    for g in (0.5, 4.0, 10 ** 1.6):
        assert threshold_paper(2, g) == pytest.approx((g - log_i0) ** 2 / (2 * g), rel=1e-12)


def test_closed_form_integral_w3():
    # the integral is e - 1/e = 2 sinh 1, and L = 3 gamma/2 - log sinh 1
    log_sinh1 = math.log(math.sinh(1.0))
    for g in (0.5, 4.0, 10 ** 1.6):
        assert threshold_paper(3, g) == pytest.approx((1.5 * g - log_sinh1) ** 2 / (3 * g),
                                                      rel=1e-12)


def test_closed_form_integral_vs_mpmath_quadrature():
    # threshold_paper against the paper's formula with the integral by direct
    # high-precision quadrature, over every W a default-geometry sweep can ask for
    with mpmath.workdps(30):
        for w in range(2, 247):
            integral = mpmath.quad(lambda t: mpmath.exp(mpmath.cos(t)) * mpmath.sin(t) ** (w - 2),
                                   [0, mpmath.pi / 2, mpmath.pi], method="gauss-legendre")
            for g in (0.5, 4.0, 10 ** 1.6):
                log_arg = mpmath.log(mpmath.sqrt(mpmath.pi) * mpmath.gamma(w / 2 - 0.5)
                                     / (mpmath.exp(-w * g / 2) * mpmath.gamma(w / 2) * integral))
                want = float(log_arg ** 2 / (w * g))
                assert threshold_paper(w, g) == pytest.approx(want, rel=1e-13), (w, g)


# --- chi-square densities ----------------------------------------------------

def test_chi2_pdf_two_dof_closed_form():
    for x in (0.1, 1.0, 5.0, 20.0):
        assert math.exp(log_chi2_pdf(x, 2)) == pytest.approx(0.5 * math.exp(-x / 2),
                                                             rel=1e-12, abs=0)


def test_chi2_pdf_nonpositive_x():
    assert math.exp(log_chi2_pdf(-1.0, 4)) == 0.0
    assert math.exp(log_chi2_pdf(0.0, 4)) == 0.0


def test_chi2_pdf_normalization():
    total, _ = quad(lambda x: math.exp(log_chi2_pdf(x, 6)), 0, np.inf, epsabs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_chi2_pdf_dof_errors():
    with pytest.raises(ValueError):
        log_chi2_pdf(1.0, 0)
    with pytest.raises(ValueError):
        log_noncentral_chi2_pdf(1.0, 0, 1.0)


def test_noncentral_small_lambda_limit():
    assert abs(math.exp(log_noncentral_chi2_pdf(2.0, 4, 1e-12))
               - math.exp(log_chi2_pdf(2.0, 4))) < 1e-6
    for x in np.linspace(0.5, 50, 25):
        assert abs(math.exp(log_noncentral_chi2_pdf(float(x), 5, 1e-13))
                   - math.exp(log_chi2_pdf(float(x), 5))) < 1e-6
    # lam == 0 is the central density bit for bit, at every order
    x = np.array([-1.0, 0.0, 1e-6, 0.5, 2.0, 50.0, 1e4])
    for n in (1, 2, 3, 24, 492):
        assert np.array_equal(log_noncentral_chi2_pdf(x, n, 0.0), log_chi2_pdf(x, n))
        assert log_noncentral_chi2_pdf(2.0, n, 0.0) == log_chi2_pdf(2.0, n)


def test_noncentral_nonpositive_x_and_errors():
    assert math.exp(log_noncentral_chi2_pdf(-1.0, 4, 3.0)) == 0.0
    with pytest.raises(ValueError):
        log_noncentral_chi2_pdf(1.0, 4, -0.5)


def test_noncentral_normalization():
    total, _ = quad(lambda x: math.exp(log_noncentral_chi2_pdf(x, 3, 6.0)), 0, np.inf,
                    epsabs=1e-12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_noncentral_vs_scipy():
    for x, n, lam in ((5.0, 4, 2.0), (30.0, 24, 100.0), (900.0, 24, 955.0),
                      (40.0, 3, 47.8)):
        assert math.exp(log_noncentral_chi2_pdf(x, n, lam)) == pytest.approx(
            stats.ncx2.pdf(x, n, lam), rel=1e-8
        )


def test_noncentral_large_lambda_no_overflow():
    v = math.exp(log_noncentral_chi2_pdf(5000.0, 24, 5000.0))
    assert np.isfinite(v) and v > 0
    want = float(mpmath.mpf(0.5)
                 * (mpmath.mpf(5000) / 5000) ** 5.5
                 * mpmath.exp(-5000)
                 * mpmath.besseli(11, 5000))
    assert v == pytest.approx(want, rel=1e-9)


def _mp_log_ncx2_pdf(x, n, lam):
    x, lam = mpmath.mpf(x), mpmath.mpf(lam)
    return float(mpmath.log(mpmath.mpf(0.5) * mpmath.exp(-(x + lam) / 2)
                            * (x / lam) ** (mpmath.mpf(n - 2) / 4)
                            * mpmath.besseli(mpmath.mpf(n) / 2 - 1, mpmath.sqrt(lam * x))))


def test_noncentral_where_ive_underflows():
    # complex convention at W = 246: 492 dof, Bessel order 245; at small
    # gamma*x the scaled Bessel function underflows to zero
    n = 492
    x = np.array([0.5, 2.0, 20.0, 300.0])
    lam = np.array([0.4, 1.0, 5.0, 2.0])
    got = log_noncentral_chi2_pdf(x, n, lam)
    for xv, lv, g in zip(x, lam, got):
        assert np.isfinite(g)
        assert g == pytest.approx(_mp_log_ncx2_pdf(xv, n, lv), rel=1e-12)


def test_noncentral_one_dof_vs_scipy():
    # n = 1 needs the Bessel order -1/2
    x = np.array([1e-6, 0.3, 2.0, 15.0, 80.0])
    for lam in (0.01, 0.36, 4.4, 50.0):
        got = log_noncentral_chi2_pdf(x, 1, lam)
        np.testing.assert_allclose(got, stats.ncx2.logpdf(x, 1, lam), rtol=1e-10)
        assert got[2] == pytest.approx(_mp_log_ncx2_pdf(2.0, 1, lam), rel=1e-13)


def test_log_densities_elementwise():
    x = np.array([-1.0, 0.0, 0.5, 7.0, 40.0])
    lam = np.array([3.0, 3.0, 0.0, 3.0, 200.0])
    c = log_chi2_pdf(x, 6)
    nc = log_noncentral_chi2_pdf(x, 6, lam)
    assert c.shape == nc.shape == x.shape
    assert c[0] == c[1] == nc[0] == nc[1] == -math.inf
    assert nc[2] == c[2]  # lam == 0 is the central density
    for i in (2, 3, 4):
        assert c[i] == pytest.approx(stats.chi2.logpdf(x[i], 6), rel=1e-13)
        assert nc[i] == pytest.approx(log_noncentral_chi2_pdf(float(x[i]), 6, float(lam[i])),
                                      rel=1e-13)
    assert isinstance(log_noncentral_chi2_pdf(7.0, 6, 3.0), float)
