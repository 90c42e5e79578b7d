"""Theoretical performance: error probabilities, BER approximation, PDF tables.

With equiprobable bits the bit error rate is P_e = (p0 + p1) / 2, where
p0 (false alarm) is the H0 tail above the threshold and p1 (missed
detection) the H1 mass below it. Each function takes the sweep point (its
W and dof convention), the detection SNR gamma and the threshold T_h. In
either dof convention s times the statistic is chi-square with d dof
(noncentral under H1), so ber_exact reads both from scipy.special's
chi-square tails; ber_approx is the moment-matched Gaussian approximation

    P_e ~= 1/2 Q((T_h - W)/sqrt(2W/s)) + 1/2 Q((W(1+gamma) - T_h)/sqrt(2W(1+2gamma)/s)),

with the modeled statistic's variances 2W/s (H0) and 2W(1+2gamma)/s (H1):
s = 1 for the paper convention, 2 for the complex one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtrc, chndtr, gammainc, gammaln, logsumexp

from .detector import chi2_law, pdf_h0, pdf_h1
from .numerics import gaussian_q
from .phy import SystemConfig

# log(2^-1075): a probability below it rounds to 0.0 in float64
_LOG_FLOOR = -1075.0 * math.log(2.0)
# log(2^-54): a probability closer than that to 1 rounds to 1.0 in float64
_LOG_CEIL = -54.0 * math.log(2.0)


def _check(gamma: float, threshold: float) -> None:
    if not (0 <= gamma < math.inf and threshold > 0):
        raise ValueError(f"need finite gamma >= 0 and threshold > 0, got {gamma}, {threshold}")


def ber_approx(point: SystemConfig, gamma: float, threshold: float) -> float:
    """Moment-matched Gaussian approximation of the BER."""
    _check(gamma, threshold)
    s, _, _ = chi2_law(point)
    w = point.W
    t1 = gaussian_q((threshold - w) / np.sqrt(2.0 * w / s))
    t2 = gaussian_q((w * (1.0 + gamma) - threshold) / np.sqrt(2.0 * w * (1.0 + 2.0 * gamma) / s))
    return 0.5 * t1 + 0.5 * t2


def ber_exact(point: SystemConfig, gamma: float, threshold: float):
    """(p0, p1, P_e) from the chi-square tails of the modeled densities.

    p0 = chdtrc(d, s T) and p1 = chndtr(s T, d, s W gamma), with (s, d) the
    convention's law from detector.chi2_law. Both agree with a
    60-digit Poisson-mixture sum to about 2e-14 relative at the sweep
    points. chndtr returns 0 for a p1 below about 1e-142 (W=246, complex,
    from 9.25 dB), and nan from about 165 dB. There p1 is 0.0 if its
    Chernoff bound is below the float64 floor, 1.0 if the bound on 1 - p1
    (a threshold above the H1 mean) is below 2^-54, and otherwise that
    Poisson mixture summed in the log domain (which raises ValueError past
    2^24 terms). P_e is 0.0 only where both tails fall below the floor
    (W=246, complex, 13 dB: the true p1 is 4.1e-425).
    """
    _check(gamma, threshold)
    s, d, nc = chi2_law(point, gamma)
    x = s * threshold
    p0 = float(chdtrc(d, x))
    p1 = float(chndtr(x, d, nc))
    if not p1 > 0 and nc > 0:
        log_tail = _log_chernoff_tail(x, d, nc)
        if x < d + nc and log_tail < _LOG_FLOOR:
            p1 = 0.0
        elif x > d + nc and log_tail < _LOG_CEIL:
            p1 = 1.0
        else:
            p1 = _ncx2_cdf_mixture(x, d, nc, gamma, threshold)
    return p0, p1, 0.5 * (p0 + p1)


def _log_chernoff_tail(x: float, d: int, nc: float) -> float:
    """log of the Chernoff bound on the noncentral chi-square tail beyond x.

    That is the CDF at x below the mean d + nc, and 1 - CDF above it.
    min over t of t x + log E[e^(-t X)], t > 0 below the mean and
    -1/2 < t < 0 above it; with v = 1/(1 + 2t) the minimum is at
    v = (-d + sqrt(d^2 + 4 nc x)) / (2 nc), written here without the
    cancellation. The bound needs no terms, whatever nc. Where 4 nc x
    overflows (both near 1e154 and beyond), the root is formed as a hypot
    of square roots instead.
    """
    q = 4.0 * nc * x
    root = (math.sqrt(d * d + q) if q < math.inf
            else math.hypot(d, 2.0 * math.sqrt(nc) * math.sqrt(x)))
    v = 2.0 * x / (d + root)
    t = 0.5 * (1.0 / v - 1.0)
    return t * x + 0.5 * d * math.log(v) - nc * t * v


def _ncx2_cdf_mixture(x: float, d: int, nc: float, gamma: float, threshold: float) -> float:
    """Noncentral chi-square CDF as sum_j w_j P(d/2 + j, x/2), log domain.

    w_j = e^(-nc/2) (nc/2)^j / j! are Poisson weights; the sum runs to
    nc/2 + 40 sqrt(nc/2) + 100, far past the weights' bulk. Past 2^24
    terms (128 MiB per array) it raises before allocating any.
    """
    h = 0.5 * nc
    terms = int(h + 40.0 * math.sqrt(h) + 100.0) + 1
    if terms > 1 << 24:
        raise ValueError(f"p1 at gamma={gamma!r}, threshold={threshold!r} needs {terms} terms")
    j = np.arange(terms)
    log_w = -h + j * math.log(h) - gammaln(j + 1)
    with np.errstate(divide="ignore"):  # terms whose CDF underflows drop out
        log_cdf = np.log(gammainc(0.5 * d + j, 0.5 * x))
    return float(np.exp(logsumexp(log_w + log_cdf)))


def pdf_curves(point: SystemConfig, gamma: float, x_grid) -> np.ndarray:
    """Tabulated (x, f0(x), f1(x)) rows for plotting the two densities."""
    x = np.asarray(x_grid, dtype=np.float64)
    if x.ndim != 1 or np.any(x <= 0) or np.any(np.diff(x) <= 0):
        raise ValueError("x_grid must be 1-D, positive, strictly increasing")
    return np.column_stack([x, pdf_h0(x, point), pdf_h1(x, point, gamma)])
