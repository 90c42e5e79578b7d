"""Theoretical performance: error probabilities, BER approximation, PDF tables.

With equiprobable bits the bit error rate is P_e = (p0 + p1) / 2, where
p0 (false alarm) is the H0 tail above the threshold and p1 (missed
detection) the H1 mass below it. In either dof convention s times the
statistic is chi-square with d dof (noncentral under H1), so ber_exact
reads both from scipy.special's chi-square tails; ber_approx is the
moment-matched Gaussian approximation

    P_e ~= 1/2 Q((T_h - W)/sqrt(2W)) + 1/2 Q((W(1+gamma) - T_h)/sqrt(2W(1+2gamma))).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtrc, chndtr, gammainc, gammaln, logsumexp

from .detector import DetectorParams, dof_scaling, pdf_h0, pdf_h1
from .numerics import gaussian_q


def ber_approx(W: int, gamma: float, threshold: float) -> float:
    """Moment-matched Gaussian approximation of the BER."""
    if W < 1 or gamma < 0 or not threshold > 0:
        raise ValueError("need W >= 1, gamma >= 0, threshold > 0")
    t1 = gaussian_q((threshold - W) / np.sqrt(2.0 * W))
    t2 = gaussian_q((W * (1.0 + gamma) - threshold) / np.sqrt(2.0 * W * (1.0 + 2.0 * gamma)))
    return 0.5 * t1 + 0.5 * t2


def ber_exact(params: DetectorParams, threshold: float):
    """(p0, p1, P_e) from the chi-square tails of the modeled densities.

    p0 = chdtrc(d, s T) and p1 = chndtr(s T, d, s W gamma), with (s, d) the
    convention's scaling from detector.dof_scaling. Both agree with a
    60-digit Poisson-mixture sum to about 2e-14 relative at the sweep
    points. chndtr returns 0 for a p1 below about 1e-142 (W=246, complex,
    from 9.25 dB); there p1 is that Poisson mixture summed in the log
    domain instead. P_e is 0.0 only where both tails fall below the
    float64 floor (W=246, complex, 13 dB: the true p1 is 4.1e-425).
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    s, d = dof_scaling(params.W, params.dof_convention)
    x, nc = s * threshold, s * params.lam
    p0 = float(chdtrc(d, x))
    p1 = float(chndtr(x, d, nc))
    if p1 == 0.0 and nc > 0:
        p1 = _ncx2_cdf_mixture(x, d, nc)
    return p0, p1, 0.5 * (p0 + p1)


def _ncx2_cdf_mixture(x: float, d: int, nc: float) -> float:
    """Noncentral chi-square CDF as sum_j w_j P(d/2 + j, x/2), log domain.

    w_j = e^(-nc/2) (nc/2)^j / j! are Poisson weights; the sum runs to
    nc/2 + 40 sqrt(nc/2) + 100, far past the weights' bulk.
    """
    h = 0.5 * nc
    j = np.arange(int(h + 40.0 * math.sqrt(h) + 100.0) + 1)
    log_w = -h + j * math.log(h) - gammaln(j + 1)
    with np.errstate(divide="ignore"):  # terms whose CDF underflows drop out
        log_cdf = np.log(gammainc(0.5 * d + j, 0.5 * x))
    return float(np.exp(logsumexp(log_w + log_cdf)))


def pdf_curves(params: DetectorParams, x_grid) -> np.ndarray:
    """Tabulated (x, f0(x), f1(x)) rows for plotting the two densities."""
    x = np.asarray(x_grid, dtype=np.float64)
    if x.ndim != 1 or np.any(x <= 0) or np.any(np.diff(x) <= 0):
        raise ValueError("x_grid must be 1-D, positive, strictly increasing")
    return np.column_stack([x, pdf_h0(x, params), pdf_h1(x, params)])
