"""Chi-square hypothesis test: densities, detection SNR, ML threshold, decision.

Under H0 (bit 0) the statistic is a normalized sum of W squared noise bins;
under H1 (bit 1) the backscatter adds a noncentral component with
noncentrality lambda = W * gamma, where gamma is the detection SNR

    gamma = |eta|^2 * Px * Pf / Pw
          = (R+1) |eta|^2 Ps (sum_m |g_m|^2)(sum_k |f_k|^2) / (2 (T+1) Nw).

detection_snr is the one rule that turns a point's tap energies into
(source power, gamma), for the batch kernel and run_trial alike.

Two degree-of-freedom conventions are supported. "paper" models the
statistic directly as chi-square with W dof (and noncentral chi-square with
lambda = W*gamma under H1). "complex" uses the statistically exact scaling
for complex samples: 2*Gamma_t is chi-square with 2W dof (noncentrality
2*W*gamma), i.e. density(x) = 2 * f(2x) with doubled parameters.
chi2_law holds that law, (scale, dof, noncentrality), once: for the
densities, both thresholds and the decisions here, and the chi-square tails
of analysis.ber_exact.

Every density and threshold reads W, the dof convention and the threshold
mode from the sweep point's SystemConfig, and takes gamma as an argument.
The ML threshold is where the two densities cross: the root of the one
log-likelihood ratio _log_ratio, D = log f0 - log f1 = lam/2 - h(u) (the
central terms cancel; h is numerics.log_bessel_i_normalized).
threshold_exact solves D = 0 by a safeguarded Newton iteration, in a
bracket and with a slope that numerics.log_bessel_i_bounds gives in closed
form. threshold_paper is the closed form obtained by pulling the Bessel
kernel's exponentials apart (which is what makes it solvable, at the cost
of an approximation): D under the paper law at u = 1. Where the densities
do not cross (gamma = 0, or a closed-form equation with no root) both give
the H0 mean W. threshold_for picks the mode for one gamma, the one
threshold a sweep point, kernel chunk or frame decides against, and caches
it in a small bounded LRU keyed on (config, gamma).

D falls strictly in x, so a statistic reaches the exact-root threshold
exactly where D at the statistic is <= 0. decide is the one decision call,
for run_trial's frame and the batch kernel's chunk alike: at one gamma it
compares with threshold_for, and for a batch of trials each at its own gamma
(from-Ps genie) it takes the sign of D with no threshold solve; the bounds
on h settle it for nearly every trial, and h itself (scipy's ive) runs only
on the few they leave open.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .numerics import (
    bessel_arg,
    log_bessel_i_bounds,
    log_bessel_i_normalized,
    log_chi2_pdf,
    log_noncentral_chi2_pdf,
)
from .phy import SystemConfig
from .receiver import noise_power

# the exact-root iteration stops once its step is within _XTOL (threshold_exact
# says why 1e-11), or within 4 ulps of x where larger (thresholds above ~1e5)
_XTOL = 1e-11
# thresholds are asked for once per sweep point and kernel chunk, or once
# per frame by run_trial; a small LRU serves the repeats without growing
# per trial
_THRESHOLD_CACHE_SIZE = 128


def detection_gamma(config: SystemConfig, ps, sum_g2, sum_f2):
    """gamma = (R+1) |eta|^2 Ps sum|g|^2 sum|f|^2 / P_w, the one SNR formula.

    ps, sum_g2 and sum_f2 may be scalars or per-trial arrays. The ensemble
    SNR passes the mean tap energies M+1 and K+1; the direct-gamma source
    rescale is the target SNR over this formula at ps = 1.
    """
    return (
        (config.R + 1) * abs(config.eta) ** 2 * ps * sum_g2 * sum_f2
        / noise_power(config)
    )


def detection_snr(config: SystemConfig, sum_g2=None, sum_f2=None):
    """(source power, detection SNR) of a point for the drawn tap energies.

    sum_g2 and sum_f2 are scalars or per-trial arrays; None (the default)
    means the mean tap energies M+1 and K+1, the point's own operating point.
    direct-gamma rescales the source power so that gamma = 10^(gamma_db/10).
    from-Ps keeps Ps, with the SNR of the drawn taps (genie; an array in the
    kernel) or of the mean tap energies (ensemble; one scalar).
    """
    # with no noise the statistic is 0/0 and the BER would be noise, not a
    # measurement; SystemConfig itself allows Nw=0 for noiseless frames
    if config.Nw == 0:
        raise ValueError("the detection SNR needs noise power Nw > 0")
    # the mean taps: by default (set before the direct-gamma branch, as its
    # source rescale reads them too), and always for the from-Ps ensemble SNR
    if sum_g2 is None or config.gamma_knowledge == "ensemble":
        sum_g2, sum_f2 = config.M + 1, config.K + 1
    if config.snr_mode == "direct-gamma":
        if config.eta == 0:
            raise ValueError("direct-gamma mode needs eta != 0")
        gamma = 10.0 ** (config.gamma_db / 10.0)
        return gamma / detection_gamma(config, 1.0, sum_g2, sum_f2), gamma
    return config.Ps, detection_gamma(config, config.Ps, sum_g2, sum_f2)


def chi2_law(config: SystemConfig, gamma=0.0):
    """(s, d, lam): s times the statistic is chi-square with d dof.

    Under H1 its noncentrality is lam = s W gamma (elementwise); gamma = 0 gives H0.
    """
    s, d = (1.0, config.W) if config.dof_convention == "paper" else (2.0, 2 * config.W)
    return s, d, s * (config.W * gamma)


def pdf_h0(x, config: SystemConfig):
    """Density of the statistic under H0 (bit 0), elementwise; zero for x <= 0."""
    s, d, _ = chi2_law(config)
    out = np.exp(math.log(s) + log_chi2_pdf(s * x, d))
    return float(out) if np.ndim(out) == 0 else out


def pdf_h1(x, config: SystemConfig, gamma):
    """Density of the statistic under H1 (bit 1), elementwise; zero for x <= 0."""
    s, d, lam = chi2_law(config, gamma)
    out = np.exp(math.log(s) + log_noncentral_chi2_pdf(s * x, d, lam))
    return float(out) if np.ndim(out) == 0 else out


def threshold_paper(W: int, gamma):
    """Closed-form detection threshold (separable-kernel approximation).

    The paper's T_h = L^2 / (W gamma), L = ln(sqrt(pi) Gamma(W/2 - 1/2) /
    (e^{-W gamma/2} Gamma(W/2) int_0^pi e^{cos t} sin^{W-2} t dt)). By the
    Poisson integral of I_nu (DLMF 10.32.2), nu = (W-2)/2, the integral is
    sqrt(pi) Gamma(W/2 - 1/2) / Gamma(W/2) e^{h(nu, 1)}, so L = W gamma/2 -
    h(nu, 1): _log_ratio under the paper law (s = 1, lam = W gamma) at
    u = 1, and nothing overflows. gamma, validated as in threshold_for, may
    be a scalar or an array (elementwise).

    The paper's sqrt(W gamma T_h) = L has no root where L <= 0, at and below
    gamma* = 2 h(nu, 1)/W (-9.7 dB at W=3, -21.6 dB at W=12); there the
    threshold is the H0 mean W, as threshold_exact's at gamma = 0, where the
    square would grow as 1/gamma (8.7e17 at W=3, gamma=1e-20). Where L^2
    overflows (from 1520 dB at W=246) T_h is L (L / (W gamma)), about W gamma/4.
    """
    if W < 2:
        raise ValueError(f"closed form requires W >= 2, got {W}")
    gamma = _gammas(gamma)
    lam = W * gamma
    L = _log_ratio(0.5 * W - 1.0, lam, 1.0)
    root = L > 0  # so lam > 2 h(nu, 1) > 0
    L, lam, out = L[root], lam[root], np.full(gamma.shape, float(W))
    with np.errstate(over="ignore"):
        square = L * L
    out[root] = np.where(np.isinf(square), L * (L / lam), square / lam)
    return float(out) if out.ndim == 0 else out


def _log_ratio(nu, lam, u):
    """D = lam/2 - h(u) = log f0 - log f1, elementwise: > 0 where H0 is likelier.

    The one log-likelihood ratio, at nu = d/2 - 1 and u = bessel_arg(lam, s x)
    for chi2_law's (s, d, lam) at the statistic x. threshold_exact solves it,
    _exact_decisions signs it and threshold_paper evaluates it at u = 1.
    """
    return 0.5 * lam - log_bessel_i_normalized(nu, u)


def _gammas(gamma) -> np.ndarray:
    """gamma as a float64 array; non-finite or negative values raise ValueError."""
    gamma = np.asarray(gamma, dtype=np.float64)
    bad = ~((gamma >= 0) & (gamma < math.inf))
    if np.any(bad):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma[bad][0]}")
    return gamma


def threshold_exact(config: SystemConfig, gamma: float) -> float:
    """ML threshold: the true H0/H1 density crossing for one gamma >= 0.

    D = _log_ratio = lam/2 - h(u) falls strictly in x. With a = nu + 1/2,
    b = nu + 3/2 and e = lam (a+b)/(2b), its root lies in [W, W (1 + e/(2b))]:
      * h(u) = log 0F1(; nu+1; u^2/4) <= u^2/(2d), as 0F1(; c; z) <= e^{z/c},
        so below the H0 mean W, D(x) >= (lam/2)(1 - x/W) > 0;
      * h is at least numerics.log_bessel_i_bounds' lower bound, itself at
        least (sqrt(u^2 + b^2) - b) b/(a+b), which reaches lam/2 at the
        upper end (in this form e survives tiny gamma, where (b + e) - b
        would round it away).
    A safeguarded Newton iteration starts at the midpoint; each evaluation
    moves one bracket end to x by the sign of D, and a step that leaves the
    open bracket is replaced by its midpoint. The slope -u h'(u)/(2x) takes
    the lower bound's ratio u / (a + hypot(u, b)) for h'(u) = I_{nu+1}/I_nu:
    exact as u -> 0 and u -> inf, finite everywhere, and off by up to about
    7% near nu = -1/2, where convergence is then linear. So the iteration
    stops once its step is within _XTOL = 1e-11 (at 1e-10 the paper-convention
    root at W=1, gamma=1 was 6.3e-12 relative off) or a few ulps of x, or D
    is exactly 0; at gamma = 0 the bracket is [W, W], the H0 mean W.
    """
    W = config.W
    s, d, lam = chi2_law(config, float(_gammas(gamma)))
    nu = 0.5 * d - 1.0
    a, b = nu + 0.5, nu + 1.5
    e = lam * ((a + b) / (2.0 * b))  # a ratio <= 1: finite wherever lam is
    lo, hi = float(W), W * (1.0 + e / (2.0 * b))
    if not hi > lo:  # rounded to [W, W]: a Newton step would divide by ~0
        return lo
    x = 0.5 * (lo + hi)
    for _ in range(200):
        u = bessel_arg(lam, s * x)
        dv = _log_ratio(nu, lam, u)
        if dv > 0:
            lo = x
        elif dv < 0:
            hi = x
        step = 0.0 if dv == 0 else dv / (-0.5 * u / x * (u / (a + np.hypot(u, b))))
        new = x - step
        tol = max(_XTOL, 4.0 * np.spacing(x))
        # a converged step may round onto the bracket end x itself
        if not (abs(step) <= tol or lo < new < hi):
            new = 0.5 * (lo + hi)
        converged = not abs(new - x) > tol
        x = new
        if converged:
            break
    return float(x)


@lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def threshold_for(config: SystemConfig, gamma: float) -> float:
    """Threshold at config.W for one SNR per the configured mode.

    Served from a small LRU keyed on (config, gamma). Both modes give the H0
    mean W where the densities have no crossing: at gamma == 0, where the
    two hypotheses coincide and any threshold yields chance-level decisions,
    and (closed-form) at and below threshold_paper's gamma*. Accuracy floor:
    at tiny gamma D = lam/2 - h(u) cancels to the rounding of log I_nu, so
    the exact root is only known to lie in threshold_exact's bracket, within
    O(W gamma) of W: it is off by 1.2e-6 (either convention) at W=246,
    gamma=1e-8, and by 5.3e-13 at W=3 complex, gamma=1e-12 (80-digit
    reference); below gamma ~ 1e-16 the bracket rounds to W, the result.
    decide's sign of D is as uncertain there (the sign _log_ratio computes,
    whether the bounds or D settle it); sweeps stay far above (CI's
    fromps-closed sweep, seed 1, 1500 trials per W, draws gamma >= 0.32).
    """
    gamma = float(_gammas(gamma))
    if config.threshold_mode == "closed-form":
        return float(threshold_paper(config.W, gamma))
    return threshold_exact(config, gamma)


def decide(config: SystemConfig, stats, gamma):
    """Decisions (True for bit 1) of statistics at one SNR or one each; ties give 1.

    The one decision rule: run_trial decides its frame's statistic, and the
    batch kernel a chunk's array. A scalar gamma decides stats >=
    threshold_for(config, gamma). An array gamma, of the shape of stats,
    decides each statistic against its own gamma's threshold without
    solving it: closed-form compares with threshold_paper, and exact-root
    decides 1 where D(stat) <= 0, as D falls strictly through its root (its
    slope -u I_{nu+1}(u) / (2 x I_nu(u)) is negative for x > 0), and stat >= W
    where gamma == 0 (D is 0 there). The exact-root signs come from
    closed-form bounds on D where those settle them, and from D itself
    elsewhere (_exact_decisions); the decisions are D's signs either way.
    Either way gamma is validated as in threshold_for.
    """
    if np.ndim(gamma) == 0:
        return stats >= threshold_for(config, gamma)
    gamma = _gammas(gamma)
    if config.threshold_mode == "closed-form":
        return stats >= threshold_paper(config.W, gamma)
    out = stats >= config.W
    pos = gamma > 0
    if np.any(pos):
        out[pos] = _exact_decisions(config, stats[pos], gamma[pos])
    return out


def _exact_decisions(config: SystemConfig, stats, gamma) -> np.ndarray:
    """D <= 0 at the statistics, elementwise, mostly without evaluating D.

    numerics.log_bessel_i_bounds brackets h in D = lam/2 - h(u) (_log_ratio's
    notation, with x = s stats) at every order nu >= -1/2. A trial is
    decided 1 where the upper bound on D is <= -margin and 0 where the lower
    bound is > margin; only the rest evaluate D. The margin, 1e-9 times the
    size of D's terms (x, lam and u), is far above the rounding of D and of
    the bounds, so each decision is the sign of D as _log_ratio computes it.
    """
    s, d, lam = chi2_law(config, gamma)
    nu = 0.5 * d - 1.0
    x = s * stats
    u = bessel_arg(lam, x)
    h_lo, h_hi = log_bessel_i_bounds(nu, u)
    half = 0.5 * lam
    margin = 1e-9 * (1.0 + x + lam + u)
    # written so that a nan or infinite term settles nothing
    out = half - h_lo + margin <= 0
    open_ = ~(out | (half - h_hi - margin > 0))
    if open_.any():
        out[open_] = _log_ratio(nu, lam[open_], u[open_]) <= 0
    return out

