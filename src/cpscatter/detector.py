"""Chi-square hypothesis test: densities, detection SNR, ML threshold, decision.

Under H0 (bit 0) the statistic is a normalized sum of W squared noise bins;
under H1 (bit 1) the backscatter adds a noncentral component with
noncentrality lambda = W * gamma, where gamma is the detection SNR

    gamma = |eta|^2 * Px * Pf / Pw
          = (R+1) |eta|^2 Ps (sum_m |g_m|^2)(sum_k |f_k|^2) / (2 (T+1) Nw).

Two degree-of-freedom conventions are supported. "paper" models the
statistic directly as chi-square with W dof (and noncentral chi-square with
lambda = W*gamma under H1). "complex" uses the statistically exact scaling
for complex samples: 2*Gamma_t is chi-square with 2W dof (noncentrality
2*W*gamma), i.e. density(x) = 2 * f(2x) with doubled parameters.
dof_scaling holds that (scale, dof) pair once, for the densities here and
the chi-square tails of analysis.ber_exact.

Every density and threshold reads W, the dof convention and the threshold
mode from the sweep point's SystemConfig, and takes gamma as an argument.
The ML threshold is where the two densities cross. threshold_paper
evaluates the closed form obtained by pulling the Bessel kernel's
exponentials apart (which is what makes it solvable, at the cost of an
approximation); threshold_exact finds the true crossing by a safeguarded
Newton iteration on the log-density difference D = log f0 - log f1, whose
slope is a closed-form Bessel ratio. threshold_for picks the mode for one
gamma, the one threshold a sweep point, kernel chunk or frame decides
against, and caches it in a small bounded LRU keyed on (config, gamma).

D falls strictly in x, so a statistic reaches the exact-root threshold
exactly where D at the statistic is <= 0. decide_array is the kernel's one
decision call: at one gamma it compares with threshold_for, and for a batch
of trials each at its own gamma (from-Ps genie) it takes the sign of D with
one elementwise density pass (log I_r via scipy's ive) and no threshold
solve.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ive

from .numerics import (
    log_chi2_pdf,
    log_gamma,
    log_noncentral_chi2_pdf,
    sin_power_integral,
)
from .phy import ChannelSet, SystemConfig
from .receiver import noise_power

# the exact-root iteration stops once its step is within _XTOL, or within
# 4 ulps of x where those are larger (thresholds above about 1e5)
_XTOL = 1e-10
# thresholds are asked for once per sweep point and kernel chunk, or once
# per frame by run_trial; a small LRU serves the repeats without growing
# per trial
_THRESHOLD_CACHE_SIZE = 128


class ThresholdBracketError(RuntimeError):
    """No density crossing could be bracketed (degenerate SNR)."""


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


def detection_snr(channels: ChannelSet, config: SystemConfig) -> float:
    """Detection SNR gamma of one channel draw at the configured Ps."""
    if config.Nw == 0:
        raise ValueError("detection SNR undefined for zero noise power")
    return detection_gamma(config, config.Ps, channels.sum_g2, channels.sum_f2)


def dof_scaling(config: SystemConfig) -> tuple[float, int]:
    """(s, d): s times the statistic is chi-square with d dof.

    The H1 noncentrality of s times the statistic is s * W * gamma.
    """
    if config.dof_convention == "paper":
        return 1.0, config.W
    return 2.0, 2 * config.W


def log_pdf_h0(x, config: SystemConfig):
    s, d = dof_scaling(config)
    return math.log(s) + log_chi2_pdf(s * x, d)


def log_pdf_h1(x, config: SystemConfig, gamma):
    s, d = dof_scaling(config)
    return math.log(s) + log_noncentral_chi2_pdf(s * x, d, s * (config.W * gamma))


def pdf_h0(x, config: SystemConfig):
    """Density of the statistic under H0 (bit 0), elementwise; zero for x <= 0."""
    out = np.exp(log_pdf_h0(x, config))
    return float(out) if np.ndim(out) == 0 else out


def pdf_h1(x, config: SystemConfig, gamma):
    """Density of the statistic under H1 (bit 1), elementwise; zero for x <= 0."""
    out = np.exp(log_pdf_h1(x, config, gamma))
    return float(out) if np.ndim(out) == 0 else out


def threshold_paper(W: int, gamma):
    """Closed-form detection threshold (separable-kernel approximation).

    T_h = (ln( sqrt(pi) Gamma(W/2 - 1/2)
               / (e^{-W gamma/2} Gamma(W/2) integral) ))^2 / (W gamma)

    with integral = sin_power_integral(W). gamma may be a scalar or an
    array (elementwise). The log argument is assembled in the log domain so
    large W*gamma cannot overflow.
    """
    if W < 2:
        raise ValueError(f"closed form requires W >= 2, got {W}")
    if np.ndim(gamma):
        gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma <= 0):
        raise ValueError(f"closed form requires gamma > 0, got {np.min(gamma)}")
    log_arg = (
        0.5 * math.log(math.pi)
        + log_gamma(W / 2.0 - 0.5)
        + W * gamma / 2.0
        - log_gamma(W / 2.0)
        - math.log(sin_power_integral(W))
    )
    # a product, not ** 2: numpy squares arrays by multiplying, while a float
    # ** 2 goes through libm's pow, so a scalar gamma could differ by an ulp
    return log_arg * log_arg / (W * gamma)


def _log_ratio(x, config: SystemConfig, gamma):
    """D(x) = log f0(x) - log f1(x; gamma), elementwise: > 0 where H0 is likelier.

    The one function whose root is the exact-root threshold and whose sign
    decides a trial against it.
    """
    return log_pdf_h0(x, config) - log_pdf_h1(x, config, gamma)


def _gammas(gamma) -> np.ndarray:
    """gamma as a float64 array; non-finite or negative values raise ValueError."""
    gamma = np.asarray(gamma, dtype=np.float64)
    bad = ~((gamma >= 0) & (gamma < math.inf))
    if np.any(bad):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma[bad][0]}")
    return gamma


def _solve_crossing(config: SystemConfig, gamma: float) -> float:
    """Density crossing at config for one gamma > 0, by safeguarded Newton.

    D(x) = _log_ratio(x) falls strictly through the crossing, with the
    closed-form slope

        D'(x) = -(s/2) sqrt(lam / (s x)) I_{nu+1}(u) / I_nu(u)
              = -u I_{nu+1}(u) / (2 x I_nu(u)),

    nu = d/2 - 1, lam = s W gamma, u = sqrt(lam s x). The iteration starts
    at the midpoint of the bracket and every evaluation moves one bracket
    end to x by the sign of D. A Newton step that is non-finite or leaves
    the open bracket is replaced by the bracket midpoint, and the iteration
    stops once its step is within _XTOL or a few ulps of x (or D is
    exactly 0).
    """
    W = config.W
    # f0 dominates below the crossing, f1 above; expand each end, starting
    # from the H0 mode and the H1 mean, until the sign change is bracketed
    s, d = dof_scaling(config)
    lo = max(max(d - 2.0, 0.0) / s, 1e-8)
    hi = W * (1.0 + gamma)
    for _ in range(200):
        if _log_ratio(lo, config, gamma) > 0:
            break
        lo *= 0.5
    else:
        raise ThresholdBracketError(f"no H0-dominant region found (W={W}, gamma={gamma})")
    for _ in range(200):
        if not _log_ratio(hi, config, gamma) > 0:
            break
        hi *= 2.0
    else:
        raise ThresholdBracketError(f"no H1-dominant region found (W={W}, gamma={gamma})")

    nu = 0.5 * d - 1.0
    lam = s * (W * gamma)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        dv = _log_ratio(x, config, gamma)
        if dv > 0:
            lo = x
        elif dv < 0:
            hi = x
        u = np.sqrt(lam * s * x)
        # ive underflows to 0 at large order and small argument: a nan step
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = -0.5 * u / x * (ive(nu + 1.0, u) / ive(nu, u))
            step = 0.0 if dv == 0 else dv / slope
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


def threshold_exact(config: SystemConfig, gamma: float) -> float:
    """ML threshold as the true crossing of the H0/H1 densities (safeguarded Newton)."""
    if not gamma > 0:
        raise ValueError(f"threshold requires gamma > 0, got {gamma}")
    return _solve_crossing(config, float(gamma))


@lru_cache(maxsize=_THRESHOLD_CACHE_SIZE)
def threshold_for(config: SystemConfig, gamma: float) -> float:
    """Threshold at config.W for one SNR per the configured mode; gamma == 0 gives W.

    Served from a small LRU keyed on (config, gamma). With gamma == 0 the
    two hypotheses coincide and any positive threshold yields chance-level
    decisions; the H0 mean keeps the detector runnable. Accuracy floor: at
    tiny gamma D = log f0 - log f1 cancels, so the exact root is off by
    2.9e-5 (complex) and 2.4e-4 (paper) at W=246, gamma=1e-8, where D
    reads log_bessel_i's hyp0f1 form (good to ~1e-12 absolute), and by
    3.3e-3 at W=3 complex, gamma=1e-12 (50-digit reference).
    decide_array's sign of D is as uncertain there; sweeps stay far above
    (kernel-drawn from-Ps gamma >~ 0.37).
    """
    gamma = float(_gammas(gamma))
    if gamma == 0:
        return float(config.W)
    if config.threshold_mode == "closed-form":
        return float(threshold_paper(config.W, gamma))
    return _solve_crossing(config, gamma)


def decide_array(config: SystemConfig, stats, gamma) -> np.ndarray:
    """Decisions (True for bit 1) of a batch of statistics at one SNR or one each.

    A scalar gamma decides stats >= threshold_for(config, gamma). An array
    gamma, of the shape of stats, decides each statistic against its own
    gamma's threshold without solving it: gamma == 0 decides stat >= W,
    closed-form compares with threshold_paper, and exact-root decides 1
    where D(stat) <= 0, as D falls strictly through its root (its slope
    -u I_{nu+1}(u) / (2 x I_nu(u)) is negative for x > 0). Either way gamma
    is validated as in threshold_for.
    """
    if np.ndim(gamma) == 0:
        return stats >= threshold_for(config, gamma)
    gamma = _gammas(gamma)
    out = stats >= config.W
    pos = gamma > 0
    if np.any(pos):
        if config.threshold_mode == "closed-form":
            out[pos] = stats[pos] >= threshold_paper(config.W, gamma[pos])
        else:
            out[pos] = _log_ratio(stats[pos], config, gamma[pos]) <= 0
    return out


def decide(statistic: float, threshold: float) -> int:
    """Threshold comparison; exact ties resolve to 1."""
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    return 1 if statistic >= threshold else 0
