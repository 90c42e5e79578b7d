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

The ML threshold is where the two densities cross. threshold_paper evaluates
the closed form obtained by pulling the Bessel kernel's exponentials apart
(which is what makes it solvable, at the cost of an approximation);
threshold_exact finds the true crossing by bisection on the log-density
difference. The bisection runs on an array of gammas at once, with the
densities evaluated elementwise (log I_r via scipy's ive), so a batch of
per-trial thresholds costs one array solve: threshold_for takes a scalar
gamma or an array of them. Only the scalar path is cached, in a small
bounded LRU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    log_chi2_pdf,
    log_gamma,
    log_noncentral_chi2_pdf,
    sin_power_integral,
)
from .phy import ChannelSet, SystemConfig
from .receiver import DetectionStatistic, noise_power

_XTOL = 1e-10  # bisection tolerance of the exact-root threshold
# scalar thresholds are asked for once per sweep point, or once per frame by
# run_trial; a small LRU serves the repeats without growing per trial
_SCALAR_CACHE_SIZE = 128


class ThresholdBracketError(RuntimeError):
    """No density crossing could be bracketed (degenerate SNR)."""


@dataclass(frozen=True)
class DetectorParams:
    """Hypothesis-test parameters for one operating point."""

    W: int
    gamma: float
    dof_convention: str = "paper"

    def __post_init__(self):
        if self.W < 1:
            raise ValueError(f"W must be >= 1, got {self.W}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.dof_convention not in ("paper", "complex"):
            raise ValueError(f"unknown dof convention {self.dof_convention!r}")

    @property
    def lam(self) -> float:
        """Noncentrality parameter, lambda = W * gamma."""
        return self.W * self.gamma


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


def dof_scaling(W: int, dof_convention: str) -> tuple[float, int]:
    """(s, d): s times the statistic is chi-square with d dof.

    The H1 noncentrality of s times the statistic is s * W * gamma.
    """
    if dof_convention == "paper":
        return 1.0, W
    return 2.0, 2 * W


def _log_f0(x, W: int, dof_convention: str):
    s, d = dof_scaling(W, dof_convention)
    return math.log(s) + log_chi2_pdf(s * x, d)


def _log_f1(x, W: int, lam, dof_convention: str):
    s, d = dof_scaling(W, dof_convention)
    return math.log(s) + log_noncentral_chi2_pdf(s * x, d, s * lam)


def log_pdf_h0(x, params: DetectorParams):
    return _log_f0(x, params.W, params.dof_convention)


def log_pdf_h1(x, params: DetectorParams):
    return _log_f1(x, params.W, params.lam, params.dof_convention)


def pdf_h0(x, params: DetectorParams):
    """Density of the statistic under H0 (bit 0), elementwise; zero for x <= 0."""
    out = np.exp(log_pdf_h0(x, params))
    return float(out) if np.ndim(out) == 0 else out


def pdf_h1(x, params: DetectorParams):
    """Density of the statistic under H1 (bit 1), elementwise; zero for x <= 0."""
    out = np.exp(log_pdf_h1(x, params))
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
    return log_arg ** 2 / (W * gamma)


def _h0_mode(W: int, dof_convention: str) -> float:
    if dof_convention == "paper":
        return max(W - 2.0, 0.0)
    return max(W - 1.0, 0.0)


def _solve_crossing(W: int, gamma: np.ndarray, dof_convention: str) -> np.ndarray:
    """Density crossing for each gamma (all > 0), bisected as one array.

    Every element follows the scalar algorithm: the same starting bracket,
    the same expansion and bisection caps, the same stopping rule; only
    elements still in play are evaluated.
    """
    lam = W * gamma

    def h0_wins(x, idx):
        return _log_f0(x, W, dof_convention) - _log_f1(x, W, lam[idx], dof_convention) > 0

    # f0 dominates below the crossing, f1 above; expand each end until the
    # sign change is bracketed
    lo = np.full(gamma.shape, max(_h0_mode(W, dof_convention), 1e-8))
    hi = W * (1.0 + gamma)
    idx = np.arange(gamma.size)
    for _ in range(200):
        idx = idx[~h0_wins(lo[idx], idx)]
        if idx.size == 0:
            break
        lo[idx] *= 0.5
    else:
        raise ThresholdBracketError(
            f"no H0-dominant region found (W={W}, gamma={gamma[idx[0]]})")
    idx = np.arange(gamma.size)
    for _ in range(200):
        idx = idx[h0_wins(hi[idx], idx)]
        if idx.size == 0:
            break
        hi[idx] *= 2.0
    else:
        raise ThresholdBracketError(
            f"no H1-dominant region found (W={W}, gamma={gamma[idx[0]]})")
    # capped iterations: at large x one float64 ulp can exceed _XTOL
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        idx = np.flatnonzero((hi - lo > _XTOL) & (mid > lo) & (mid < hi))
        if idx.size == 0:
            break
        up = h0_wins(mid[idx], idx)
        lo[idx[up]] = mid[idx[up]]
        hi[idx[~up]] = mid[idx[~up]]
    return 0.5 * (lo + hi)


@lru_cache(maxsize=_SCALAR_CACHE_SIZE)
def _threshold_exact_cached(W: int, gamma: float, dof_convention: str) -> float:
    return float(_solve_crossing(W, np.array([gamma]), dof_convention)[0])


def threshold_exact(params: DetectorParams) -> float:
    """ML threshold as the true crossing of the H0/H1 densities (bisection)."""
    if params.gamma <= 0:
        raise ValueError(f"threshold requires gamma > 0, got {params.gamma}")
    return _threshold_exact_cached(params.W, params.gamma, params.dof_convention)


def threshold_for(config: SystemConfig, gamma):
    """Threshold at config.W per the configured mode; gamma == 0 gives W.

    gamma is a scalar (one threshold, a float) or an array of per-trial
    SNRs (one threshold each, solved together). With gamma == 0 the two
    hypotheses coincide and any positive threshold yields chance-level
    decisions; the H0 mean keeps the detector runnable.
    """
    W = config.W
    if np.ndim(gamma) == 0:
        if gamma == 0:
            return float(W)
        if config.threshold_mode == "closed-form":
            return threshold_paper(W, gamma)
        return threshold_exact(
            DetectorParams(W=W, gamma=gamma, dof_convention=config.dof_convention)
        )
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma < 0):
        raise ValueError(f"gamma must be >= 0, got {np.min(gamma)}")
    out = np.full(gamma.shape, float(W))
    pos = gamma > 0
    if np.any(pos):
        if config.threshold_mode == "closed-form":
            out[pos] = threshold_paper(W, gamma[pos])
        else:
            out[pos] = _solve_crossing(W, gamma[pos], config.dof_convention)
    return out


def decide(statistic, threshold: float) -> int:
    """Threshold comparison; exact ties resolve to 1."""
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    g = statistic.gamma_t if isinstance(statistic, DetectionStatistic) else float(statistic)
    return 1 if g >= threshold else 0
