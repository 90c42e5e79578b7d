"""Reader-side processing: window extraction, cancellation, fold, DFT, statistic.

The CP makes the direct source path identical in two windows of the frame:
Phase 2 (inside the CP, n in [Q, C-1]) and Phase 4 (end of the effective
symbol, n in [N+Q, N+C-1]). Subtracting the second window from the first
removes the direct path exactly, leaving

    z(n) = eta * sum_k f_k B(n+Q-k) x(n+Q-k) + w_e(n),   n in [0, T]

with w_e ~ CN(0, 2*Nw) and T = C-Q-1. Because the gated tag signal only
occupies R+1 = T-K+1 samples, folding the last K entries of z onto its head
turns the linear convolution with f into a circular one of length R+1, which
an (R+1)-point DFT diagonalizes: z_tilde = eta * f_tilde * b * x_tilde +
w_tilde, bin by bin. process returns that z_tilde. The test statistic, a
float, sums |z_tilde|^2 over the first W bins normalized by the per-bin
noise power P_w = 2*(T+1)*Nw; decompose_statistic (simulation side only)
splits it into noise, signal and cross terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import dft
from .phy import Frame, SystemConfig


@dataclass
class DetectionStatistic:
    """Genie decomposition of the test statistic (decompose_statistic).

    Mt is the pure-noise part, Jt the pure-signal part, Vt the cross term;
    gamma_t == Mt for bit 0 and Mt + Jt + Vt for bit 1.
    """

    gamma_t: float
    Mt: float
    Jt: float
    Vt: float


def noise_power(config: SystemConfig) -> float:
    """Per-bin noise power at the DFT output: P_w = 2*(T+1)*Nw."""
    return 2.0 * (config.T + 1) * config.Nw


def extract_windows(y: np.ndarray, config: SystemConfig):
    """Phase 2 and Phase 4 reader windows, each of length T+1 = C-Q."""
    if len(y) != config.frame_len:
        raise ValueError(f"expected {config.frame_len} samples, got {len(y)}")
    q, c, n = config.Q, config.C, config.N
    return np.asarray(y[q:c]), np.asarray(y[n + q : n + c])


def cancel(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Subtract the CP-repeated window; the direct path cancels exactly."""
    if len(y1) != len(y2):
        raise ValueError(f"window lengths differ: {len(y1)} vs {len(y2)}")
    return np.asarray(y1, dtype=np.complex128) - np.asarray(y2, dtype=np.complex128)


def fold(z: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Fold the K-sample convolution tail back onto the head.

    Output i < K is z(i) + z(R+1+i); the rest copy through. This converts
    the (T+1)-long linear convolution into an (R+1)-point circular one.
    """
    r, t, k = config.R, config.T, config.K
    if len(z) != t + 1:
        raise ValueError(f"expected {t + 1} samples, got {len(z)}")
    out = np.array(z[: r + 1], dtype=np.complex128)
    if k:
        out[:k] += z[r + 1 :]
    return out


def process(y: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Full receiver front end: windows -> cancel -> fold -> DFT; returns z_tilde."""
    y1, y2 = extract_windows(y, config)
    return dft(fold(cancel(y1, y2), config))


def test_statistic(z_tilde: np.ndarray, W: int, Pw: float) -> float:
    """Energy statistic over the first W DFT bins, normalized by Pw."""
    if Pw <= 0:
        raise ValueError(f"Pw must be > 0, got {Pw}")
    if W > len(z_tilde):
        raise ValueError(f"W={W} bins out of range for {len(z_tilde)} bins")
    return float(np.sum(np.abs(z_tilde[:W]) ** 2)) / Pw


def decompose_statistic(frame: Frame, config: SystemConfig) -> DetectionStatistic:
    """Genie decomposition of the statistic into noise/signal/cross parts.

    Needs the frame's recorded noise realization; simulation-side only.
    """
    if frame.noise is None:
        raise ValueError("frame carries no noise record; decomposition needs one")
    pw = noise_power(config)
    w = config.W

    z_tilde = process(frame.y, config)
    noise_tilde = process(frame.noise, config)
    signal_tilde = z_tilde - noise_tilde

    vt = float(np.sum(2.0 * np.real(signal_tilde[:w] * np.conj(noise_tilde[:w])))) / pw
    return DetectionStatistic(gamma_t=test_statistic(z_tilde, w, pw),
                              Mt=test_statistic(noise_tilde, w, pw),
                              Jt=test_statistic(signal_tilde, w, pw), Vt=vt)
