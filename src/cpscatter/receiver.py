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
noise power P_w = 2*(T+1)*Nw.
"""

from __future__ import annotations

import numpy as np

from .numerics import dft
from .phy import SystemConfig


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
