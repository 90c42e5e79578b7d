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
w_tilde, bin by bin. process returns that z_tilde (numpy's unnormalized FFT).
The test statistic sums |z_tilde|^2 over the bins statistic_bins names (the
first W) normalized by the per-bin noise power P_w = 2*(T+1)*Nw.
bin_statistic is that sum, the one for test_statistic and for harness's batch
kernel alike; bin_geometry holds those bins' phases and the edge map with
which the kernel draws them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
    return np.fft.fft(fold(cancel(y1, y2), config))


def statistic_bins(W: int) -> np.ndarray:
    """Indices of the DFT bins the statistic sums: the first W, 0..W-1."""
    return np.arange(W)


def bin_statistic(bins: np.ndarray, config: SystemConfig):
    """The statistic of the bins on the last axis: sum |bin|^2 / noise_power."""
    return np.sum(bins.real ** 2 + bins.imag ** 2, axis=-1) / noise_power(config)


@lru_cache(maxsize=64)
def bin_geometry(W: int, m: int, k: int, nb: int):
    """Read-only (phase, emap) of the bins at W, M = m, K = k, R+1 = nb, cached.

    phase[p, i] = omega^(b_p i), omega = exp(-2 pi j / nb), at the bins
    b = statistic_bins(W) and offsets i = 0..max(M, K). The edge samples
    s[Q+nb-i], i = 1..M, are [s_bins | pre | z] @ emap: the window is i.i.d.
    CN(0, 2), S = sqrt(nb) s_bins its bins, pre[i-1] = s[Q-i] before it. Its
    tail t_i = s[Q+nb-i], i <= mt = min(M, nb), has Cov(t_i, S_p) = 2 phi_ip,
    phi = phase[:, 1..mt]^T, so t = phi S / nb + root z, z i.i.d. CN(0, 2), root
    the symmetric root of I - phi phi^H / nb (eigenvalues clipped at 0, so 0
    at W = nb). For i > nb, s[Q+nb-i] is pre[i-nb-1].
    """
    phase = np.exp(-2j * np.pi / nb * np.outer(statistic_bins(W), np.arange(max(m, k) + 1)))
    mt = min(m, nb)
    phi = phase[:, 1 : mt + 1].T
    lam, vec = np.linalg.eigh(np.eye(mt) - phi @ phi.conj().T / nb)
    emap = np.zeros((W + m + mt, m), dtype=complex)
    emap[:W, :mt] = phi.T / np.sqrt(nb)
    emap[W : W + m - mt, mt:] = np.eye(m - mt)
    emap[W + m :, :mt] = ((vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T).T
    phase.flags.writeable = emap.flags.writeable = False
    return phase, emap


def test_statistic(z_tilde: np.ndarray, config: SystemConfig) -> float:
    """Energy statistic over the statistic's bins, normalized by noise_power."""
    if not noise_power(config) > 0:
        raise ValueError(f"the statistic needs noise power Nw > 0, got Nw={config.Nw}")
    if len(z_tilde) != config.R + 1:
        raise ValueError(f"expected {config.R + 1} bins, got {len(z_tilde)}")
    return float(bin_statistic(z_tilde[statistic_bins(config.W)], config))
