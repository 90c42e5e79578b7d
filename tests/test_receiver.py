"""Cancellation, fold-to-circular, DFT diagonalization, and the test statistic."""

import numpy as np
import pytest

from cpscatter.numerics import RngStream, complex_gaussian
from cpscatter.phy import (
    SystemConfig,
    draw_channels,
    legacy_demodulate,
    simulate_frame,
    tag_gate,
    tag_receive,
)
from cpscatter.receiver import (
    cancel,
    extract_windows,
    fold,
    noise_power,
    process,
)
from cpscatter.receiver import test_statistic as energy_statistic


def cfg(**kw):
    return SystemConfig(**kw)


# --- windows and cancellation -------------------------------------------------

def test_window_indices_default_geometry():
    c = cfg()
    y = np.arange(c.frame_len, dtype=complex)
    y1, y2 = extract_windows(y, c)
    assert len(y1) == len(y2) == 251
    assert y1[0] == 5 and y1[-1] == 255
    assert y2[0] == 2053 and y2[-1] == 2303


def test_window_q_zero_starts_at_origin():
    c = cfg(L=0, M=0, K=0, W=4)
    y = np.arange(c.frame_len, dtype=complex)
    y1, y2 = extract_windows(y, c)
    assert y1[0] == 0
    assert y2[0] == c.N


def test_windows_disjoint():
    c = cfg()
    assert c.N + c.Q > c.C - 1  # phase 4 starts after phase 2 ends


@pytest.mark.parametrize("read", [extract_windows, legacy_demodulate])
def test_frame_readers_refuse_wrong_length(read):
    c = cfg()
    with pytest.raises(ValueError, match=f"expected {c.frame_len} samples, got {c.frame_len - 1}"):
        read(np.zeros(c.frame_len - 1, dtype=complex), c)


def test_cancel_elementwise():
    gen = RngStream(1).generator()
    a = complex_gaussian(gen, 1.0, 40)
    b = complex_gaussian(gen, 1.0, 40)
    assert np.array_equal(cancel(a, b), a - b)
    assert not cancel(a, a).any()
    with pytest.raises(ValueError):
        cancel(a, b[:-1])


def test_noise_free_cancellation_is_exact():
    c = cfg(Nw=0.0)
    gen = RngStream(2).generator()
    for _ in range(50):
        ch = draw_channels(c, gen)
        fr = simulate_frame(c, ch, 0, c.Ps, gen)
        y1, y2 = extract_windows(fr.y, c)
        z = cancel(y1, y2)
        assert np.max(np.abs(z)) <= 1e-10 * np.max(np.abs(y1))


@pytest.mark.parametrize("geometry", [
    dict(),
    dict(N=64, C=32, L=2, M=7, K=3, W=3),  # Q = M > L, K
])
def test_samples_before_q_are_never_read(geometry):
    # what the previous symbol leaves in channel memory reaches only y[:Q],
    # so frames can start cold: neither reader sees those samples
    c = cfg(**geometry)
    gen = RngStream(12).generator()
    for bit in (0, 1):
        fr = simulate_frame(c, draw_channels(c, gen), bit, c.Ps, gen)
        y = fr.y.copy()
        y[: c.Q] = complex_gaussian(gen, 1e6, c.Q)
        assert np.array_equal(process(y, c), process(fr.y, c))
        assert np.array_equal(legacy_demodulate(y, c), legacy_demodulate(fr.y, c))


# --- fold ----------------------------------------------------------------------

def test_fold_no_tail_when_k_zero():
    c = cfg(L=2, M=2, K=0, W=3)
    z = complex_gaussian(RngStream(3).generator(), 1.0, c.T + 1)
    assert np.array_equal(fold(z, c), z)


def test_fold_small_example():
    # T=5, R=3, K=2 geometry
    c = cfg(N=8, C=8, L=0, M=0, K=2, W=2)
    assert (c.T, c.R, c.K) == (5, 3, 2)
    z = np.arange(6, dtype=complex)
    got = fold(z, c)
    want = np.array([0 + 4, 1 + 5, 2, 3], dtype=complex)
    assert np.array_equal(got, want)


def test_fold_output_length():
    for kw in (dict(), dict(L=1, M=2, K=3, W=2), dict(L=0, M=0, K=0, W=2)):
        c = cfg(**kw)
        z = complex_gaussian(RngStream(4).generator(), 1.0, c.T + 1)
        assert len(fold(z, c)) == c.R + 1


def test_fold_length_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros(7), cfg())


def _circular_conv_oracle(f, v, n):
    # direct double loop, indices mod n
    taps = np.zeros(n, dtype=complex)
    taps[: len(f)] = f
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i] += taps[j] * v[(i - j) % n]
    return out


def test_fold_linear_conv_equals_circular():
    c = cfg()
    gen = RngStream(5).generator()
    for _ in range(5):
        f = complex_gaussian(gen, 1.0, c.K + 1)
        v = complex_gaussian(gen, 1.0, c.R + 1)
        lin = np.convolve(f, v)  # length T+1
        got = fold(lin, c)
        want = _circular_conv_oracle(f, v, c.R + 1)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# --- DFT diagonalization --------------------------------------------------------

def _dft_matrix(n):
    p, q = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * p * q / n)


def _circulant_from_taps(f, n):
    col = np.zeros(n, dtype=complex)
    col[: len(f)] = f
    mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        mat[:, j] = np.roll(col, j)
    return mat


def test_circulant_diagonalization_identity():
    c = cfg()
    n = c.R + 1
    F = _dft_matrix(n)
    gen = RngStream(6).generator()
    for _ in range(5):
        f = complex_gaussian(gen, 1.0, c.K + 1)
        circ = _circulant_from_taps(f, n)
        t_c = circ[:, 0]
        lhs = F @ circ
        rhs = np.diag(F @ t_c) @ F
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))


def test_transform_zero():
    assert not np.fft.fft(np.zeros(246, dtype=complex)).any()


def test_single_path_constant_gate_diagonalizes():
    # K=0: z_tilde(n) = eta * f0 * x_tilde(n), bin by bin
    c = cfg(L=2, M=2, K=0, Nw=0.0, W=3)
    gen = RngStream(7).generator()
    ch = draw_channels(c, gen)
    fr = simulate_frame(c, ch, 1, c.Ps, gen)
    zt = process(fr.y, c)
    x_win = fr.x[c.Q : c.C - c.K] if c.K else fr.x[c.Q : c.C]
    want = c.eta * ch.f[0] * np.fft.fft(x_win)
    assert np.max(np.abs(zt - want)) < 1e-9 * np.max(np.abs(want))


def test_chain_matches_dense_matrix_path():
    # fast path fold+DFT vs dense F . Circ . diag(b) . x
    c = cfg(Nw=0.0)
    n = c.R + 1
    F = _dft_matrix(n)
    gen = RngStream(8).generator()
    for _ in range(10):
        ch = draw_channels(c, gen)
        fr = simulate_frame(c, ch, 1, c.Ps, gen)
        zt = process(fr.y, c)
        x_win = fr.x[c.Q : c.C - c.K]
        dense = c.eta * (F @ (_circulant_from_taps(ch.f, n) @ x_win))
        assert np.max(np.abs(zt - dense)) < 1e-9 * np.max(np.abs(dense))


# --- statistic -------------------------------------------------------------------

def test_statistic_trivials():
    assert energy_statistic(np.zeros(246, dtype=complex), cfg(Nw=3.0)) == 0.0
    c = cfg(W=1, Nw=7.0)
    z = np.zeros(246, dtype=complex)
    z[0] = np.sqrt(noise_power(c))
    z[1] = 5.0  # outside the W=1 statistic
    assert energy_statistic(z, c) == pytest.approx(1.0, rel=1e-12)


def test_statistic_window_errors():
    # the statistic reads R+1 = 246 bins, at the point's noise power
    with pytest.raises(ValueError, match="246 bins"):
        energy_statistic(np.zeros(10, dtype=complex), cfg(W=4))
    with pytest.raises(ValueError, match="Nw"):
        energy_statistic(np.zeros(246, dtype=complex), cfg(W=4, Nw=0.0))


def test_noise_only_statistic_mean():
    # E[Gamma | bit 0] = W, and per-bin energy through the chain is Pw
    c = cfg()
    gen = RngStream(10).generator()
    pw = noise_power(c)
    assert pw == pytest.approx(2 * 251 * 1.0)
    acc, acc_bins, n = 0.0, 0.0, 2000
    for _ in range(n):
        w1 = complex_gaussian(gen, c.Nw, c.T + 1)
        w2 = complex_gaussian(gen, c.Nw, c.T + 1)
        zt = np.fft.fft(fold(cancel(w1, w2), c))
        acc += energy_statistic(zt, c)
        acc_bins += float(np.mean(np.abs(zt) ** 2))
    assert acc / n == pytest.approx(c.W, rel=0.03)
    assert acc_bins / n == pytest.approx(pw, rel=0.03)
