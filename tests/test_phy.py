"""Frame generation: channels, CP structure, gating, convolutions, legacy probe."""

import numpy as np
import pytest

from cpscatter.numerics import RngStream, complex_gaussian
from cpscatter.phy import (
    ChannelSet,
    SystemConfig,
    _causal_fir,
    draw_channels,
    generate_source_symbol,
    legacy_demodulate,
    observe_components,
    simulate_frame,
    tag_gate,
    tag_receive,
)


def cfg(**kw):
    return SystemConfig(**kw)


# --- configuration -----------------------------------------------------------

def test_default_geometry():
    c = cfg()
    assert (c.Q, c.T, c.R) == (5, 250, 245)
    assert c.frame_len == 2304


def test_flat_fading_geometry():
    c = cfg(L=0, M=0, K=0, W=4)
    assert (c.Q, c.T, c.R) == (0, 255, 255)


@pytest.mark.parametrize("bad", [
    dict(C=11, L=5, M=5, K=5),          # C <= Q+K+1
    dict(N=100, C=256),                  # N < C
    dict(W=0),                           # W too small
    dict(W=247),                         # W > R+1
    dict(Ps=0.0),
    dict(Ps=-1.0),
    dict(Nw=-0.1),
    dict(K=-1),
    dict(snr_mode="nope"),
    dict(dof_convention="nope"),
    dict(threshold_mode="nope"),
    dict(gamma_knowledge="nope"),
    dict(gamma_knowledge="ensemble"),  # direct-gamma ran it as genie without a word
    dict(L=-1),
    dict(Nw=float("nan")),
    dict(Nw=float("inf")),
    dict(Ps=float("inf")),
    dict(eta=complex("nan")),
    dict(eta=complex("inf")),
    dict(gamma_db=float("nan")),
    dict(gamma_db=float("inf")),
    dict(gamma_db=float("-inf")),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        cfg(**bad)


@pytest.mark.parametrize("bad", [
    dict(seed=1.5),  # the Philox key would truncate it onto seed 1
    dict(seed=True),  # a bool is an int subclass: it would key as seed 1
    dict(W=3.0),  # these three failed with a TypeError inside the kernel
    dict(M=2.0),
    dict(K=1.5),
    dict(C=200.5),  # ran to a plausible-looking wrong BER
])
def test_non_integer_config_values_fail(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        cfg(**bad)


@pytest.mark.parametrize("gamma_db", [3090.0, 1e6, np.float64(3090.0)])
def test_gamma_db_whose_linear_snr_overflows_fails(gamma_db):
    # 10^(gamma_db/10) raised a bare OverflowError that named neither, or
    # for a numpy scalar gave gamma = inf
    with pytest.raises(ValueError, match=f"gamma_db={float(gamma_db)!r} dB"):
        cfg(gamma_db=gamma_db)


def test_gamma_db_just_below_overflow_accepted():
    # 10 log10(DBL_MAX) = 3082.547...; 10^(gamma_db/10) is finite below it
    assert cfg(gamma_db=3082.5).gamma_db == 3082.5


def test_numpy_integer_config_values_accepted():
    c = cfg(W=np.int64(3), seed=np.uint64(7), M=np.int32(2))
    assert (c.W, c.seed, c.M) == (3, 7, 2)


def test_zero_noise_allowed():
    assert cfg(Nw=0.0).Nw == 0.0


# --- channels ----------------------------------------------------------------

def test_draw_channels_shapes_and_derived():
    c = cfg()
    ch = draw_channels(c, RngStream(11).generator())
    assert (len(ch.h), len(ch.g), len(ch.f)) == (6, 6, 6)
    assert ch.sum_g2 == pytest.approx(float(np.sum(np.abs(ch.g) ** 2)))


def test_channel_energy_moment():
    c = cfg()
    gen = RngStream(500).generator()
    total = 0.0
    n = 100_000
    for _ in range(n // 500):
        ch = complex_gaussian(gen, 1.0, 500 * 6).reshape(500, 6)
        total += float(np.sum(np.abs(ch) ** 2))
    assert total / n == pytest.approx(6.0, rel=0.02)


def test_draw_channels_moment():
    c = cfg()
    gen = RngStream(501).generator()
    n = 20_000
    acc = 0.0
    for _ in range(n):
        acc += draw_channels(c, gen).sum_g2
    assert acc / n == pytest.approx(6.0, rel=0.02)


# --- source symbol -----------------------------------------------------------

def test_cp_is_bit_identical():
    c = cfg()
    s = generate_source_symbol(c, c.Ps, RngStream(7).generator())
    assert len(s) == c.frame_len
    assert np.array_equal(s[: c.C], s[c.N : c.N + c.C])


def test_small_frame_cp_layout():
    c = cfg(N=8, C=4, L=0, M=0, K=0, W=2)
    s = generate_source_symbol(c, c.Ps, RngStream(8).generator())
    assert len(s) == 12
    assert np.array_equal(s[0:4], s[8:12])


def test_source_variance():
    c = cfg(Ps=4.0)
    gen = RngStream(9).generator()
    samples = np.concatenate(
        [generate_source_symbol(c, c.Ps, gen)[c.C :] for _ in range(500)]
    )
    assert len(samples) >= 1_000_000
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(4.0, rel=0.02)


# --- tag gate ----------------------------------------------------------------

def test_gate_zero_bit():
    assert not tag_gate(cfg(), 0).any()


def test_gate_one_bit_support():
    c = cfg()
    g = tag_gate(c, 1)
    assert g[5:251].all() and g[5:251].size == 246
    assert not g[:5].any() and not g[251:].any()


def test_gate_count_is_folded_length():
    for kw in (dict(), dict(L=2, M=0, K=1, W=3), dict(L=0, M=0, K=0, W=3)):
        c = cfg(**kw)
        assert int(tag_gate(c, 1).sum()) == c.R + 1


def test_gate_rejects_bad_bit():
    with pytest.raises(ValueError):
        tag_gate(cfg(), 2)


# --- tag_receive -------------------------------------------------------------

def test_tag_receive_identity_channel():
    s = complex_gaussian(RngStream(1).generator(), 1.0, 64)
    g = np.zeros(6, dtype=complex)
    g[0] = 1.0
    assert np.array_equal(tag_receive(s, g), s)


def test_tag_receive_pure_delay():
    s = np.zeros(16, dtype=complex)
    s[0] = 1.0
    x = tag_receive(s, np.array([0.0, 1.0], dtype=complex))
    want = np.zeros(16, dtype=complex)
    want[1] = 1.0
    assert np.array_equal(x, want)


def _fir_oracle(s, taps):
    # brute-force double loop, zero before the first sample
    out = np.zeros(len(s), dtype=complex)
    for n in range(len(s)):
        for m, t in enumerate(taps):
            if n - m >= 0:
                out[n] += t * s[n - m]
    return out


def test_tag_receive_vs_bruteforce():
    gen = RngStream(22).generator()
    s = complex_gaussian(gen, 1.0, 50)
    g = complex_gaussian(gen, 1.0, 6)
    got = tag_receive(s, g)
    want = _fir_oracle(s, g)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n_taps, n_samples", [(1, 64), (2, 64), (6, 2304), (9, 4)])
def test_causal_fir_matches_truncated_convolution(n_taps, n_samples):
    # the shifted-tap sum against numpy's full convolution, cut to the
    # signal's length; (9, 4) has more taps than samples
    gen = RngStream(23).generator()
    s = complex_gaussian(gen, 1.0, n_samples)
    taps = complex_gaussian(gen, 1.0, n_taps)
    got = _causal_fir(s, taps)
    want = np.convolve(s, taps)[:n_samples]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(got))


# --- observe_components ------------------------------------------------------

def test_observe_zero_gate_is_direct_path_only():
    c = cfg(Nw=0.0)
    ch = draw_channels(c, RngStream(31).generator())
    gen = RngStream(32).generator()
    s = generate_source_symbol(c, c.Ps, gen)
    x = tag_receive(s, ch.g)
    direct, backscatter = observe_components(s, x, tag_gate(c, 0), ch, c)
    y = direct + backscatter
    want = _fir_oracle(s, ch.h)
    assert np.max(np.abs(y - want)) < 1e-12 * np.max(np.abs(want))


def test_observe_eta_zero_kills_backscatter():
    c = cfg(eta=0.0, Nw=0.0, snr_mode="from-Ps")
    ch = draw_channels(c, RngStream(33).generator())
    gen = RngStream(34).generator()
    s = generate_source_symbol(c, c.Ps, gen)
    x = tag_receive(s, ch.g)
    direct, backscatter = observe_components(s, x, tag_gate(c, 1), ch, c)
    assert not backscatter.any()
    assert direct.any()


def test_observe_vs_bruteforce_full_model():
    c = cfg(N=32, C=16, L=2, M=3, K=1, Nw=0.0, W=3)
    ch = draw_channels(c, RngStream(35).generator())
    gen = RngStream(36).generator()
    s = generate_source_symbol(c, c.Ps, gen)
    x = tag_receive(s, ch.g)
    gate = tag_gate(c, 1)
    direct, backscatter = observe_components(s, x, gate, ch, c)
    y = direct + backscatter
    want = _fir_oracle(s, ch.h) + c.eta * _fir_oracle(gate * x, ch.f)
    assert np.max(np.abs(y - want)) < 1e-12 * np.max(np.abs(want))


def test_observe_length_mismatch():
    c = cfg()
    ch = draw_channels(c, RngStream(37).generator())
    with pytest.raises(ValueError):
        observe_components(np.zeros(10), np.zeros(10), np.zeros(10), ch, c)


def test_backscatter_confined_to_cp():
    # gate support ends at C-K-1, so the reflected path is silent after the CP
    c = cfg(Nw=0.0)
    ch = draw_channels(c, RngStream(38).generator())
    gen = RngStream(39).generator()
    s = generate_source_symbol(c, c.Ps, gen)
    x = tag_receive(s, ch.g)
    _, backscatter = observe_components(s, x, tag_gate(c, 1), ch, c)
    assert not backscatter[c.C :].any()
    assert backscatter[c.Q : c.C].any()


# --- frames ------------------------------------------------------------------

def test_simulate_frame_invariants():
    c = cfg()
    ch = draw_channels(c, RngStream(41).generator())
    fr = simulate_frame(c, ch, 1, c.Ps, RngStream(42).generator())
    assert np.array_equal(fr.s[: c.C], fr.s[c.N :])
    assert len(fr.noise) == c.frame_len
    assert set(np.unique(fr.gate)) <= {0, 1}
    direct, backscatter = observe_components(fr.s, fr.x, fr.gate, ch, c)
    assert np.max(np.abs(fr.y - direct - backscatter - fr.noise)) < 1e-12


# --- legacy receiver probe ---------------------------------------------------

def test_legacy_unaffected_by_tag_bit():
    c = cfg(Nw=0.0)
    gen = RngStream(45).generator()
    for _ in range(20):
        ch = draw_channels(c, gen)
        s = generate_source_symbol(c, c.Ps, gen)
        x = tag_receive(s, ch.g)
        outs = []
        for bit in (0, 1):
            direct, backscatter = observe_components(s, x, tag_gate(c, bit), ch, c)
            outs.append(legacy_demodulate(direct + backscatter, c))
        scale = np.max(np.abs(outs[0]))
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-9 * scale


def test_legacy_impulse_channel_is_dft():
    c = cfg(Nw=0.0)
    h = np.zeros(6, dtype=complex)
    h[0] = 1.0
    ch = ChannelSet(h=h, g=h.copy(), f=h.copy())
    s = generate_source_symbol(c, c.Ps, RngStream(46).generator())
    direct, _ = observe_components(s, s, tag_gate(c, 0), ch, c)
    got = legacy_demodulate(direct, c)
    assert np.allclose(got, np.fft.fft(s[c.C :]), atol=1e-9)
    assert len(got) == c.N
