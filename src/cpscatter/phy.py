"""Physical-layer model: channels, OFDM source symbol, tag gating, reader input.

One frame spans N+C samples: a cyclic prefix of length C followed by the
N-sample effective OFDM symbol, so s(n) = s(n+N) for n in [0, C-1]. Three
FIR multipath channels connect the nodes: h (source -> reader, L+1 taps),
g (source -> tag, M+1 taps), f (tag -> reader, K+1 taps). The tag conveys
one bit per frame by switching its antenna impedance: reflect (gate 1) or
absorb (gate 0). The gate is restricted to n in [Q, C-K-1] with
Q = max(L, M, K), which keeps the backscatter entirely inside the CP. The
reader sees

    y(n) = sum_l h_l s(n-l) + eta * sum_k f_k B(n-k) x(n-k) + w(n)

with x(n) = sum_m g_m s(n-m) the signal at the tag antenna, eta the complex
attenuation inside the tag, and w(n) ~ CN(0, Nw).

Because the gate only touches the CP, a legacy OFDM receiver (which drops
the CP) is unaffected by the tag no matter what bit is sent.

Frames start cold (zero samples before n = 0), and no cross-frame state is
needed: the previous symbol's channel memory reaches only y[:Q], while the
reader windows start at Q >= L, K and the gate at Q >= M.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import complex_gaussian

_SNR_MODES = ("direct-gamma", "from-Ps")
_DOF_CONVENTIONS = ("paper", "complex")
_THRESHOLD_MODES = ("closed-form", "exact-root")
_GAMMA_KNOWLEDGE = ("genie", "ensemble")


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of the link and the experiment defaults.

    N: effective OFDM symbol length (samples)
    C: cyclic prefix length (samples)
    L, M, K: channel orders (tap counts L+1, M+1, K+1)
    eta: complex attenuation inside the tag
    Ps: source sample variance (used directly in from-Ps mode)
    Nw: AWGN variance at the reader
    W: number of DFT bins averaged into one test statistic
    seed: master seed for all derived random streams, in [0, 2^64)
    snr_mode: "direct-gamma" rescales Ps per trial so the realized detection
        SNR equals 10^(gamma_db/10); "from-Ps" uses Ps as given and lets the
        per-trial SNR float with the channel draw
    gamma_db: target detection SNR in dB (direct-gamma mode)
    dof_convention: "paper" models the statistic as chi-square with W dof;
        "complex" uses the statistically exact 2W-dof scaling
    threshold_mode: "closed-form" or "exact-root" detection threshold
    gamma_knowledge: from-Ps only; "genie" computes the per-trial SNR from the
        drawn taps, "ensemble" substitutes the channel-averaged tap energies
    """

    N: int = 2048
    C: int = 256
    L: int = 5
    M: int = 5
    K: int = 5
    eta: complex = 0.5 + 0j
    Ps: float = 1.0
    Nw: float = 1.0
    W: int = 12
    seed: int = 1
    snr_mode: str = "direct-gamma"
    gamma_db: float = 13.0
    dof_convention: str = "paper"
    threshold_mode: str = "closed-form"
    gamma_knowledge: str = "genie"

    def __post_init__(self):
        # a float or bool would pass the range checks below and fail deep in
        # the kernel, or alias another seed's stream (1.5 keys as 1)
        for name in ("N", "C", "L", "M", "K", "W", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.L, self.M, self.K) < 0:
            raise ValueError("channel orders L, M, K must be >= 0")
        q = max(self.L, self.M, self.K)
        if self.C <= q + self.K + 1:
            raise ValueError(
                f"CP too short: need C > Q+K+1 = {q + self.K + 1}, got C={self.C}"
            )
        if self.N < self.C:
            raise ValueError(f"need N >= C, got N={self.N}, C={self.C}")
        if self.W < 1 or self.W > self.R + 1:
            raise ValueError(f"need 1 <= W <= R+1 = {self.R + 1}, got W={self.W}")
        # a NaN or infinite value would run to a plausible-looking wrong BER row
        if not np.all(np.isfinite([self.Ps, self.Nw, self.eta, self.gamma_db])):
            raise ValueError("Ps, Nw, eta and gamma_db must be finite")
        # direct-gamma reads gamma = 10^(gamma_db/10) as a float, which
        # overflows above 10 log10(DBL_MAX), about 3082.5 dB (a numpy scalar
        # would give inf, hence the Python float)
        gamma_db = float(self.gamma_db)
        try:
            10.0 ** (gamma_db / 10.0)
        except OverflowError:
            raise ValueError(f"gamma_db={gamma_db!r} dB is out of range: "
                             "10^(gamma_db/10) overflows") from None
        if not self.Ps > 0:
            raise ValueError(f"Ps must be > 0, got {self.Ps}")
        if self.Nw < 0:
            raise ValueError(f"Nw must be >= 0, got {self.Nw}")
        # the seed is one 64-bit Philox key word; outside that range numpy
        # would alias it onto another seed's stream
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.snr_mode not in _SNR_MODES:
            raise ValueError(f"snr_mode must be one of {_SNR_MODES}")
        if self.dof_convention not in _DOF_CONVENTIONS:
            raise ValueError(f"dof_convention must be one of {_DOF_CONVENTIONS}")
        if self.threshold_mode not in _THRESHOLD_MODES:
            raise ValueError(f"threshold_mode must be one of {_THRESHOLD_MODES}")
        if self.gamma_knowledge not in _GAMMA_KNOWLEDGE:
            raise ValueError(f"gamma_knowledge must be one of {_GAMMA_KNOWLEDGE}")
        if self.gamma_knowledge == "ensemble" and self.snr_mode == "direct-gamma":
            raise ValueError("gamma_knowledge=ensemble needs snr_mode=from-Ps, not direct-gamma")

    @property
    def Q(self) -> int:
        return max(self.L, self.M, self.K)

    @property
    def T(self) -> int:
        """Post-cancellation block order: T = C - Q - 1."""
        return self.C - self.Q - 1

    @property
    def R(self) -> int:
        """Folded block order: R = C - Q - K - 1."""
        return self.C - self.Q - self.K - 1

    @property
    def frame_len(self) -> int:
        return self.N + self.C


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One realization of the three multipath channels."""

    h: np.ndarray
    g: np.ndarray
    f: np.ndarray

    @property
    def sum_g2(self) -> float:
        return float(np.sum(np.abs(self.g) ** 2))

    @property
    def sum_f2(self) -> float:
        return float(np.sum(np.abs(self.f) ** 2))


@dataclass(eq=False)
class Frame:
    """One OFDM symbol period of the simulated link; y includes the drawn noise."""

    s: np.ndarray
    x: np.ndarray
    gate: np.ndarray
    y: np.ndarray
    noise: np.ndarray


def _causal_fir(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """y(n) = sum_m taps[m] signal(n-m), signal(n<0) = 0, as y[m:] += taps[m] signal[:-m] per m."""
    out = taps[0] * signal
    for m in range(1, min(len(taps), len(signal))):
        out[m:] += taps[m] * signal[:-m]
    return out


def draw_channels(config: SystemConfig, gen: np.random.Generator) -> ChannelSet:
    """Draw i.i.d. CN(0, 1) taps for all three channels (order: h, g, f)."""
    h = complex_gaussian(gen, 1.0, config.L + 1)
    g = complex_gaussian(gen, 1.0, config.M + 1)
    f = complex_gaussian(gen, 1.0, config.K + 1)
    return ChannelSet(h=h, g=g, f=f)


def generate_source_symbol(config: SystemConfig, ps: float,
                           gen: np.random.Generator) -> np.ndarray:
    """One OFDM symbol with CP: N i.i.d. CN(0, ps) samples, last C copied in front."""
    body = complex_gaussian(gen, ps, config.N)
    return np.concatenate([body[config.N - config.C :], body])


def tag_gate(config: SystemConfig, bit: int) -> np.ndarray:
    """Reflection control waveform: bit on n in [Q, C-K-1], zero elsewhere."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    gate = np.zeros(config.frame_len, dtype=np.int8)
    if bit:
        gate[config.Q : config.C - config.K] = 1
    return gate


def tag_receive(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Signal at the tag antenna: causal FIR of the source through g."""
    return _causal_fir(s, g)


def observe_components(s, x, gate, channels: ChannelSet, config: SystemConfig):
    """Noise-free reader components: (direct source path, backscatter path)."""
    if not (len(s) == len(x) == len(gate) == config.frame_len):
        raise ValueError("stream lengths must all equal N+C")
    direct = _causal_fir(s, channels.h)
    backscatter = config.eta * _causal_fir(gate * x, channels.f)
    return direct, backscatter


def simulate_frame(config: SystemConfig, channels: ChannelSet, bit: int, ps: float,
                   gen: np.random.Generator) -> Frame:
    """Build one complete frame at source power ps, its noise realization included.

    Draw order on the stream: source symbol, then reader noise.
    """
    s = generate_source_symbol(config, ps, gen)
    x = tag_receive(s, channels.g)
    gate = tag_gate(config, bit)
    direct, backscatter = observe_components(s, x, gate, channels, config)
    noise = complex_gaussian(gen, config.Nw, config.frame_len)
    return Frame(s=s, x=x, gate=gate, y=direct + backscatter + noise, noise=noise)


def legacy_demodulate(y_clean: np.ndarray, config: SystemConfig) -> np.ndarray:
    """What a legacy OFDM receiver computes: drop the CP, DFT the rest."""
    if len(y_clean) != config.frame_len:
        raise ValueError(f"expected {config.frame_len} samples, got {len(y_clean)}")
    return np.fft.fft(np.asarray(y_clean[config.C :], dtype=np.complex128))
