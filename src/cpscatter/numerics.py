"""Special functions, transforms, and reproducible random streams.

Everything downstream (channel generation, the DFT receiver, the chi-square
detection densities, Monte Carlo trials) is built on the primitives in this
module. Complex baseband samples are plain ``numpy.complex128`` values; all
public functions return finite results on their documented domains.

Numerical conventions:
  * the DFT is the unnormalized matrix form, F[p, q] = exp(-2j*pi*p*q/n);
  * the chi-square log densities and log I_r(u) work elementwise on
    arrays, so a detector can evaluate one density per trial in one call;
  * densities with large noncentrality are evaluated in the log domain:
    log I_r(u) = log(ive(r, u)) + u with scipy's exponentially scaled
    Bessel function, and from scipy's hyp0f1 where ive underflows, so
    nothing overflows for noncentralities up to ~1e4 and beyond;
  * random streams are Philox4x64 counter-based generators keyed by
    (seed, stream) pairs, which makes every draw sequence a pure function
    of those two integers on any platform and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, hyp0f1, ive

_LN2 = math.log(2.0)

# below this, scipy's ive is at (or next to) its underflow to zero and
# log_bessel_i switches to the hyp0f1 form
_IVE_UNDERFLOW = 1e-280


@dataclass(frozen=True)
class RngStream:
    """Value identifying one reproducible random stream.

    Identical (seed, stream) pairs always yield the identical sample
    sequence. Streams are single-owner values: derive a fresh stream id per
    trial instead of sharing one generator across consumers.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Materialize the stream as a Philox4x64-backed Generator."""
        return np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        )


def complex_gaussian(gen: np.random.Generator, variance: float, size: int | None = None):
    """Draw circularly symmetric complex Gaussian samples, CN(0, variance).

    Real and imaginary parts are independent N(0, variance/2). With
    variance == 0 the result is exactly zero and the stream is not consumed.
    Returns a complex scalar if size is None, else a 1-D complex array.
    """
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    n = 1 if size is None else int(size)
    if variance == 0.0:
        out = np.zeros(n, dtype=np.complex128)
    else:
        v = gen.standard_normal(2 * n)
        out = v.view(np.complex128) * math.sqrt(variance / 2.0)
    return out[0] if size is None else out


def dft(v) -> np.ndarray:
    """Unnormalized DFT of a 1-D vector, any length.

    Matches the matrix definition sum_q v[q] exp(-2j*pi*p*q/n) with no
    1/sqrt(n) factor; length is preserved.
    """
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("dft expects a non-empty 1-D vector")
    return np.fft.fft(arr)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gaussian_q(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Q(x) + Q(-x) = 1 to machine precision; deep tails underflow smoothly
    to 0.0 rather than raising.
    """
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def log_bessel_i(r, u):
    """log of the modified Bessel function of the first kind, I_r(u).

    Elementwise over arrays (a scalar in gives a float out), for orders
    r >= -1/2 (the 1-dof noncentral chi-square needs -1/2) and u >= 0.
    Evaluated as log(ive(r, u)) + u with scipy's exponentially scaled
    Bessel function, so large u never overflows. Where ive underflows
    (large order, small argument: r = 245 at u = 1) it is
        r log(u/2) - lnGamma(r+1) + log 0F1(; r+1; u^2/4)
    with scipy's hyp0f1, which is near 1 there. Where ive gives nan (u from
    about 1.07e9) it is the large-argument expansion (DLMF 10.40.1)
        u - log(2 pi u)/2 + log(1 - (mu-1)/(8u) + (mu-1)(mu-9)/(2! (8u)^2)),
    mu = 4 r^2. At u == 0 the result is 0
    for r == 0, -inf for r > 0 and +inf for r < 0. Beyond order ~1500 the
    hyp0f1 factor can overflow, which raises (the detector needs <= 245).
    """
    r_arr = np.asarray(r, dtype=np.float64)
    u_arr = np.asarray(u, dtype=np.float64)
    if (r_arr < -0.5).any():
        raise ValueError(f"order must be >= -1/2, got {r}")
    if (u_arr < 0).any():
        raise ValueError(f"argument must be >= 0, got {u}")
    scaled = ive(r_arr, u_arr)
    with np.errstate(divide="ignore"):
        out = np.log(scaled) + u_arr
    # ive underflowed, or is 0 or nan at u == 0, or nan at large u
    under = ~(scaled >= _IVE_UNDERFLOW)
    if not under.any():
        return float(out) if np.ndim(out) == 0 else out
    out = np.array(out, dtype=np.float64)
    # ive is nan from u ~ 1.07e9 at every order; there the expansion's next
    # term is below 1e-14 at the detector's orders (<= 245), under an ulp of u
    big = under & np.isnan(scaled) & (u_arr > 0)
    under &= ~big
    if big.any():
        r_b = np.broadcast_to(r_arr, out.shape)[big]
        u_b = np.broadcast_to(u_arr, out.shape)[big]
        mu = 4.0 * r_b * r_b
        a1 = (mu - 1.0) / (8.0 * u_b)
        out[big] = (u_b - 0.5 * np.log(2.0 * math.pi * u_b)
                    + np.log1p(a1 * ((mu - 9.0) / (16.0 * u_b) - 1.0)))
    if under.any():
        r_b = np.broadcast_to(r_arr, out.shape)[under]
        u_b = np.broadcast_to(u_arr, out.shape)[under]
        with np.errstate(divide="ignore"):
            vals = (r_b * np.log(0.5 * u_b) - gammaln(r_b + 1.0)
                    + np.log(hyp0f1(r_b + 1.0, 0.25 * u_b * u_b)))
        if np.isposinf(vals[r_b > 0]).any():
            raise ValueError(f"log I_r(u) overflows hyp0f1 at order {r_b.max()}")
        out[under] = vals
    return float(out) if np.ndim(out) == 0 else out


def sin_power_integral(w: int) -> float:
    """Integral of exp(cos(theta)) * sin(theta)^(w-2) over [0, pi].

    Appears in the closed-form detection threshold denominator; w >= 2.
    By the Poisson integral of I_nu with nu = (w-2)/2 it equals
    sqrt(pi) Gamma(nu + 1/2) 2^nu I_nu(1), assembled in the log domain.
    """
    if w < 2:
        raise ValueError(f"requires w >= 2, got {w}")
    nu = 0.5 * (w - 2)
    return math.exp(
        0.5 * math.log(math.pi) + math.lgamma(nu + 0.5) + nu * _LN2 + log_bessel_i(nu, 1.0)
    )


def _check_dof(n: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {n}")


def log_chi2_pdf(x, n: int):
    """Log density of the central chi-square with n degrees of freedom.

    Elementwise over x; -inf for x <= 0.
    """
    _check_dof(n)
    x = np.asarray(x, dtype=np.float64)
    hn = 0.5 * n
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -0.5 * x + (hn - 1.0) * np.log(x) - hn * _LN2 - math.lgamma(hn)
    out = np.where(x > 0, out, -np.inf)
    return float(out) if out.ndim == 0 else out


def log_noncentral_chi2_pdf(x, n: int, lam):
    """Log density of the noncentral chi-square (n dof, noncentrality lam).

    Elementwise over x and lam (broadcast; lam finite and >= 0); -inf for
    x <= 0, and the central density where lam == 0. Evaluated as log-gamma /
    log-Bessel combinations so large lam (up to ~1e4 and beyond) neither
    overflows nor underflows prematurely.
    """
    _check_dof(n)
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    bad = ~((lam >= 0) & (lam < math.inf))
    if bad.any():
        raise ValueError(f"noncentrality must be finite and >= 0, got {lam[bad].flat[0]}")
    nc = (x > 0) & (lam > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            -_LN2
            + 0.25 * (n - 2.0) * (np.log(x) - np.log(lam))
            - 0.5 * (x + lam)
            + log_bessel_i(0.5 * n - 1.0, np.sqrt(np.where(nc, lam * x, 0.0)))
        )
    out = np.where(nc, out, log_chi2_pdf(x, n))
    return float(out) if out.ndim == 0 else out
