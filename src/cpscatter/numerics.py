"""Special functions and reproducible random streams.

Channel generation, the chi-square detection densities and the Monte Carlo
trials are built on the primitives in this module. Complex baseband samples
are plain ``numpy.complex128`` values; all public functions return finite
results on their documented domains.

Numerical conventions:
  * the chi-square log densities and h(u) work elementwise on arrays, so
    a detector can evaluate one density per trial in one call;
  * h(u) = log 0F1(; nu+1; u^2/4), the normalized log I_nu, is the one
    Bessel function: the Bessel term of the noncentral density and of the
    log-likelihood ratio, and the closed-form threshold's integral. It comes
    from scipy's ive (hyp0f1 where ive underflows), so nothing overflows,
    and log_bessel_i_bounds brackets it in closed form;
  * random streams are Philox4x64 counter-based generators keyed by
    (seed, stream) pairs, which makes every draw sequence a pure function
    of those two integers on any platform and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp0f1, ive

_LN2 = math.log(2.0)

# below this, scipy's ive is at (or next to) its underflow to zero and
# log_bessel_i_normalized switches to the hyp0f1 form
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


def complex_gaussian(gen: np.random.Generator, variance: float, size: int) -> np.ndarray:
    """Draw `size` circularly symmetric complex Gaussian samples, CN(0, variance).

    Real and imaginary parts are independent N(0, variance/2). With
    variance == 0 the result is exactly zero and the stream is not consumed.
    """
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    if variance == 0.0:
        return np.zeros(size, dtype=np.complex128)
    return gen.standard_normal(2 * size).view(np.complex128) * math.sqrt(variance / 2.0)


def gaussian_q(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Q(x) + Q(-x) = 1 to machine precision; deep tails underflow smoothly
    to 0.0 rather than raising.
    """
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _ratio_integral(a: float, b: float, u):
    """Integral over [0, u] of t / (a + sqrt(t^2 + b^2)) dt, for b >= a >= 0.

    It is e - a log(1 + e / (a + b)) with e = sqrt(u^2 + b^2) - b, and e is
    formed as u (u / (hypot(u, b) + b)): no cancellation at small u and no
    overflow of u^2 at large u. With b == 0 (so a == 0) it is u, not 0/0.
    """
    if b == 0:
        return np.abs(u)
    e = u * (u / (np.hypot(u, b) + b))
    return e - a * np.log1p(e / (a + b))


def log_bessel_i_normalized(nu: float, u):
    """h(u) = log(Gamma(nu+1) (2/u)^nu I_nu(u)) = log 0F1(; nu+1; u^2/4), elementwise.

    For one order nu >= -1/2 (the 1-dof noncentral chi-square needs -1/2)
    and u >= 0 (a scalar gives a float), with h(0) = 0. It is
    log(ive(nu, u)) + u + lnGamma(nu+1) - nu log(u/2) with scipy's scaled
    Bessel function, so large u never overflows; where ive underflows (nu =
    245 at u = 1) it is log(hyp0f1(nu+1, u^2/4)). Where ive is nan (u from
    about 1.07e9) log I_nu(u) is the expansion (DLMF 10.40.1)
        u - log(2 pi u)/2 + log(1 - (mu-1)/(8u) + (mu-1)(mu-9)/(2! (8u)^2)),
    mu = 4 nu^2. Beyond order ~1500 hyp0f1 can overflow, which raises (the
    detector needs <= 245). Where h is far below 1 its error is absolute:
    the rounding of log I_nu (7.6e-15 at nu = 11, u = 1e-6) or hyp0f1's own
    (2.8e-14 at nu = 245, u = 0.049), detector.threshold_for's floor.
    """
    if not nu >= -0.5:
        raise ValueError(f"order must be >= -1/2, got {nu}")
    u = np.asarray(u, dtype=np.float64)
    if (u < 0).any():
        raise ValueError(f"argument must be >= 0, got {u}")
    scaled = ive(nu, u)
    lgam = math.lgamma(nu + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # infinite terms at u == 0
        out = np.log(scaled) + u + lgam - nu * np.log(0.5 * u)
    # ive underflowed or is nan at large u; at u == 0 it is 0, 1 or inf
    odd = ~(scaled >= _IVE_UNDERFLOW) | (u == 0)
    if not odd.any():
        return float(out) if out.ndim == 0 else out
    out = np.array(out, dtype=np.float64)
    out[u == 0] = 0.0
    # ive is nan from u ~ 1.07e9 at every order; there the expansion's next
    # term is below 1e-14 at the detector's orders (<= 245), under an ulp of u
    big = np.isnan(scaled) & (u > 0)
    if big.any():
        u_b = u[big]
        mu = 4.0 * nu * nu
        a1 = (mu - 1.0) / (8.0 * u_b)
        out[big] = ((u_b - 0.5 * np.log(2.0 * math.pi * u_b)
                     + np.log1p(a1 * ((mu - 9.0) / (16.0 * u_b) - 1.0)))
                    + lgam - nu * np.log(0.5 * u_b))
    under = (scaled < _IVE_UNDERFLOW) & (u > 0)
    if under.any():
        u_b = u[under]
        vals = np.log(hyp0f1(nu + 1.0, 0.25 * u_b * u_b))
        if np.isposinf(vals).any():
            raise ValueError(f"h(u) overflows hyp0f1 at order {nu}")
        out[under] = vals
    return float(out) if out.ndim == 0 else out


def log_bessel_i_bounds(nu: float, u):
    """Closed-form bounds (lo, hi) on h(u) = log_bessel_i_normalized(nu, u).

    Elementwise over u >= 0, for orders nu >= -1/2. h(0) = 0 and h'(u) is
    the ratio I_{nu+1}(u) / I_nu(u), which lies between
    u / (nu + 1/2 + sqrt(u^2 + (nu + 3/2)^2)) and
    u / (nu + 1/2 + sqrt(u^2 + (nu + 1/2)^2)) (Amos, Math. Comp. 1974;
    Segura, JMAA 2011; at nu = -1/2 it is tanh u, between u / sqrt(1 + u^2)
    and 1). Each bound integrates in closed form (_ratio_integral), so
    lo <= h(u) <= hi, up to a few ulps of rounding, costs two square roots
    and two logs per element, against one Bessel evaluation for h itself.
    """
    if not nu >= -0.5:
        raise ValueError(f"bounds need order nu >= -1/2, got {nu}")
    a = nu + 0.5
    return _ratio_integral(a, nu + 1.5, u), _ratio_integral(a, a, u)


def bessel_arg(lam, x):
    """u = sqrt(lam x), the noncentral chi-square's Bessel argument, elementwise.

    Broadcasts lam and x; u is 0 where either is <= 0. Where lam * x is
    finite u is sqrt(lam * x) bit for bit; where the product overflows
    (lam x above about 1.8e308) u is sqrt(lam) sqrt(x), so u stays finite
    for every finite lam and x.
    """
    lam = np.asarray(lam, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    nc = (x > 0) & (lam > 0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.sqrt(np.where(nc, lam * x, 0.0))
        big = np.isinf(u)
        if big.any():
            u = np.where(big, np.sqrt(lam) * np.sqrt(x), u)
    return u


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
    x <= 0. It is the central log density plus h(u) - lam/2, with h from
    log_bessel_i_normalized and u from bessel_arg (so lam * x may overflow);
    h(0) = 0 makes lam == 0 the central density bit for bit.
    """
    _check_dof(n)
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    bad = ~((lam >= 0) & (lam < math.inf))
    if bad.any():
        raise ValueError(f"noncentrality must be finite and >= 0, got {lam[bad].flat[0]}")
    h = log_bessel_i_normalized(0.5 * n - 1.0, bessel_arg(lam, x))
    out = log_chi2_pdf(x, n) - 0.5 * lam + h
    return float(out) if np.ndim(out) == 0 else out
