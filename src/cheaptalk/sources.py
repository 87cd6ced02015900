"""Source distributions and their conditional bin moments.

Solvers, certificates, and dynamics touch a distribution through the
array methods here (bin_probs, bin_means, bin_variances: one value per
bin of an increasing edge array, which may have infinite ends and need
not span the support), plus quantiles and sampling. The scalar interval
methods are the same code on a single bin.

Numerical ground rules:

- every ``exp(s) - 1`` is an ``expm1``, every ``exp(s) + exp(-s) - 2``
  is ``(2*sinh(s/2))**2``, so short intervals do not cancel;
- the Gaussian mean kernel reflects every bin below the origin onto the
  upper side (the mean is odd under t -> -t), so each formula is written
  once; bins that sit entirely in one tail are evaluated through the
  scaled complementary error function, so conditional means stay
  accurate even where the interval probability itself underflows;
- Gaussian conditional variances use adaptive quadrature against a
  tail-normalized conditional density (the mean is closed-form, the
  variance is not treated as such), over the part of the bin where that
  density is within e^-40 of its peak, so long bins whose mass sits in a
  sliver at one end are not missed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erf as _erf_arr
from scipy.special import erfcx as _erfcx
from scipy.special import exprel as _exprel
from scipy.special import ndtri as _ndtri

from .errors import DomainError, QuadratureError, ZeroProbabilityError
from .special import std_normal_cdf, std_normal_pdf

__all__ = ["SourceModel"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"


def _scaled_sf(x):
    """sf(x) / pdf(x) without forming either factor; grows like 1/x."""
    return _SQRT_PI_OVER_2 * _erfcx(x / _SQRT2)


def _exp_gap(length, rate: float):
    """length / (exp(rate*length) - 1) for lengths >= 0, elementwise.

    This is the amount by which truncating an exponential to a window of
    the given length pulls the conditional mean below lo + 1/rate. Written
    through exprel(s) = expm1(s)/s, which is 1 at s = 0 and overflows
    cleanly to inf, so the gap tends to 1/rate as length -> 0 and decays
    to exactly 0 for long and infinite windows.
    """
    return 1.0 / (rate * _exprel(rate * np.asarray(length, dtype=float)))[()]


def _exp_window_variance(length, rate: float):
    """Variance of an exponential conditioned on a window of this length.

    Elementwise; depends on the window only through its length. Uses a
    short-window series below s = 1e-3 because the closed form subtracts
    two nearly equal squares there, and saturates to 1/rate^2 once sinh
    would overflow (the true value is within 1e-300 of that limit).
    """
    length = np.asarray(length, dtype=float)
    s = 0.5 * rate * length
    with np.errstate(over="ignore", invalid="ignore"):
        series = (length * length / 12.0) * (1.0 - 0.2 * s * s)
        half = length / (2.0 * np.sinh(s))
        closed = 1.0 / (rate * rate) - half * half
    return np.where(s < 1e-3, series,
                    np.where(s > 350.0, 1.0 / (rate * rate), closed))[()]


def _std_interval_mean(alpha, beta):
    """Mean of a standard normal conditioned on [alpha, beta], elementwise.

    Endpoints may be infinite. Bins with beta <= 0 and lower half-lines
    are reflected onto the upper side, mean(a, b) = -mean(-b, -a), so
    only upper half-lines, upper same-tail bins and bins straddling the
    origin are evaluated. Same-tail bins go through erfcx so the result
    stays finite and accurate arbitrarily far out; straddling bins use an
    expm1 form for the density difference and a cancellation-free erf sum
    for the mass. Scalars in, scalar out.
    """
    a0 = np.asarray(alpha, dtype=float)
    b0 = np.asarray(beta, dtype=float)
    scalar = a0.ndim == 0 and b0.ndim == 0
    a, b = np.atleast_1d(*np.broadcast_arrays(a0, b0))
    flip = (b <= 0.0) | (np.isneginf(a) & ~np.isposinf(b))
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    out = np.full(a.shape, np.nan)
    upper = np.isposinf(b)
    if upper.any():
        # upper Mills ratio; erfcx overflow to inf gives the correct 0
        # limit, and exactly 0 on the whole line (a = -inf)
        out[upper] = (1.0 / _SQRT_PI_OVER_2) / _erfcx(a[upper] / _SQRT2)
    right = ~upper & (a >= 0.0)
    if right.any():
        va, vb = a[right], b[right]
        d = 0.5 * (vb - va) * (vb + va)
        den = _scaled_sf(va) - np.exp(-d) * _scaled_sf(vb)
        num = -np.expm1(-d)
        ok = den > 0.0
        out[right] = np.where(ok, num / np.where(ok, den, 1.0),
                              0.5 * (va + vb))
    strad = ~upper & (a < 0.0)
    if strad.any():
        va, vb = a[strad], b[strad]
        d = 0.5 * (vb - va) * (vb + va)
        phi_a = np.exp(-0.5 * va * va) / _SQRT_2PI
        phi_b = np.exp(-0.5 * vb * vb) / _SQRT_2PI
        # pdf(a) - pdf(b) = pdf(b)*expm1(d); direct difference once |d|
        # is large enough that nothing cancels
        num = np.where(np.abs(d) <= 1.0,
                       phi_b * np.expm1(np.clip(d, -1.0, 1.0)),
                       phi_a - phi_b)
        den = 0.5 * (_erf_arr(vb / _SQRT2) + _erf_arr(-va / _SQRT2))
        ok = den > 0.0
        out[strad] = np.where(ok, num / np.where(ok, den, 1.0),
                              0.5 * (va + vb))
    out = np.where(flip, -out, out)
    return float(out[0]) if scalar else out.reshape(np.broadcast(a0, b0).shape)


def _std_window(za, zb):
    """The part of [za, zb] that carries a standard normal's conditional
    mass there, elementwise: each far end is cut where the conditional
    density has fallen below e^-40 of its peak, min(9, 40/|n|) past the
    bin's point n nearest the origin. Quadrature over a whole long or
    half-infinite bin can miss a mass that sits in a sliver at one end.
    """
    near = np.minimum(np.maximum(za, 0.0), zb)
    reach = 40.0 / np.maximum(np.abs(near), 40.0 / 9.0)
    return np.maximum(za, near - reach), np.minimum(zb, near + reach)


def _std_conditional(za: float, zb: float):
    """Density of a standard normal conditioned on [za, zb].

    The normalizer is evaluated in the same tail-stable way as the mean,
    so the returned callable is usable arbitrarily deep in a tail.
    """
    if za >= 0.0:
        if math.isinf(zb):
            tail = 0.0
        else:
            tail = (math.exp(-0.5 * (zb - za) * (zb + za))
                    * float(_scaled_sf(zb)))
        den = float(_scaled_sf(za)) - tail
        if den <= 0.0:
            raise ZeroProbabilityError(
                f"interval [{za}, {zb}] carries no representable mass")

        def cond(t: float) -> float:
            return math.exp(-0.5 * (t - za) * (t + za)) / den

        return cond
    if zb <= 0.0:
        flipped = _std_conditional(-zb, -za)
        return lambda t: flipped(-t)
    lo_mass = 1.0 if math.isinf(za) else math.erf(-za / _SQRT2)
    hi_mass = 1.0 if math.isinf(zb) else math.erf(zb / _SQRT2)
    p = 0.5 * (lo_mass + hi_mass)

    def cond(t: float) -> float:
        return std_normal_pdf(t) / p

    return cond


@dataclass(frozen=True)
class SourceModel:
    """A scalar source prior: exponential(rate) on [0, inf) or
    Gaussian(mean, std) on the whole line.

    Build instances through the classmethods; field combinations are
    validated at construction and the value is immutable afterwards.
    """

    kind: str
    rate: float | None = None
    mean: float | None = None
    std: float | None = None

    def __post_init__(self) -> None:
        if self.kind == EXPONENTIAL:
            if self.rate is None or not math.isfinite(self.rate) or self.rate <= 0.0:
                raise DomainError("exponential source requires a finite rate > 0")
            if self.mean is not None or self.std is not None:
                raise DomainError("mean/std do not apply to an exponential source")
        elif self.kind == GAUSSIAN:
            if self.rate is not None:
                raise DomainError("rate does not apply to a Gaussian source")
            if self.mean is None or not math.isfinite(self.mean):
                raise DomainError("Gaussian source requires a finite mean")
            if self.std is None or not math.isfinite(self.std) or self.std <= 0.0:
                raise DomainError("Gaussian source requires a finite std > 0")
        else:
            raise DomainError(f"unknown source kind {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float) -> "SourceModel":
        return cls(kind=EXPONENTIAL, rate=float(rate))

    @classmethod
    def gaussian(cls, mean: float = 0.0, std: float = 1.0) -> "SourceModel":
        return cls(kind=GAUSSIAN, mean=float(mean), std=float(std))

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == EXPONENTIAL:
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    @property
    def expected_value(self) -> float:
        return 1.0 / self.rate if self.kind == EXPONENTIAL else self.mean

    @property
    def variance(self) -> float:
        if self.kind == EXPONENTIAL:
            return 1.0 / (self.rate * self.rate)
        return self.std * self.std

    def describe(self) -> dict:
        """Plain-dict parameter summary, used by serialization."""
        if self.kind == EXPONENTIAL:
            return {"kind": self.kind, "rate": self.rate}
        return {"kind": self.kind, "mean": self.mean, "std": self.std}

    def pdf(self, x: float) -> float:
        if self.kind == EXPONENTIAL:
            if x < 0.0:
                return 0.0
            return self.rate * math.exp(-self.rate * x)
        z = (x - self.mean) / self.std
        return std_normal_pdf(z) / self.std

    def cdf(self, x: float) -> float:
        if self.kind == EXPONENTIAL:
            if x <= 0.0:
                return 0.0
            return -math.expm1(-self.rate * x)
        return std_normal_cdf((x - self.mean) / self.std)

    def quantile(self, q: float) -> float:
        """Inverse cdf; q=0 and q=1 map to the support endpoints."""
        if math.isnan(q) or not 0.0 <= q <= 1.0:
            raise DomainError(f"quantile level must lie in [0, 1], got {q!r}")
        lo, hi = self.support
        if q == 0.0:
            return lo
        if q == 1.0:
            return hi
        if self.kind == EXPONENTIAL:
            return -math.log1p(-q) / self.rate
        return self.mean + self.std * float(_ndtri(q))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == EXPONENTIAL:
            return rng.exponential(scale=1.0 / self.rate, size=size)
        return rng.normal(loc=self.mean, scale=self.std, size=size)

    # -- interval operations ------------------------------------------------

    def _check_interval(self, lo: float, hi: float) -> None:
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise DomainError(
                f"interval endpoints must satisfy lo < hi, got [{lo}, {hi}]")

    def _bin_edges(self, edges) -> np.ndarray:
        e = np.asarray(edges, dtype=float)
        if (e.ndim != 1 or e.size < 2
                or np.count_nonzero(e[1:] > e[:-1]) < e.size - 1):
            raise DomainError(
                f"bin edges must be a strictly increasing sequence of at "
                f"least two values, got {edges!r}")
        return e

    def _exp_windows(self, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and in-support length of each exponential bin."""
        if e[1] <= 0.0:
            raise ZeroProbabilityError(
                f"[{e[0]}, {e[1]}] lies outside the exponential support")
        a = np.maximum(e, 0.0)
        return a[:-1], a[1:] - a[:-1]

    def bin_probs(self, edges) -> np.ndarray:
        """P(e_k < M < e_{k+1}) for every bin of an increasing edge array.

        Bins outside the support get 0. Gaussian bins use whichever of
        the two tails or the central erf sum avoids cancellation.
        """
        e = self._bin_edges(edges)
        if self.kind == EXPONENTIAL:
            a = np.maximum(e, 0.0)
            return np.exp(-self.rate * a[:-1]) * -np.expm1(
                -self.rate * (a[1:] - a[:-1]))
        z = (e - self.mean) / (self.std * _SQRT2)
        # (a, b) is the bin folded onto the upper half-line; a < 0 exactly
        # when the bin straddles the mean. Same-tail bins factor exp(-a^2)
        # out of erfc(a) - erfc(b), so short and deep-tail bins stay exact.
        a = np.maximum(z[:-1], -z[1:])
        b = np.maximum(z[1:], -z[:-1])
        c = np.maximum(a, 0.0)
        tail = np.exp(-c * c) * (
            _erfcx(c) - np.exp(-(b - c) * (b + c)) * _erfcx(b))
        return 0.5 * np.where(a >= 0.0, tail, _erf_arr(b) - _erf_arr(a))

    def bin_means(self, edges) -> np.ndarray:
        """E[M | e_k <= M <= e_{k+1}] for every bin, valid deep in either tail.

        Raises ZeroProbabilityError only when a bin misses the support;
        same-tail Gaussian bins stay well-defined even where their
        probability underflows.
        """
        e = self._bin_edges(edges)
        if self.kind == EXPONENTIAL:
            start, length = self._exp_windows(e)
            return start + 1.0 / self.rate - _exp_gap(length, self.rate)
        z = (e - self.mean) / self.std
        return self.mean + self.std * _std_interval_mean(z[:-1], z[1:])

    def bin_variances(self, edges) -> np.ndarray:
        """Var(M | e_k <= M <= e_{k+1}) for every bin.

        Exponential bins have a closed form in their in-support length;
        Gaussian bins take one quad each against the tail-normalized
        conditional density, centered on the closed-form mean.
        """
        e = self._bin_edges(edges)
        if self.kind == EXPONENTIAL:
            return _exp_window_variance(self._exp_windows(e)[1], self.rate)
        z = (e - self.mean) / self.std
        means = _std_interval_mean(z[:-1], z[1:]).tolist()
        cut_lo, cut_hi = _std_window(z[:-1], z[1:])
        out = []
        for k, (za, zb, m, lo, hi) in enumerate(zip(
                z[:-1].tolist(), z[1:].tolist(), means, cut_lo.tolist(),
                cut_hi.tolist())):
            if math.isinf(za) and math.isinf(zb):
                out.append(1.0)
                continue
            cond = _std_conditional(za, zb)
            val, err = quad(lambda t: (t - m) ** 2 * cond(t), lo, hi,
                            epsabs=1e-13, epsrel=1e-11, limit=200)
            if not math.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
                raise QuadratureError(
                    f"conditional variance quadrature on [{e[k]}, {e[k + 1]}] "
                    f"reported error {err:.3e}")
            out.append(max(val, 0.0))
        return np.array(out) * self.std * self.std

    def interval_prob(self, lo: float, hi: float) -> float:
        """P(lo < M < hi). Intervals outside the support return 0."""
        self._check_interval(lo, hi)
        return float(self.bin_probs((lo, hi))[0])

    def truncated_mean(self, lo: float, hi: float) -> float:
        """E[M | lo <= M <= hi]; see bin_means."""
        self._check_interval(lo, hi)
        return float(self.bin_means((lo, hi))[0])

    def truncated_variance(self, lo: float, hi: float) -> float:
        """Var(M | lo <= M <= hi); see bin_variances."""
        self._check_interval(lo, hi)
        return float(self.bin_variances((lo, hi))[0])

    def quadrature_moment(self, lo: float, hi: float, power: int) -> float:
        """E[M**power | lo <= M <= hi] by adaptive quadrature, power 1 or 2.

        Independent slow path used by tests and verification; it shares no
        closed forms with truncated_mean/variance. Gaussian windows are
        cut where the conditional density falls below e^-40 of its peak
        (the window bin_variances integrates over), leaving residual mass
        far below the 1e-10 target; exponential windows are cut 42
        mean-lengths in.
        """
        if power not in (1, 2):
            raise DomainError(f"power must be 1 or 2, got {power!r}")
        self._check_interval(lo, hi)
        if self.kind == EXPONENTIAL:
            lam = self.rate
            if hi <= 0.0:
                raise ZeroProbabilityError(
                    f"[{lo}, {hi}] lies outside the exponential support")
            a = max(lo, 0.0)
            b = min(hi, a + 42.0 / lam)
            if math.isinf(hi):
                norm = 1.0
            else:
                norm = -math.expm1(-lam * (hi - a))

            def integrand(x: float) -> float:
                return x ** power * lam * math.exp(-lam * (x - a)) / norm

            val, err = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12,
                            limit=300)
        else:
            za = (lo - self.mean) / self.std
            zb = (hi - self.mean) / self.std
            z_lo, z_hi = (float(v) for v in _std_window(za, zb))
            cond = _std_conditional(za, zb)
            mu, sd = self.mean, self.std

            def integrand(t: float) -> float:
                return (mu + sd * t) ** power * cond(t)

            val, err = quad(integrand, z_lo, z_hi, epsabs=1e-12, epsrel=1e-12,
                            limit=300)
        if not math.isfinite(val) or err > 1e-10 * max(1.0, abs(val)):
            raise QuadratureError(
                f"moment quadrature on [{lo}, {hi}] reported error {err:.3e}")
        return val
