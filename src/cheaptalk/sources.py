"""Source distributions and their conditional bin moments.

Solvers, certificates, and dynamics touch a distribution through the
array methods here (bin_probs, bin_means, bin_variances: one value per
bin of an increasing edge array, which may have infinite ends and need
not span the support, or one row of values per row of a 2-D array of
such edges), plus quantiles and sampling. The scalar interval
methods are the same code on a single bin. The Newton loop's restart
blocks, which keep their edges increasing, read means alone through the
unchecked _bin_means; a Partition fills its record of all three moments
once, on first use, from one _bin_moments call, which forms a mass or a
variance only when it is read. A dynamics run works in the frame its
family's kernel works in, z = (x - offset)/scale with (offset, scale) =
_frame: std units for a Gaussian, x itself for an exponential. It reads
its means there through _frame_means, which forms means and nothing
else: near + E[u] from one _std_rule pass, or _exp_window_mean on edges
that start at the support's 0, with no clamp. So no step maps edges or
means between x and the frame, builds a closure or forms a mass. Every edge
sequence, a Partition's too, passes one check, _bin_edges, and an edge
that is not a number fails it as one out of order does.

Numerical ground rules:

- every ``exp(s) - 1`` is an ``expm1``, every ``exp(s) + exp(-s) - 2``
  is ``(2*sinh(s/2))**2``, so short intervals do not cancel;
- a Gaussian source has one bin kernel: a fixed Gauss-Legendre rule
  (_std_rule), run in each bin's own frame and with no per-bin loop.
  Bins are read reflected to za + zb >= 0, so reflection is exact, and
  one pass returns unsigned pieces: the reflection mask, near, the
  rule's integral, E[u] and the weighted nodes. Each reader signs only
  what it reads, negating where the bin was reflected: _frame_means
  forms the dynamics' means near + E[u] in std units;
  SourceModel._bin_moments forms means, and masses and variances only
  for a caller that asks (the Newton loop's restart blocks read means
  alone, bin_probs masses, bin_variances variances, a Partition record
  all three), none of which a reflection changes, so the variance is
  taken about the unsigned E[u]; _std_interval_slopes signs near and
  E[u] and gives the means and edge slopes of the mean from which the
  Newton solve loop builds its residual and Jacobian (both ends in one
  stacked pass, with no np.errstate: ends cut 40 std out have slope
  exactly 0, so no step overflows or forms 0 * inf). The mass is
  pdf(near) times an integral of exp(-u^2/2 - u*near) <= 1, so nothing
  cancels on short bins, and the mean near + E[u] stays accurate where
  the mass itself underflows. It is good to a few ulps on bins down to
  1e-12 wide and out to |z| = 1e5, and its window keeps means and
  variances right past |z| = 1e100. Adaptive quadrature serves only the
  independent oracle quadrature_moment.

Every runtime path runs on numpy alone. Only the oracle
quadrature_moment needs scipy (scipy.integrate, imported on its first
call), which the package's test extra installs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ZeroProbabilityError
from .special import std_normal_cdf, std_normal_pdf, std_normal_quantile

__all__ = ["SourceModel"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# _exp_gap clamps rate*length to [_TINY, _EXPM1_MAX]: expm1 stays finite
# up to log(DBL_MAX) = 709.7827. _std_interval_slopes cuts its end offsets
# to [_END_MIN, _END_MAX]. All are 0-d arrays because numpy takes those
# as ufunc operands faster than Python floats (0.9 against 1.3 us).
_TINY = np.array(1e-300)
_EXPM1_MAX = np.array(709.78)
_END_MIN, _END_MAX = np.array(-40.0), np.array(40.0)
_NORMAL_MIN = np.finfo(float).tiny

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"


def _exp_gap(s, rate: float):
    """length / (exp(rate*length) - 1) for lengths >= 0, elementwise,
    given s = rate*length, which the caller has formed already.

    This is the amount by which truncating an exponential to a window of
    the given length pulls the conditional mean below lo + 1/rate. Written
    as (1/rate)/exprel(s), exprel(s) = expm1(s)/s, with s clamped to
    [_TINY, _EXPM1_MAX] so that no step divides 0 by 0 or overflows: at
    length 0 the gap is exactly 1/rate (expm1 is exact on tiny s), and
    past the clamp, where it is below 4e-306, it is set to exactly 0.
    This kernel runs in every exponential Lloyd step, and the same limits
    written with np.where and np.errstate took twice as long.
    """
    t = np.minimum(np.maximum(s, _TINY), _EXPM1_MAX)
    return (1.0 / rate) / (np.expm1(t) / t) * (s < _EXPM1_MAX)


def _exp_window_mean(start, length, rate: float):
    """Mean of an exponential conditioned on [start, start + length],
    elementwise, for windows inside the support (start >= 0):
    start + 1/rate - _exp_gap(rate*length)."""
    return start + 1.0 / rate - _exp_gap(rate * length, rate)


# (sinh(s) - s)/s = sum_k s^(2k)/(2k+1)!, k = 1..9, as Horner reads it in
# s^2; for s <= 1 the terms left out sum to under half an ulp
_SINH_EXCESS = tuple(1.0 / math.factorial(2 * k + 1) for k in range(9, 0, -1))


def _exp_window_variance(length, rate: float):
    """Variance of an exponential conditioned on a window of this length.

    Elementwise; depends on the window only through its length. With
    s = rate*length/2 and d = 1 - s/sinh(s) it is d*(2 - d)/rate^2, the
    closed form (1 - (s/sinh(s))^2)/rate^2 with no difference of nearly
    equal squares. Below s = 1, d = q/(1 + q) with q = (sinh(s) - s)/s
    from its series, so d keeps every digit as s -> 0 (the series reads s
    clamped to 1, so long and infinite windows form no inf or NaN there).
    Past s = 350, where sinh nears overflow, d is exactly 1: the true
    variance is within 1e-300 of 1/rate^2. It divides by the rate twice,
    since rate^2 underflows below rate = 1.5e-154; a variance past DBL_MAX
    is inf, under the same np.errstate, so it warns on no stream. Below
    s = 1.5e-154, where s^2 is subnormal or 0 and q loses its digits, the
    variance is (length/2)^2 times 2*q/s^2, the series read without its
    last factor s^2, so nothing underflows however small the rate.
    """
    length = np.asarray(length, dtype=float)
    s = 0.5 * rate * length
    t2 = np.minimum(s, 1.0) ** 2
    series = 0.0
    for coeff in _SINH_EXCESS:
        series = series * t2 + coeff
    q = series * t2
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.where(s < 1.0, q / (1.0 + q),
                     np.where(s > 350.0, 1.0, 1.0 - s / np.sinh(s)))
        half = 0.5 * length
        # where s^2 is not normal, 1 + q is 1 and d*(2 - d) is 2*q
        return np.where(t2 < _NORMAL_MIN, half * (half * (2.0 * series)),
                        d * (2.0 - d) / rate / rate)[()]


def _std_interval_slopes(alpha, beta):
    """Standard normal conditional mean on each bin [alpha, beta] and its
    slopes in the two edges, elementwise over arrays: (mean,
    pdf(alpha)*(mean - alpha)/Z, pdf(beta)*(beta - mean)/Z), Z the bin's
    mass.

    Z, the mean and both densities come from one _std_rule pass in the
    bin's own frame; this reader signs the pass's near and E[u] where the
    bin was reflected, and then pdf(end)/Z = g(end - near)/integral of g,
    g(u) = exp(u*(-u/2 - near)) <= exp(-u^2/2). Both ends go through one
    (2, bins) pass of that arithmetic, each cut to 40 from near: past
    that g < exp(-800) rounds to 0, so a far or infinite end has slope
    exactly 0 and nothing overflows or forms 0 * inf, hence no
    RuntimeWarning.
    """
    flip, near, mass, mean, _ = _std_rule(alpha, beta)
    np.negative(near, out=near, where=flip)
    np.negative(mean, out=mean, where=flip)
    ends = np.empty((2, *near.shape))
    np.subtract(alpha, near, out=ends[0])
    np.subtract(beta, near, out=ends[1])
    np.minimum(np.maximum(ends, _END_MIN, out=ends), _END_MAX, out=ends)
    span = np.empty_like(ends)
    np.subtract(mean, ends[0], out=span[0])
    np.subtract(ends[1], mean, out=span[1])
    slopes = np.exp(ends * (-0.5 * ends - near)) * span / mass
    return near + mean, slopes[0], slopes[1]


def _std_window(za, zb):
    """The part of [za, zb] that carries a standard normal's conditional
    mass there, elementwise, for bins already reflected to za + zb >= 0:
    (near, lo, hi), near = max(za, 0) >= 0 the bin's point nearest the
    origin, and lo <= 0 <= hi the window's ends as offsets from near,
    each far end cut where the conditional density has fallen below e^-50
    of its peak, min(10, 50/near) past near. A rule over a whole long or
    half-infinite bin can miss a mass that sits in a sliver at one end.
    The variance weights the cut tail by about the square of its
    distance, so a cut at e^-40 still moved deep half-line variances by
    5e-15. The offsets are never formed as near + reach, which rounds to
    near once reach is below half an ulp of near (near past about 6.7e8).
    """
    near = np.maximum(za, 0.0)
    reach = 50.0 / np.maximum(near, 5.0)
    return near, np.maximum(za - near, -reach), np.minimum(zb - near, reach)


# The 48-point Gauss-Legendre rule on [-1, 1]: its positive nodes and
# their weights, correctly rounded (scripts/gauss_legendre_nodes.py).
_GL_HALF = ((
    0.03238017096286936, 0.0970046992094627, 0.1612223560688917,
    0.22476379039468905, 0.28736248735545555, 0.34875588629216075,
    0.4086864819907167, 0.4669029047509584, 0.523160974722233,
    0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426,
    0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
    0.9313866907065543, 0.9529877031604309, 0.9705915925462473,
    0.9841245837228269, 0.9935301722663508, 0.9987710072524261,
), (
    0.06473769681268392, 0.06446616443595009, 0.06392423858464819,
    0.06311419228625402, 0.062039423159892665, 0.06070443916589388,
    0.059114839698395635, 0.057277292100403214, 0.055199503699984165,
    0.05289018948519367, 0.05035903555385447, 0.04761665849249048,
    0.04467456085669428, 0.04154508294346475, 0.03824135106583071,
    0.03477722256477044, 0.03116722783279809, 0.027426509708356948,
    0.02357076083932438, 0.01961616045735553, 0.015579315722943849,
    0.01147723457923454, 0.0073275539012762625, 0.0031533460523058385,
))
_GL_X = np.concatenate((-np.array(_GL_HALF[0][::-1]), _GL_HALF[0]))
_GL_W = np.concatenate((_GL_HALF[1][::-1], _GL_HALF[1]))


def _std_rule(za, zb):
    """Standard normal bins [za, zb] by the fixed Gauss-Legendre rule,
    elementwise over arrays, unsigned: (flip, near, integral of g, E[u],
    nodes), nodes the pair (u, weights) that a variance reduces.

    Bins with za + zb < 0 (flip) are evaluated reflected, as [-zb, -za],
    so reflection is exact. The rule runs over each reflected bin's
    _std_window in the bin's own frame u = t - near, where the density
    relative to pdf(near) is g(u) = exp(-u^2/2 - u*near) <= 1. So the
    bin's mass is pdf(near) times the integral, its mean near + E[u] and
    its variance Var u, with nothing cancelling on short bins or deep in
    a tail. Nothing here is signed: near >= 0 and E[u] are the reflected
    bin's, and each reader negates only what it reads, where flip is set.
    A mass and a variance are the same on a bin and its reflection, so
    they are formed from the unsigned pieces. The nodes, the exponent
    and the weights are formed in place, in three arrays of the nodes'
    shape.
    """
    nza, nzb = -za, -zb
    flip = za < nzb
    near, lo, hi = _std_window(np.maximum(za, nzb), np.maximum(zb, nza))
    lo, hi = lo[..., None], hi[..., None]
    half = 0.5 * (hi - lo)
    u = half * _GL_X
    u += 0.5 * (hi + lo)
    g = -0.5 * u
    g *= u
    w = u * near[..., None]
    g -= w
    np.exp(g, out=g)
    np.multiply(half, _GL_W, out=w)
    w *= g
    mass = w.sum(axis=-1)
    np.multiply(w, u, out=g)
    eu = g.sum(axis=-1)
    eu /= mass
    return flip, near, mass, eu, (u, w)


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
            return 1.0 / self.rate / self.rate
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
        return self.mean + self.std * std_normal_quantile(q)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == EXPONENTIAL:
            return rng.exponential(scale=1.0 / self.rate, size=size)
        return rng.normal(loc=self.mean, scale=self.std, size=size)

    # -- interval operations ------------------------------------------------

    def _bin_edges(self, edges) -> np.ndarray:
        """edges as a float array after the checks every bin method makes:
        one increasing edge sequence, or a 2-D array with one per row."""
        try:
            e = np.asarray(edges, dtype=float)
        except (TypeError, ValueError):  # an edge that is not a number
            e = None
        # every adjacent pair must increase (NaN, and so None, fails); a
        # row of k edges has k - 1 pairs
        if (e is None or e.ndim not in (1, 2) or e.shape[-1] < 2
                or np.count_nonzero(e[..., 1:] > e[..., :-1])
                < e.size - e.size // e.shape[-1]):
            raise DomainError(
                f"bin edges must be a strictly increasing sequence of at "
                f"least two values, got {edges!r}")
        return e

    def _check_support(self, e: np.ndarray) -> None:
        """Conditional moments need every bin to meet the support; with
        increasing edges only an exponential's first bin can miss it."""
        if self.kind != EXPONENTIAL:
            return
        row = e if e.ndim == 1 else e[e[:, 1].argmin()]
        if row[1] <= 0.0:
            raise ZeroProbabilityError(
                f"[{row[0]}, {row[1]}] lies outside the exponential support")

    def bin_probs(self, edges) -> np.ndarray:
        """P(e_k < M < e_{k+1}) for every bin of an increasing edge array.

        A 2-D array holds one edge sequence per row and gives one row of
        probabilities each, equal bit for bit to the call on that row.
        Bins outside the support get 0. Gaussian bins take the fixed
        rule of _std_rule, as their means and variances do. Each mass is
        good to a few ulps and none is renormalised, so the masses of n
        bins covering the line sum to 1 only within about n ulps: the two
        half-lines (-inf, 0, inf) give 1 + 2^-52.
        """
        return self._bin_moments(self._bin_edges(edges))[0]()

    def bin_means(self, edges) -> np.ndarray:
        """E[M | e_k <= M <= e_{k+1}] for every bin, valid deep in either tail.

        Takes one edge sequence or a 2-D array of them, as bin_probs.
        Raises ZeroProbabilityError only when a bin misses the support;
        same-tail Gaussian bins stay well-defined even where their
        probability underflows.
        """
        e = self._bin_edges(edges)
        self._check_support(e)
        return self._bin_means(e)

    def _bin_means(self, e: np.ndarray) -> np.ndarray:
        """bin_means on edges that are already checked: all that a
        restart block reads."""
        return self._bin_moments(e)[1]

    @property
    def _frame(self) -> tuple[float, float]:
        """(offset, scale) of the frame z = (x - offset)/scale that this
        family's bin kernel works in: std units for a Gaussian, as in
        _std_rule, and x itself for an exponential, whose _exp_gap forms
        rate*length on its own."""
        if self.kind == EXPONENTIAL:
            return 0.0, 1.0
        return self.mean, self.std

    def _frame_means(self, z: np.ndarray) -> np.ndarray:
        """Bin means in the frame of _frame, on checked edges z in that
        frame whose first edge is at or inside the support: all that a
        dynamics step reads, and nothing more. A Gaussian's are
        near + E[u] from one _std_rule pass, negated where the bin was
        reflected, with no map to x and back; an exponential's are
        _exp_window_mean on the edges as they are, with no clamp at 0."""
        start = z[..., :-1]
        if self.kind == EXPONENTIAL:
            return _exp_window_mean(start, z[..., 1:] - start, self.rate)
        flip, near, _, means, _ = _std_rule(start, z[..., 1:])
        means += near
        return np.negative(means, out=means, where=flip)

    def _bin_moments(self, e: np.ndarray):
        """(probs, means, variances) on edges that are already checked:
        means an array, probs and variances functions that form them when
        called, so a caller forms only what it reads.

        An exponential bin takes the closed forms of its window, clamped
        to the support. A Gaussian source takes all three from one
        _std_rule pass: the mass is pdf(near) times the rule's integral,
        the mean near + E[u], negated where the bin was reflected, in std
        units, and the variance Var u about the unsigned E[u], so masses
        and variances need no sign. pdf(near) takes near capped at 40,
        past which it is exactly 0 anyway, so near^2 cannot overflow. A
        mass that rounds above 1, as on bins reaching far below the mean
        up to +inf, is 1. The whole line, which only a row of two edges
        can hold, gives exactly (1, mean, std**2)."""
        if self.kind == EXPONENTIAL:
            a = np.maximum(e, 0.0)
            start, length = a[..., :-1], a[..., 1:] - a[..., :-1]
            return (lambda: (np.exp(-self.rate * start)
                             * -np.expm1(-self.rate * length)),
                    _exp_window_mean(start, length, self.rate),
                    lambda: _exp_window_variance(length, self.rate))
        z = (e - self.mean) / self.std
        za, zb = z[..., :-1], z[..., 1:]
        flip, near, mass, eu, (u, w) = _std_rule(za, zb)
        means = near + eu
        np.negative(means, out=means, where=flip)
        sd2 = self.std * self.std
        whole = np.isinf(za) & np.isinf(zb) if z.shape[-1] == 2 else None

        def probs() -> np.ndarray:
            capped = np.minimum(near, 40.0)
            p = np.minimum(mass * np.exp(-0.5 * capped * capped) / _SQRT_2PI,
                           1.0)
            return p if whole is None else np.where(whole, 1.0, p)

        def variances() -> np.ndarray:
            var = (w * (u - eu[..., None]) ** 2).sum(axis=-1) / mass * sd2
            return var if whole is None else np.where(whole, sd2, var)

        return probs, self.mean + self.std * means, variances

    def bin_variances(self, edges) -> np.ndarray:
        """Var(M | e_k <= M <= e_{k+1}) for every bin, of one edge sequence
        or of each row of a 2-D array, as bin_probs.

        Exponential bins have a closed form in their in-support length,
        Gaussian bins the fixed rule of _std_rule, all in one pass; the
        whole line gives exactly std**2. Nothing here raises
        QuadratureError; only the quadrature_moment oracle can.
        """
        e = self._bin_edges(edges)
        self._check_support(e)
        return self._bin_moments(e)[2]()

    def interval_prob(self, lo: float, hi: float) -> float:
        """P(lo < M < hi). Intervals outside the support return 0."""
        return float(self.bin_probs((lo, hi))[0])

    def truncated_mean(self, lo: float, hi: float) -> float:
        """E[M | lo <= M <= hi]; see bin_means."""
        return float(self.bin_means((lo, hi))[0])

    def truncated_variance(self, lo: float, hi: float) -> float:
        """Var(M | lo <= M <= hi); see bin_variances (no quadrature)."""
        return float(self.bin_variances((lo, hi))[0])

    def quadrature_moment(self, lo: float, hi: float, power: int) -> float:
        """E[M**power | lo <= M <= hi] by adaptive quadrature, power 1 or 2.

        Independent slow path used by tests and verification; it shares no
        closed form or rule with truncated_mean/variance. Gaussian bins are
        integrated over their _std_window in the shifted variable
        u = z - near, reflected to za + zb >= 0 as the rule's are: the
        integrals of u^k * pdf(near + u)/pdf(near) give E[u] and E[u^2],
        a reflected bin negates near and E[u], and the raw moment is built
        from near, E[u] and E[u^2], so nothing is lost to a large near.
        Exponential windows are cut 42 mean-lengths in. Needs scipy, which
        only the test extra installs (pip install cheaptalk[test]).
        """
        from scipy.integrate import quad

        if power not in (1, 2):
            raise DomainError(f"power must be 1 or 2, got {power!r}")
        self._check_support(self._bin_edges((lo, hi)))

        def integral(f, a: float, b: float, scale: float) -> float:
            val, err = quad(f, a, b, epsabs=1e-12 * scale, epsrel=1e-12,
                            limit=300)
            if not math.isfinite(val) or err > 1e-10 * max(scale, abs(val)):
                raise QuadratureError(
                    f"moment quadrature on [{lo}, {hi}] reported error {err:.3e}")
            return val

        if self.kind == EXPONENTIAL:
            lam = self.rate
            a = max(lo, 0.0)
            b = min(hi, a + 42.0 / lam)
            if math.isinf(hi):
                norm = 1.0
            else:
                norm = -math.expm1(-lam * (hi - a))

            def integrand(x: float) -> float:
                return x ** power * lam * math.exp(-lam * (x - a)) / norm

            return integral(integrand, a, b, 1.0)
        za, zb = (lo - self.mean) / self.std, (hi - self.mean) / self.std
        sign = -1.0 if za + zb < 0.0 else 1.0
        near, u_lo, u_hi = (float(v) for v in _std_window(
            *sorted((sign * za, sign * zb))))
        mass = integral(lambda u: math.exp(-u * (near + 0.5 * u)), u_lo, u_hi,
                        0.0)
        reach = max(-u_lo, u_hi)
        eu = [integral(lambda u: u ** k * math.exp(-u * (near + 0.5 * u)),
                       u_lo, u_hi, mass * reach ** k) / mass
              for k in range(1, power + 1)]
        near, eu[0] = sign * near, sign * eu[0]
        shift = self.mean + self.std * near
        if power == 1:
            return shift + self.std * eu[0]
        return shift * shift + self.std * (2.0 * shift * eu[0] + self.std * eu[1])
