"""Source distributions and their conditional bin moments.

Solvers, certificates, and dynamics touch a distribution through the
array methods here (bin_probs, bin_means, bin_variances: one value per
bin of an increasing edge array, or one row of values per row of a 2-D
array of them), plus quantiles and sampling; the scalar interval
methods are the same code on one bin. Every edge sequence, a
Partition's too, passes one check, _bin_edges. Inside the package each
loop then has one reader of checked edges:

- _frame_means, the means alone, in the kernel's frame: each dynamics
  step and each restart block of the Newton loop;
- _std_interval_slopes, the means and their slopes in the edges: each
  Newton iterate;
- _bin_moments, (probs, means, variances) as arrays from one kernel
  call: a Partition's record and the three public array methods.

The kernel's frame is std units, z = (x - mean)/std, for a Gaussian, and
x itself for an exponential. One pair of methods, _to_frame and
_from_frame, maps edges and means between x and that frame; no other
code does, and a length (a bias, a tol) is divided by the frame's scale
once.

Numerical ground rules:

- every ``exp(s) - 1`` is an ``expm1``;
- an exponential bin's mean offset past its start, _exp_window_mean,
  and its variance, _exp_window_variance, are its in-support length l
  times a Bernoulli series in s = rate*l on short windows, so nothing
  cancels or is divided by the rate there, subnormal s included, and a
  clamped closed form in s above, 1/rate and 1/rate^2 on infinite ones;
- a Gaussian source has one bin kernel, the fixed Gauss-Legendre rule
  of _std_rule, run in each bin's own frame with no per-bin loop, on
  bins reflected to za + zb >= 0, so reflection is exact; each reader
  signs only what it reads. It is good to a few ulps on bins down to
  1e-12 wide and out to |z| = 1e5, and keeps means and variances right
  past |z| = 1e100;
- every runtime path runs on numpy alone. Adaptive quadrature serves
  only the independent oracle quadrature_moment, which needs scipy
  (scipy.integrate, imported on its first call) from the test extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ZeroProbabilityError
from .special import std_normal_cdf, std_normal_pdf, std_normal_quantile

__all__ = ["SourceModel"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# exp(s) is finite up to s = log(DBL_MAX) = 709.7827; _EXPM1_MAX is a float for
# the scalar exponential.h, and _S_MAX the same bound for the array kernels.
# The 0-d arrays are ufunc operands, which numpy takes faster than Python
# floats (0.9 against 1.3 us).
_EXPM1_MAX = 709.78
_S_MAX = np.array(_EXPM1_MAX)
_END_MIN, _END_MAX = np.array(-40.0), np.array(40.0)

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"


# phi(s) = 1/s - 1/expm1(s) in s^0, s^1, s^3, ... and psi(s) = Var(u)/s^2,
# u ~ Exp(1) on [0, s], in s^0, s^2, ...: scripts/exp_series.py's tables
_PHI_SERIES = np.array((
    0.5, -0.08333333333333333, 0.001388888888888889,
    -3.306878306878307e-05, 8.267195767195768e-07, -2.08767569878681e-08,
    5.284190138687493e-10, -1.3382536530684679e-11, 3.3896802963225827e-13,
    -8.586062056277845e-15, 2.174868698558062e-16, -5.5090028283602295e-18,
    1.3954464685812522e-19, -3.534707039629467e-21, 8.953517427037546e-23,
))[::-1]
_PSI_SERIES = np.array((
    0.08333333333333333, -0.004166666666666667, 0.00016534391534391533,
    -5.787037037037037e-06, 1.8789081289081288e-07, -5.812609152556243e-09,
    1.7397297489890083e-10, -5.084520444483875e-12, 1.4596305495672335e-13,
    -4.1322505272603176e-15, 1.1568905939556482e-16, -3.2095268777368804e-18,
    8.836767599073669e-20, -2.4174497053001377e-21, 6.577062111779281e-23,
    -1.780885107350383e-24, 4.8020691695290543e-26, -1.2900982292328585e-27,
    3.454591675125167e-29, -9.223587421232456e-31, 2.456175422617675e-32,
    -6.525056003213648e-34, 1.7296911564543848e-35, -4.5760859441439445e-37,
    1.2084610516583336e-38, -3.1860091383285793e-40, 8.386736029661804e-42,
    -2.2045505272719146e-43, 5.787253237674647e-45, -1.5173644533627043e-46,
))[::-1]
_PHI_CUT, _PSI_CUT = np.array(1.5), np.array(3.0)
_PHI_POWERS = np.array((0.0, *range(1, 2 * len(_PHI_SERIES) - 2, 2)))[::-1]
_PSI_POWERS = np.arange(0.0, 2 * len(_PSI_SERIES), 2.0)[::-1]


def _exp_window_mean(length, rate: float):
    """The offset past a window's start of the mean of an exponential at
    this rate conditioned on the window, elementwise over an array of
    lengths: length*phi(s), s = rate*length.

    Below s = 1.5 it is length times phi's series, to s^27; a subnormal s
    gives length/2. From 1.5 it is (1 - c/expm1(c))/rate, c = s clamped to
    [1.5, _S_MAX], which is within 1.8 ulps there (3.6 off at s = 0.7) and
    exactly 1/rate from _S_MAX on, infinite windows included. No mask
    picks the branch: the offset rises with s and phi falls, so each
    branch read past its cut is too large, and the offset is the smaller.

    Each series is one matmul of a pow table of s, powers descending, and
    a negative-stride view of its coefficients, which numpy sums smallest
    term first in its own loop, not in BLAS, whose rounding can depend on
    a row's place in a 2-D call; test_exponential_rows_of_every_length
    checks that each row is the 1-D call on its bins bit for bit.
    """
    s = rate * length
    series = length * (np.minimum(s, _PHI_CUT)[..., None] ** _PHI_POWERS
                       @ _PHI_SERIES)
    c = np.minimum(np.maximum(s, _PHI_CUT), _S_MAX)
    return np.minimum(series, (1.0 - c / np.expm1(c)) / rate)


def _exp_window_variance(length, rate: float):
    """The variance of an exponential at this rate conditioned on a window
    of this length, elementwise over an array of lengths:
    length*(length*psi(s)), s = rate*length.

    Below s = 3 it is psi's series, to s^58. From 3 it is
    (1 - q*(q + c))/rate/rate, c = s clamped to [3, _S_MAX] and
    q = c/expm1(c): within 3 ulps there (6.1 off on [2, 2.5], and 3.9 off
    on [3, 3.5] as d*(2 - d), d = 1 - (c/2)/sinh(c/2)), and dividing by
    the rate twice, as rate^2 underflows. It is the smaller branch, as the
    mean is: it rises with s and psi falls. Past DBL_MAX it is inf, under
    np.errstate, so nothing warns.
    """
    s = rate * length
    c = np.minimum(np.maximum(s, _PSI_CUT), _S_MAX)
    q = c / np.expm1(c)
    with np.errstate(over="ignore"):
        series = length * (length * (np.minimum(s, _PSI_CUT)[..., None]
                                     ** _PSI_POWERS @ _PSI_SERIES))
        return np.minimum(series, (1.0 - q * (q + c)) / rate / rate)


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

    def _supported_edges(self, edges) -> np.ndarray:
        """_bin_edges(edges), every bin of which also meets the support, as
        conditional moments need; with increasing edges only an
        exponential's first bin can miss it (ZeroProbabilityError)."""
        e = self._bin_edges(edges)
        if self.kind == EXPONENTIAL:
            row = e if e.ndim == 1 else e[e[:, 1].argmin()]
            if row[1] <= 0.0:
                raise ZeroProbabilityError(
                    f"[{row[0]}, {row[1]}] lies outside the exponential support")
        return e

    def bin_probs(self, edges) -> np.ndarray:
        """P(e_k < M < e_{k+1}) for every bin of an increasing edge array.

        A 2-D array holds one edge sequence per row and gives one row of
        probabilities each, equal bit for bit to the call on that row.
        Bins outside the support get 0. Gaussian bins take the fixed
        rule of _std_rule, as their means and variances do. Each mass is
        good to a few ulps and none is renormalised, so the masses of n
        bins covering the line sum to 1 only within about n ulps: the two
        half-lines (-inf, 0, inf) give 1 + 2^-52. A Gaussian bin whose two
        ends round to one value in std units, as two edges past DBL_MAX
        std from the mean on one side do, or [1, 2] under N(1e20, 1),
        raises DomainError, here and in bin_means and bin_variances.
        """
        return self._bin_moments(self._bin_edges(edges))[0]

    def bin_means(self, edges) -> np.ndarray:
        """E[M | e_k <= M <= e_{k+1}] for every bin, valid deep in either tail.

        Takes one edge sequence or a 2-D array of them, as bin_probs.
        Raises ZeroProbabilityError when a bin misses the support, and
        DomainError, as bin_probs, on a Gaussian bin whose ends meet in std
        units; other same-tail Gaussian bins stay well-defined even where
        their probability underflows.
        """
        return self._bin_moments(self._supported_edges(edges))[1]

    @property
    def _scale(self) -> float:
        """The length in x of one unit of the kernel's frame (see
        _to_frame): the std for a Gaussian, 1 for an exponential."""
        return 1.0 if self.kind == EXPONENTIAL else self.std

    def _to_frame(self, x: np.ndarray) -> np.ndarray:
        """Increasing edges x, one sequence or a row each, in the frame of
        this family's bin kernel: z = (x - mean)/std for a Gaussian, as
        _std_rule reads them, and x itself, returned as it is, for an
        exponential, whose kernels form rate*length on their own.
        An edge past DBL_MAX std from the mean is the infinity it rounds
        to there, formed under np.errstate so that nothing warns, and a
        bin whose two ends meet in std units, as two such edges on one
        side do, or [1, 2] under N(1e20, 1), is a DomainError that names
        it."""
        if self.kind == EXPONENTIAL:
            return x
        with np.errstate(over="ignore"):
            z = (x - self.mean) / self.std
        if np.count_nonzero(same := z[..., :-1] == z[..., 1:]):
            raise DomainError(f"bin [{x[..., :-1][same][0]}, {x[..., 1:][same][0]}] "
                              f"has both ends at {z[..., :-1][same][0]} in std units")
        return z

    def _from_frame(self, z: np.ndarray) -> np.ndarray:
        """Edges or means z of the kernel's frame in x: mean + std*z for a
        Gaussian. Where the frame is x itself, an exponential's or
        N(0, 1)'s, z itself, so every zero keeps its sign."""
        identity = self.kind == EXPONENTIAL or (self.mean, self.std) == (0.0, 1.0)
        return z if identity else self.mean + self.std * z

    def _frame_means(self, z: np.ndarray, gaps: np.ndarray | None
                     ) -> np.ndarray:
        """Bin means in the kernel's frame (see _to_frame), on checked
        edges z in that frame whose first edge is at or inside the
        support: all that a dynamics step or a restart block of the
        Newton loop reads, and nothing more. A Gaussian's are near + E[u]
        from one _std_rule pass, negated where the bin was reflected,
        with no map to x and back; it reads z alone, and its callers pass
        gaps=None. An exponential's are start + _exp_window_mean(gaps, rate)
        on the edges as they are, with no clamp at 0, where gaps are the
        window lengths z[..., 1:] - z[..., :-1] that every caller has
        already formed."""
        start = z[..., :-1]
        if self.kind == EXPONENTIAL:
            return start + _exp_window_mean(gaps, self.rate)
        flip, near, _, means, _ = _std_rule(start, z[..., 1:])
        means += near
        return np.negative(means, out=means, where=flip)

    def _bin_moments(self, e: np.ndarray):
        """(probs, means, variances) as arrays, on checked edges.

        An exponential bin is clamped to the support; its mass is closed
        form, _frame_means reads its mean, and _exp_window_variance gives
        its variance. A Gaussian source maps the edges to std units
        (_to_frame, which raises on a bin whose ends meet there) and takes
        all three from one _std_rule pass: the mass is pdf(near) times the
        rule's integral, the mean near + E[u], negated where the bin was
        reflected and mapped back by _from_frame, and the variance Var u
        about the unsigned E[u], so masses and variances need no sign.
        pdf(near) takes near capped at 40, past which it is exactly 0
        anyway, so near^2 cannot overflow. A mass that rounds above 1, as
        on bins reaching far below the mean up to +inf, is 1. The whole
        line, which only a row of two edges can hold, gives exactly
        (1, mean, std**2)."""
        if self.kind == EXPONENTIAL:
            a = np.maximum(e, 0.0)
            length = a[..., 1:] - a[..., :-1]
            return (np.exp(-self.rate * a[..., :-1]) * -np.expm1(-self.rate * length),
                    self._frame_means(a, length),
                    _exp_window_variance(length, self.rate))
        z = self._to_frame(e)
        flip, near, mass, eu, (u, w) = _std_rule(z[..., :-1], z[..., 1:])
        means = near + eu
        np.negative(means, out=means, where=flip)
        capped = np.minimum(near, 40.0)
        probs = np.minimum(mass * np.exp(-0.5 * capped * capped) / _SQRT_2PI,
                           1.0)
        sd2 = self.std * self.std
        var = (w * (u - eu[..., None]) ** 2).sum(axis=-1) / mass * sd2
        if z.shape[-1] == 2:
            whole = (z[..., :1] == -np.inf) & (z[..., 1:] == np.inf)
            probs, var = np.where(whole, 1.0, probs), np.where(whole, sd2, var)
        return probs, self._from_frame(means), var

    def bin_variances(self, edges) -> np.ndarray:
        """Var(M | e_k <= M <= e_{k+1}) for every bin, of one edge sequence
        or of each row of a 2-D array, as bin_probs.

        Exponential bins take _exp_window_variance of their in-support
        length, Gaussian bins the fixed rule of _std_rule, all in one pass; the
        whole line gives exactly std**2. Raises ZeroProbabilityError and
        DomainError as bin_means does; nothing here raises
        QuadratureError, only the quadrature_moment oracle can.
        """
        return self._bin_moments(self._supported_edges(edges))[2]

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
        self._supported_edges((lo, hi))

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
            norm = -math.expm1(-lam * (hi - a))  # 1 at hi = inf

            def integrand(x: float) -> float:
                return x ** power * lam * math.exp(-lam * (x - a)) / norm

            return integral(integrand, a, b, 1.0)
        za, zb = self._to_frame(np.array((lo, hi)))
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
