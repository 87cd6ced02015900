"""Equilibrium construction for exponential sources.

Everything here is closed-form or a one-dimensional root solve. The key
objects are two scalar maps of a window length l at rate lam:

    h(l) = l / (exp(lam*l) - 1)      decreasing, 1/lam at 0, -> 0
    g(l) = l + h(l)                  increasing, 1/lam at 0, -> inf

The conditional mean of the source on a window [a, a+l] is
a + 1/lam - h(l), so the equilibrium conditions reduce to a backward
recursion in which each bin length solves g(length) = target, with the
target driven by the next bin's length. Targets at or below g's
infimum 1/lam have no solution, which is exactly the bin-collapse
regime for negative bias. The walk reads h as a Python scalar; the bin
moments (sources.SourceModel) read the same mean as a + l*phi(lam*l),
phi(s) = 1/s - 1/expm1(s) from its Bernoulli series on short windows,
which does not cancel where lam*l is small and 1/lam - h(l) would.

Every bin length at every bias is the closed-form inverse of g through
the principal Lambert branch. The equal-length fixed point, whose
equation has no Lambert form, takes Newton steps (special._newton) on
its closed-form derivative.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .equilibrium import Partition, _check_count
from .errors import (
    BinCollapseError,
    DomainError,
    NoInformativeEquilibriumError,
)
from .sources import _EXPM1_MAX, SourceModel, _exp_window_variance
from .special import _newton, lambert_w0_conjugate

__all__ = [
    "g",
    "h",
    "max_bins_negative_bias",
    "empirical_max_bins",
    "bias_threshold",
    "solve_two_bin",
    "solve_n_bins",
    "fixed_point_length",
    "equal_length_defect",
    "infinite_equilibrium",
    "decoder_cost_infinite",
]


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate > 0.0):
        raise DomainError(f"rate must be a finite positive real, got {rate!r}")


def _scale(rate: float, bias: float) -> float:
    """c = 2/rate + 2*bias: the g-target of the last finite bin, and the
    scale of the equal-length ladder. DomainError where it is +inf or NaN,
    as at rates below 2/DBL_MAX, where 2/rate overflows, or at biases near
    DBL_MAX. c = -inf, at biases near -DBL_MAX, has no two-bin walk: no
    informative equilibrium."""
    c = 2.0 / rate + 2.0 * bias
    if math.isnan(c) or c == math.inf:
        raise DomainError(
            f"2/rate + 2*bias must be finite, got {c!r} at rate={rate!r}, "
            f"bias={bias!r}")
    return c


def h(length: float, rate: float) -> float:
    """length / (exp(rate*length) - 1): the mean shortfall of a window.

    The conditional mean on a window of this length sits exactly
    h(length) below window-start + 1/rate. Strictly decreasing from
    1/rate (the length -> 0 limit, returned at 0) to 0. A Python float
    scalar, (1/rate)*(s/expm1(s)) with s = rate*length: a subnormal s,
    where expm1(s) is s, gives exactly 1/rate, and past
    sources._EXPM1_MAX, where the true value is below 4e-306/rate, it
    is exactly 0.
    """
    _check_rate(rate)
    if not 0.0 <= length < math.inf:  # NaN fails too
        raise DomainError(f"window length must be finite and >= 0, got {length!r}")
    s = rate * length
    return 0.0 if s >= _EXPM1_MAX else 1.0 / rate * (s / math.expm1(s) if s else 1.0)


def g(length: float, rate: float) -> float:
    """length + h(length, rate): strictly increasing from 1/rate.

    The backward recursion inverts this map; g - 1/rate spans (0, inf),
    so every target above 1/rate has exactly one preimage and targets at
    or below 1/rate have none.
    """
    return length + h(length, rate)


def max_bins_negative_bias(rate: float, bias: float) -> int:
    """Hard upper bound on equilibrium bin counts when bias < 0.

    floor(-1/(2*bias*rate) + 1). The bound is valid but not tight; see
    empirical_max_bins for the attained count.
    """
    _check_rate(rate)
    if not bias < 0.0:
        raise DomainError(
            "bin counts are unbounded for bias >= 0; the bound needs bias < 0")
    try:
        return int(math.floor(-1.0 / (2.0 * bias * rate) + 1.0))
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"the bin-count bound overflows at rate={rate}, bias={bias}") from None


def bias_threshold(rate: float, n: int) -> float:
    """Exact bias threshold for the existence of an n-bin equilibrium.

    Equilibria with at least n bins exist iff bias strictly exceeds the
    returned value: -1/(2*rate) for n=2, and (e-2)/(e-1) times that for
    n=3. No closed thresholds are known here for n >= 4.
    """
    _check_rate(rate)
    if n == 2:
        return -1.0 / (2.0 * rate)
    if n == 3:
        return -(math.e - 2.0) / (2.0 * rate * (math.e - 1.0))
    raise DomainError(f"threshold known only for n in {{2, 3}}, got {n!r}")


def solve_two_bin(rate: float, bias: float) -> Partition:
    """The unique two-bin equilibrium, via the principal Lambert branch:
    solve_n_bins(rate, bias, 2), whose one interior edge is the first
    length of the backward walk, (t + u)/rate with
    u = rate*(2/rate + 2*bias) and t the conjugate principal-branch point
    of -u*exp(-u). It lands in (1/rate + 2*bias, 2/rate + 2*bias). Raises
    NoInformativeEquilibriumError when bias <= -1/(2*rate), where only
    the single-bin equilibrium exists: there u <= 1 also as rounded, since
    rate times the rounded 1/rate never rounds above 1.
    """
    return solve_n_bins(rate, bias, 2)


def _backward_lengths(rate: float, bias: float, count: int) -> list[float]:
    """Up to count finite bin lengths of the backward recursion, last bin
    first.

    The last finite length solves g(l) = 2/rate + 2*bias; each earlier
    target subtracts the h-value of the length just found. The n-bin
    equilibrium takes the first n-1 lengths, so one walk serves every bin
    count. The walk stops early at the first target at or below g's
    infimum 1/rate: the next bin cannot fit.

    Each length inverts g in closed form at every bias: substituting
    s = rate*l turns g(l) = target into (s-u)*exp(s-u) = -u*exp(-u) with
    u = rate*target > 1, so s - u is the principal-branch point
    lambert_w0_conjugate(u).
    """
    walk: list[float] = []
    if count < 1:  # a one-bin game has no finite bin to scale
        return walk
    c = _scale(rate, bias)
    while len(walk) < count:
        target = c - h(walk[-1], rate) if walk else c
        u = rate * target
        if u <= 1.0:
            break
        walk.append((lambert_w0_conjugate(u) + u) / rate)
    return walk


def solve_n_bins(rate: float, bias: float, n_bins: int) -> Partition:
    """The n-bin equilibrium by backward recursion on bin lengths.

    A target at or below g's infimum 1/rate means the next bin cannot
    fit: BinCollapseError (with the failing bin index) for bias <= 0,
    where bin counts are limited; for bias > 0 every count succeeds.
    NoInformativeEquilibriumError when n_bins >= 2 yet even two bins are
    infeasible.
    """
    _check_rate(rate)
    if not math.isfinite(bias):
        raise DomainError(f"bias must be finite, got {bias!r}")
    n_bins = _check_count(n_bins, 1, "n_bins must be a positive integer")
    walk = _backward_lengths(rate, bias, n_bins - 1)
    if n_bins >= 2 and not walk:
        raise NoInformativeEquilibriumError(
            f"no informative equilibrium at rate={rate}, bias={bias}: "
            f"requires bias > {bias_threshold(rate, 2)}")
    if len(walk) < n_bins - 1:
        k = n_bins - 1 - len(walk)
        raise BinCollapseError(
            f"bin {k} of {n_bins} collapses at rate={rate}, "
            f"bias={bias}: no equilibrium with this many bins",
            bin_index=k)
    edges = (0.0, *accumulate(reversed(walk)), math.inf)
    return Partition(edges, SourceModel.exponential(rate), bias)


def empirical_max_bins(rate: float, bias: float) -> int:
    """Largest bin count the recursion actually attains for bias < 0.

    Existence is monotone in the bin count, so this is one backward walk
    run until the first collapse, never past the hard bound.
    """
    cap = max_bins_negative_bias(rate, bias)
    return len(_backward_lengths(rate, bias, cap - 1)) + 1


def equal_length_defect(length: float, rate: float, bias: float) -> float:
    """Stationarity defect of an all-equal-length edge ladder.

    With c = 2/rate + 2*bias this is (c - length)*exp(rate*length)
    - (c + length): positive at length = 2*bias, negative at length = c,
    and zero exactly at the common length of the infinite equilibrium.
    """
    _check_rate(rate)
    c = _scale(rate, bias)
    return (c - length) * math.exp(rate * length) - (c + length)


# atanh(y) - y = y^3 * sum_k y^(2k-2)/(2k+1) below the cut, as Horner
# reads it; 27 terms put the remainder below half an ulp up to y = 0.5
_ATANH_SERIES_CUT = 0.5
_ATANH_SERIES = tuple(1.0 / (2 * k + 1) for k in range(27, 0, -1))


def _atanh_excess(y: float) -> float:
    """atanh(y) - y for 0 <= y < 1, without cancellation at small y."""
    if y >= _ATANH_SERIES_CUT:
        return math.atanh(y) - y
    y2 = y * y
    acc = 0.0
    for coeff in _ATANH_SERIES:
        acc = acc * y2 + coeff
    return acc * y2 * y


def fixed_point_length(rate: float, bias: float) -> float:
    """Common bin length of the infinite equal-length equilibrium.

    Unique zero of equal_length_defect on (2*bias, 2/rate + 2*bias),
    requiring bias > 0. In y = length/c, c = 2/rate + 2*bias, the defect
    vanishes where atanh(y) - y = rate*bias*y; the left side minus the
    right is convex in y and negative just right of 0. Both
    sqrt(3*rate*bias) (where the series' leading term y^3/3 meets the
    right side) and tanh(1 + rate*bias) lie right of the root, so Newton
    steps from the smaller fall monotonically onto it, to within a few
    ulps at every bias. A seed that rounds to 1 puts the root within an
    ulp of c. DomainError where c is not finite, and where rate*bias
    underflows to 0, which leaves the root no term to be told from 0 by.
    """
    _check_rate(rate)
    if not (math.isfinite(bias) and bias > 0.0):
        raise DomainError(
            f"the equal-length fixed point needs bias > 0, got {bias!r}")
    c = _scale(rate, bias)
    rb = rate * bias
    if rb == 0.0:
        raise DomainError(f"rate*bias underflows to 0 at rate {rate!r} and "
                          f"bias {bias!r}; the equal-length fixed point is "
                          f"not resolved there")
    y = min(math.sqrt(3.0 * rb), math.tanh(1.0 + rb))
    if y >= 1.0:
        return math.nextafter(c, 0.0)

    def step(y: float) -> float:
        return ((_atanh_excess(y) - rb * y)
                / (y * y / ((1.0 - y) * (1.0 + y)) - rb))

    return _newton(step, y) * c


def infinite_equilibrium(rate: float, bias: float, n_edges: int = 64) -> Partition:
    """Leading window of the infinite equal-length equilibrium.

    Edges at k * fixed_point_length for k = 1..n_edges, closed by the
    half-infinite tail bin. Every interior edge except the last carries a
    zero defect by construction; the last one reflects the truncation
    (its right neighbor should have been another finite bin) and is the
    one to exclude when certifying.
    """
    n_edges = _check_count(n_edges, 1, "n_edges must be a positive integer")
    lstar = fixed_point_length(rate, bias)
    edges = (0.0, *(k * lstar for k in range(1, n_edges + 1)), math.inf)
    return Partition(edges, SourceModel.exponential(rate), bias)


def decoder_cost_infinite(rate: float, bias: float) -> float:
    """Decoder cost of the infinite equal-length equilibrium.

    Equals the conditional variance of one window of the fixed-point
    length: with every bin the same length, the probability-weighted
    variance sum telescopes to exactly that.
    """
    lstar = fixed_point_length(rate, bias)
    return float(_exp_window_variance(lstar, rate))
