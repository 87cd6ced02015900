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
regime for negative bias.

Every bin length at every bias is the closed-form inverse of g through
the principal Lambert branch; bracketed root-finding is left to the
equal-length fixed point, whose equation has no Lambert form.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .equilibrium import Partition
from .errors import (
    BinCollapseError,
    DomainError,
    NoInformativeEquilibriumError,
)
from .sources import SourceModel, _exp_gap, _exp_window_variance
from .special import Bracket, find_root, lambert_w0_conjugate

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


def h(length: float, rate: float) -> float:
    """length / (exp(rate*length) - 1): the mean shortfall of a window.

    The conditional mean on a window of this length sits exactly
    h(length) below window-start + 1/rate. Strictly decreasing from
    1/rate (the length -> 0 limit, returned at 0) to 0, evaluated
    cancellation-free at both extremes.
    """
    _check_rate(rate)
    if math.isnan(length) or length < 0.0 or math.isinf(length):
        raise DomainError(f"window length must be finite and >= 0, got {length!r}")
    return float(_exp_gap(rate * length, rate))


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
    """The unique two-bin equilibrium, via the principal Lambert branch.

    The single interior edge is the first length of the backward walk,
    (t + u)/rate with u = rate*(2/rate + 2*bias) and t the conjugate
    principal-branch point of -u*exp(-u), so it equals
    solve_n_bins(rate, bias, 2)'s edge bit for bit. It lands in
    (1/rate + 2*bias, 2/rate + 2*bias). Raises
    NoInformativeEquilibriumError when bias <= -1/(2*rate), where only
    the single-bin equilibrium exists.
    """
    _check_rate(rate)
    if not math.isfinite(bias):
        raise DomainError(f"bias must be finite, got {bias!r}")
    walk = _backward_lengths(rate, bias, 1)
    # just above the threshold rate*(2/rate + 2*bias) can still round to 1
    if bias <= bias_threshold(rate, 2) or not walk:
        raise NoInformativeEquilibriumError(
            f"no two-bin equilibrium at rate={rate}, bias={bias}: requires "
            f"bias > {bias_threshold(rate, 2)}")
    return Partition((0.0, walk[0], math.inf), SourceModel.exponential(rate), bias)


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
    c = 2.0 / rate + 2.0 * bias
    walk: list[float] = []
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
    if not (isinstance(n_bins, int) and n_bins >= 1):
        raise DomainError(f"n_bins must be a positive integer, got {n_bins!r}")
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
    c = 2.0 / rate + 2.0 * bias
    return (c - length) * math.exp(rate * length) - (c + length)


def fixed_point_length(rate: float, bias: float) -> float:
    """Common bin length of the infinite equal-length equilibrium.

    Unique zero of equal_length_defect on (2*bias, 2/rate + 2*bias),
    requiring bias > 0. Solved in log form so the bracket endpoints stay
    evaluable even when exp(rate*length) would overflow.
    """
    _check_rate(rate)
    if not (math.isfinite(bias) and bias > 0.0):
        raise DomainError(
            f"the equal-length fixed point needs bias > 0, got {bias!r}")
    c = 2.0 / rate + 2.0 * bias

    def log_defect(s: float) -> float:
        # same sign as equal_length_defect on (2*bias, c)
        return math.log(c - s) - math.log(c + s) + rate * s

    lo = 2.0 * bias
    two_rb = 2.0 * rate * bias
    f_lo = two_rb - math.log1p(two_rb)  # log_defect(lo), always > 0
    hi = math.nextafter(c, 0.0)
    f_hi = log_defect(hi)
    if f_hi >= 0.0:
        # the root is within one ulp of c
        return hi
    return find_root(log_defect, Bracket(lo, hi, f_lo, f_hi), tol=1e-13)


def infinite_equilibrium(rate: float, bias: float, n_edges: int = 64) -> Partition:
    """Leading window of the infinite equal-length equilibrium.

    Edges at k * fixed_point_length for k = 1..n_edges, closed by the
    half-infinite tail bin. Every interior edge except the last carries a
    zero defect by construction; the last one reflects the truncation
    (its right neighbor should have been another finite bin) and is the
    one to exclude when certifying.
    """
    if not (isinstance(n_edges, int) and n_edges >= 1):
        raise DomainError(f"n_edges must be a positive integer, got {n_edges!r}")
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
