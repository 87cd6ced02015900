"""Equilibrium construction for Gaussian sources.

The two-bin equilibrium always exists: its normalized edge c solves
two_bin_balance(c) = 2*bias/std, and the balance map is odd and strictly
increasing, so the shared Newton loop (special._newton) settles it.
Finite bin counts above two and the (truncated) infinite ladder have no
closed form. One loop (_solve_edges) finds both by Newton's method on
the equilibrium condition F(e) = e - midpoints(e) in the interior edges,
whose Jacobian is tridiagonal: each conditional mean moves only with its
own two edges. Where Newton breaks down, the same loop takes a short
round of damped steps of the midpoint map, which needs no derivative,
before Newton tries again. The last bin closes one step past the last
edge: +inf for a finite game, one synthetic bin for a truncated ladder.

Both solvers start by default (_default_start) on the ladder's length
law: edges climb from the two-bin edge by bin lengths near 2b + 2/z, the
lengths criterion 09b measures for the ladder, b = |bias|/std. Every
finite n-bin root lies close to the ladder's first edges, so Newton
starts near the root and spends its steps converging, not approaching.

An infinite ladder cannot be iterated whole. The artifact keeps a
truncated window of edges anchored at the two-bin edge on the bounded
side, extends the far side by one synthetic bin of the asymptotic length
2|bias| (the limit the true bin lengths approach), and excludes a margin
of edges nearest the cut from certification, where the truncation still
distorts the map.

The game on N(mean, std) at bias b is the game on N(0, 1) at bias
b/std, moved to mean + std*z, so the solve loop runs in std units z:
each solver forms its default start in z, or maps a given init into z
once (SourceModel._to_frame), maps the result back once
(SourceModel._from_frame), and divides the bias, the ladder's closing
step and tol by the std once. tol stays a distance in x, tested as
tol/std in z; every tolerance of the loop is in std units, so a game
far from the origin in x solves as the same game at 0. A ladder of
negative bias is solved reflected, as -z reversed, which is exact.

Everything here runs on numpy alone: every pass of the loop, Newton
iterate, line-search trial or damped step, is one call of
sources._std_interval_slopes, the fixed rule of sources._std_rule read
as means and edge slopes, and each Newton step solves its tridiagonal
system by a Thomas sweep (_thomas). Below a few dozen bins a pass costs
a fixed count of numpy calls, not work per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    EquilibriumCertificate,
    Partition,
    _check_count,
    _check_iteration_params,
    _midpoints,
    certify,
)
from .errors import (
    DomainError,
    EdgeOrderingError,
    NonConvergenceError,
)
from .sources import GAUSSIAN, SourceModel, _std_interval_slopes
from .special import _newton, mills_ratio, std_normal_cdf, std_normal_pdf

__all__ = [
    "two_bin_balance",
    "solve_two_bin_gauss",
    "balance_derivative_floor",
    "lower_mills_peak",
    "half_line_bin_bound",
    "asymptotic_bin_length",
    "ladder_boxes",
    "TruncatedLadder",
    "LadderResult",
    "solve_truncated_ladder",
    "solve_n_bins_gauss",
]


def two_bin_balance(c: float) -> float:
    """2c - mills_ratio(c) + mills_ratio(-c): odd, strictly increasing.

    Setting this equal to 2*bias/std characterizes the normalized
    two-bin edge c = (m_1 - mean)/std. The two Mills terms are the
    distances from the edge to the two conditional means, so the value
    is (edge minus action midpoint) rescaled.
    """
    return 2.0 * c - mills_ratio(c) + mills_ratio(-c)


def solve_two_bin_gauss(mean: float, std: float, bias: float) -> Partition:
    """The two-bin equilibrium, which exists for every bias.

    The normalized edge shares the sign of the bias and depends only on
    bias/std; the returned edge is mean + std*c.
    """
    source = SourceModel.gaussian(mean, std)
    c = _solve_balance(2.0 * _std_bias(bias, std))
    return Partition((-math.inf, mean + std * c, math.inf), source, bias)


def _std_bias(bias: float, std: float) -> float:
    """bias/std, the bias in std units that every Gaussian solve reads;
    DomainError unless bias and 2|bias|/std, the balance's side, are finite."""
    if not math.isfinite(bias):
        raise DomainError(f"bias must be finite, got {bias!r}")
    if not math.isfinite(2.0 * (bias / std)):
        raise DomainError(f"2|bias|/std overflows at bias={bias!r}, std={std!r}")
    return bias / std


def _solve_balance(y: float) -> float:
    """Root of two_bin_balance(c) = y; oddness reduces to y >= 0.

    Newton's method from c = y on the closed-form derivative
    2 - M(c)(M(c) - c) - M(-c)(M(-c) + c), M = mills_ratio, which stays
    within [0.72, 1.06]: each step shrinks the error to at most half, so
    the steps shrink until rounding noise sets their size, and the loop
    stops at the first step that does not shrink.
    """
    if y == 0.0:
        return 0.0
    if y < 0.0:
        return -_solve_balance(-y)

    def step(c: float) -> float:
        upper, lower = mills_ratio(c), mills_ratio(-c)
        return ((2.0 * c - upper + lower - y)
                / (2.0 - upper * (upper - c) - lower * (lower + c)))

    return _newton(step, y)


def balance_derivative_floor(grid, step: float = 1e-5) -> float:
    """Minimum central-difference derivative of two_bin_balance on a grid.

    The analytic derivative is even with a single interior minimum at 0;
    this numerical scan is the check that it stays bounded away from
    zero, which is what makes the two-bin root unique.
    """
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step!r}")
    values = [
        (two_bin_balance(c + step) - two_bin_balance(c - step)) / (2.0 * step)
        for c in grid
    ]
    if not values:
        raise DomainError("grid must be nonempty")
    return min(values)


def lower_mills_peak() -> tuple[float, float]:
    """Location and value of the interior maximum of c*pdf(c)/cdf(c).

    This product bounds one of the two Mills terms in the balance map's
    derivative; its peak is what the derivative floor subtracts. Its
    derivative is pdf(c)/cdf(c) times s(c) = 1 - c^2 - c*m(c), with
    m = pdf/cdf and m' = -m*(c + m). Newton's method on s from c = 1
    locates its one positive root to rounding.
    """
    def step(c: float) -> float:
        m = std_normal_pdf(c) / std_normal_cdf(c)
        return (1.0 - c * c - c * m) / (c * m * (c + m) - 2.0 * c - m)

    c = _newton(step, 1.0)
    return c, c * std_normal_pdf(c) / std_normal_cdf(c)


def half_line_bin_bound(std: float, bias: float) -> int:
    """floor(std/(2|bias|)): cap on bins packed on the bounded side.

    For bias < 0 the cap applies to bins contained in [mean, inf), for
    bias > 0 to bins in (-inf, mean]. Zero means no interior edge fits
    on that side at all; a cap past DBL_MAX is a DomainError.
    """
    if not (math.isfinite(std) and std > 0.0):
        raise DomainError(f"std must be a finite positive real, got {std!r}")
    if not math.isfinite(bias) or bias == 0.0:
        raise DomainError(
            f"the half-line bound needs a nonzero finite bias, got {bias!r}")
    cap = std / (2.0 * abs(bias))
    if cap == math.inf:
        raise DomainError(f"std/(2|bias|) overflows at std={std!r}, bias={bias!r}")
    return int(cap)


def asymptotic_bin_length(bias: float) -> float:
    """2|bias|: the limit of bin lengths far from the mean."""
    if not (math.isfinite(bias) and bias != 0.0):
        raise DomainError(
            f"asymptotic length needs a nonzero finite bias, got {bias!r}")
    return 2.0 * abs(bias)


def ladder_boxes(mean: float, std: float,
                 bias: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """A priori (anchor range, length range) boxes for converged ladders.

    Every converged truncated ladder must keep its anchor edge in the
    first interval and all its bin lengths in the second; the boxes for
    negative bias are the positive-bias ones reflected about the mean.
    """
    k, w = half_line_bin_bound(std, bias), abs(bias)
    span = k * (2.0 * std - 2.0 * w) + 2.0 * std
    if bias > 0.0:
        anchor = (mean - span, mean + 2.0 * w + std)
    else:
        anchor = (mean - 2.0 * w - std, mean + span)
    return anchor, (2.0 * w, 2.0 * w + 2.0 * std)


@dataclass(frozen=True)
class TruncatedLadder:
    """A finite window of an infinite-bin edge ladder.

    lengths are in left-to-right spatial order. The anchor is the edge
    on the bounded side of the game: left-most for positive bias (the
    ladder climbs rightward), right-most for negative bias. margin is
    how many edges nearest the truncation cut are excluded from
    certification.
    """

    anchor_edge: float
    lengths: tuple[float, ...]
    margin: int = 5

    def __post_init__(self) -> None:
        lengths = tuple(map(float, self.lengths))
        object.__setattr__(self, "lengths", lengths)
        if not math.isfinite(self.anchor_edge):
            raise DomainError(f"anchor edge must be finite, got {self.anchor_edge!r}")
        if len(lengths) < 1:
            raise DomainError("a ladder needs at least one bin length")
        if not (all(map(math.isfinite, lengths)) and min(lengths) > 0.0):
            raise DomainError("ladder lengths must be finite and positive")
        object.__setattr__(self, "margin", _check_count(
            self.margin, 0, "margin must be a nonnegative integer"))

    @property
    def n_edges(self) -> int:
        return len(self.lengths) + 1

    def edges_for(self, bias: float) -> np.ndarray:
        """The edge positions this ladder describes, ordered ascending,
        laid down from the anchor, so its edge is anchor_edge exactly."""
        offsets = np.concatenate(([0.0], np.cumsum(self.lengths)))
        if bias > 0.0:
            return self.anchor_edge + offsets
        if bias < 0.0:
            return self.anchor_edge - (offsets[-1] - offsets)
        raise DomainError("a one-sided ladder is undefined at bias = 0")


@dataclass(frozen=True)
class LadderResult:
    """Outcome of a truncated-ladder solve.

    Non-convergence is data, not an exception: converged is False, and
    iterations and final_change are _solve_edges's. The certificate
    is evaluated on the full partition with the margin edges excluded.
    """

    ladder: TruncatedLadder
    partition: Partition
    certificate: EquilibriumCertificate
    converged: bool
    iterations: int
    final_change: float


# damped steps in one restart round of the solve loop
_RESTART_STEPS = 8
# max|F| at or below this times 1 + max|z|, in the std units the loop
# works in, is rounding noise
_F_FLOOR = 256.0 * np.finfo(float).eps


def _full_edges(edges: np.ndarray, ladder_step: float = math.inf) -> np.ndarray:
    """Bins (-inf, e_0), ..., (e_last, e_last + ladder_step) of the
    interior edges: +inf closes a finite game, 2|bias| a truncated
    ladder."""
    return np.concatenate(([-np.inf], edges, [edges[-1] + ladder_step]))


def _thomas(sub, diag, sup, rhs) -> list[float] | None:
    """Solve a tridiagonal system by the Thomas sweep, without pivoting:
    row i holds sub[i-1], diag[i] and sup[i] (sequences of floats).
    Returns the solution as a list, or None on a zero or non-finite
    pivot."""
    ratios, values = [], []
    ratio = value = 0.0
    for a, b, c, r in zip((0.0, *sub), diag, (*sup, 0.0), rhs):
        pivot = b - a * ratio
        if pivot == 0.0 or not math.isfinite(pivot):
            return None
        ratio = c / pivot
        value = (r - a * value) / pivot
        ratios.append(ratio)
        values.append(value)
    x = 0.0
    for i in range(len(values) - 1, -1, -1):
        x = values[i] = values[i] - ratios[i] * x
    return values


def _newton_step(f: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray | None:
    """The full Newton step -J^-1 F, or None if it is not finite, as it
    is not wherever F is not. J is tridiagonal: each mean moves only with
    its own two edges, by the slopes lo and hi of each full bin's mean
    in its lower and upper edge, which _std_interval_slopes gives in the
    pass that gives F (the fixed rule of sources._std_rule, right on bins
    down to 1e-12 wide); the closing edge moves with the last edge,
    adding its slope, exactly 0 at +inf, to the last row. A bin's two
    slopes sum to 1 - Var, Var its variance in std^2 units, so each row's
    diagonal exceeds the sum of its off-diagonals by the mean of its two
    bins' Var, closing row included: the Thomas sweep needs no pivoting.
    It runs on Python floats, so the step becomes an array once, when it
    is known to be finite."""
    diag = (1.0 - 0.5 * (hi[:-1] + lo[1:])).tolist()
    diag[-1] -= 0.5 * hi.item(-1)
    # a non-finite entry shows up as a non-finite pivot or step
    step = _thomas((-0.5 * lo[1:-1]).tolist(), diag,
                   (-0.5 * hi[1:-1]).tolist(), (-f).tolist())
    if step is None or not all(map(math.isfinite, step)):
        return None
    return np.array(step)


def _solve_edges(source: SourceModel, bias: float, start: np.ndarray,
                 damping: float, max_iter: int, tol: float,
                 ladder_step: float = math.inf
                 ) -> tuple[np.ndarray, bool, int, float]:
    """The one solve loop, on F(e) = e - midpoints(e) with bins as in
    _full_edges; returns (edges, converged, steps, final_change). The
    start, bias, tol and ladder_step are in std units, and so is what it
    returns.

    Every step of any kind, and every line-search trial, costs one
    kernel pass: _std_interval_slopes gives the bins' means, hence the
    midpoints, F and max|F|, and the slopes of _newton_step's Jacobian.
    Newton steps are halved until every bin keeps a positive width and
    max|F| does not grow (a ladder's closing step can round away on the
    last edge); a full step of at most tol, once taken, converges. Once
    max|F| is rounding noise (_F_FLOOR), a full step no smaller than the
    smallest so far is noise too, and the loop stops. On a breakdown (a
    non-finite F or step, or one halved below 2^-20) it takes up to
    _RESTART_STEPS damped steps (1 - damping)*e + damping*midpoints(e),
    each on the pass before it, from the start at first and then from
    the last damped iterate, to a move of at most tol; a step that
    crosses edges raises EdgeOrderingError. Newton then resumes from
    the last pass. Steps taken, Newton and damped, count against
    max_iter. final_change is the smallest full Newton step (inf if
    none was finite).
    """
    def residual(z):
        means, lo, hi = _std_interval_slopes(z[:-1], z[1:])
        mid = _midpoints(means, bias)
        f = z[1:-1] - mid
        return f, float(np.abs(f).max()), lo, hi, mid

    # the start is checked here; the loop checks every later iterate
    edges, z = start, source._bin_edges(_full_edges(start, ladder_step))
    f, f_max, lo, hi, mid = residual(z)
    # the last damped iterate and its midpoints, the start's at first
    damped, steps, smallest = (edges, mid), 0, math.inf
    while steps < max_iter:
        step = _newton_step(f, lo, hi)
        if step is not None:
            size = float(np.abs(step).max())
            new = edges + step
            z = _full_edges(new, ladder_step)
            if size <= tol and (z[1:] > z[:-1]).all():
                return new, True, steps + 1, size
            if size >= smallest and f_max <= _F_FLOOR * (
                    1.0 + float(np.abs(edges).max())):
                return edges, smallest <= tol, steps, smallest
            smallest = min(smallest, size)
            t = 1.0
            while t >= 2.0 ** -20:
                if (z[1:] > z[:-1]).all():
                    trial = residual(z)
                    if trial[1] <= f_max:
                        break
                t *= 0.5
                new = edges + t * step
                z = _full_edges(new, ladder_step)
            else:
                step = None
        if step is None:
            edges, mid = damped
            for it in range(1, min(_RESTART_STEPS, max_iter - steps) + 1):
                new = (1.0 - damping) * edges + damping * mid
                z = _full_edges(new, ladder_step)
                if not (z[1:] > z[:-1]).all():
                    raise EdgeOrderingError(
                        f"edges crossed at iteration {it}", iteration=it)
                move = float(np.abs(new - edges).max())
                edges, (f, f_max, lo, hi, mid) = new, residual(z)
                if move <= tol:
                    break
            damped, steps = (edges, mid), steps + it
        else:
            edges, (f, f_max, lo, hi, mid), steps = new, trial, steps + 1
    return edges, False, steps, smallest


def solve_truncated_ladder(source: SourceModel, bias: float,
                           init: TruncatedLadder | None = None, *,
                           n_edges: int = 40, margin: int = 5,
                           damping: float = 0.5, max_iter: int = 100_000,
                           tol: float = 1e-10,
                           cert_tol: float = 1e-8) -> LadderResult:
    """Truncated infinite-bin ladder by the solve loop _solve_edges
    (Newton, with restart rounds of damped steps at this damping).

    Starts from init when given (its margin wins), otherwise from
    _default_start in std units: edges climbing from the two-bin edge by
    the ladder's own length law. The loop runs in std units; negative
    bias is handled by reflecting the game there, z to -z, which flips
    the bias sign and leaves the source invariant; results are mapped
    back, so the excluded margin sits on the left there. max_iter caps
    Newton and damped steps together. Stopping short of tol yields
    converged=False, not an exception; a damped step that crosses edges
    raises EdgeOrderingError, and a ladder finer than x's resolution
    where it sits raises DomainError.
    """
    if source.kind != GAUSSIAN:
        raise DomainError("truncated ladders apply to Gaussian sources only")
    if not (math.isfinite(bias) and bias != 0.0):
        raise DomainError(
            f"the one-sided ladder needs a nonzero finite bias, got {bias!r}")
    max_iter = _check_iteration_params(damping, max_iter, tol)
    mean, std = source.mean, source.std
    b = _std_bias(bias, std)
    if init is not None:
        margin = init.margin
        z = source._to_frame(init.edges_for(bias))
        n_edges = len(z)
    else:
        n_edges = _check_count(n_edges, 2, "n_edges must be an integer >= 2")
        z = _default_start(b, n_edges)
    margin = _check_count(margin, 0, "margin must satisfy 0 <= margin < n_edges",
                          n_edges)

    flip = bias < 0.0
    z, converged, iterations, change = _solve_edges(
        source, abs(b), -z[::-1] if flip else z, damping, max_iter,
        tol / std, asymptotic_bin_length(b))
    final = _resolved(source._from_frame(-z[::-1] if flip else z), mean)

    anchor = float(final[-1] if flip else final[0])
    ladder = TruncatedLadder(anchor, tuple(np.diff(final)), margin)
    partition = Partition((-math.inf, *final, math.inf), source, bias)
    k = n_edges
    excluded = range(1, margin + 1) if flip else range(k - margin + 1, k + 1)
    certificate = certify(partition, tol=cert_tol, excluded_edges=tuple(excluded))
    return LadderResult(ladder=ladder, partition=partition,
                        certificate=certificate, converged=converged,
                        iterations=iterations, final_change=change * std)


def _resolved(edges: np.ndarray, mean: float) -> np.ndarray:
    """A solve's edges, mapped back to x, once each is above the last.
    A Gaussian game's bins are sized in std units, and x cannot hold
    them where they are finer than its resolution at the mean: 0.25-wide
    bins at 1e20, where one ulp is 16384."""
    if (edges[1:] > edges[:-1]).all():
        return edges
    raise DomainError(f"the bins are finer than x's resolution at mean {mean!r}, "
                      f"where one ulp is {math.ulp(mean)!r}")


def _default_start(bias: float, count: int) -> np.ndarray:
    """The default start of count increasing edges in std units, for the
    game on N(0, 1) at this bias: an n-bin solve's n - 1 interior edges
    or a truncated ladder's edges.

    The edges climb from the two-bin edge, the anchor on the bounded
    side, by bin lengths l(z) = max(1/4, 2b + min(1, 20b) * 2/sqrt(z^2 + 5))
    at b = bias, each read at its bin's middle, located by the length at
    the bin's lower edge. l is the law the ladder's lengths approach
    far out, 2b + 2/z (criterion 09b measures it), made finite at the
    mean by the 5 under the root and faded in below b = 0.05, where the
    roots' bins fall short of it. Each edge is the anchor plus an
    offset summed from the lengths, so below b = 0.0125, where every
    length is 1/4, edge k is anchor + k/4 bit for bit. A negative bias
    takes the start at -bias as -z reversed; bias 0 centres count edges
    1/4 apart on the mean.
    """
    if bias == 0.0:
        return 0.25 * (np.arange(1, count + 1) - 0.5 * (count + 1))
    if bias < 0.0:
        return -_default_start(-bias, count)[::-1]
    anchor = _solve_balance(2.0 * bias)
    fade = 2.0 * min(1.0, 20.0 * bias)

    def length(z: float) -> float:
        return max(0.25, 2.0 * bias + fade / math.sqrt(z * z + 5.0))

    offsets = [0.0]
    for _ in range(count - 1):
        z = anchor + offsets[-1]
        offsets.append(offsets[-1] + length(z + 0.5 * length(z)))
    return anchor + np.array(offsets)


def solve_n_bins_gauss(mean: float, std: float, bias: float, n_bins: int,
                       init: Partition | None = None, *,
                       damping: float = 0.5, max_iter: int = 100_000,
                       tol: float = 1e-10) -> Partition:
    """Finite-bin Gaussian equilibrium by the solve loop _solve_edges
    (Newton, with restart rounds of damped steps at this damping).

    Starts from init when given, otherwise from _default_start in std
    units: n_bins - 1 edges climbing from the two-bin edge by the
    ladder's length law, near which every finite root lies.
    Both extreme bins are genuinely half-infinite here. There is no
    closed form and no general existence result for n_bins >= 3, so the
    solve simply reports what it finds: a Partition once a Newton step
    is at most tol, a distance in x (the loop runs in std units and
    tests tol/std); NonConvergenceError (carrying the last edges) when
    the loop stops short of tol, at max_iter (Newton and damped steps
    together) or at the rounding floor of F; EdgeOrderingError if a
    damped step crosses edges; DomainError if the bins are finer than
    x's resolution at this mean. bias = 0 is permitted and yields the
    classical mean-squared-optimal quantizer, outside the strategic
    story but a useful anchor.
    """
    source = SourceModel.gaussian(mean, std)
    b = _std_bias(bias, std)
    n_bins = _check_count(n_bins, 1, "n_bins must be a positive integer")
    max_iter = _check_iteration_params(damping, max_iter, tol)
    if n_bins == 1:
        return Partition((-math.inf, math.inf), source, bias)
    if init is not None:
        if init.n_bins != n_bins:
            raise DomainError(
                f"init has {init.n_bins} bins, expected {n_bins}")
        z = source._to_frame(np.asarray(init.interior_edges, dtype=float))
    else:
        z = _default_start(b, n_bins - 1)

    z, converged, iterations, change = _solve_edges(
        source, b, z, damping, max_iter, tol / std)
    edges, change = _resolved(source._from_frame(z), mean), change * std
    if converged:
        return Partition((-math.inf, *edges, math.inf), source, bias)
    raise NonConvergenceError(
        f"iteration stopped before tol={tol} after {iterations} steps "
        f"(final change {change:.3e})",
        iterations=iterations, final_change=change, edges=tuple(edges))
