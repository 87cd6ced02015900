"""Equilibrium construction for Gaussian sources.

The two-bin equilibrium always exists: its normalized edge c solves
two_bin_balance(c) = 2*bias/std, and the balance map is odd and strictly
increasing, so an expanding bracket plus the shared root-finder settles
it. Finite bin counts above two and the (truncated) infinite ladder have
no closed form. One loop (_solve_edges) finds both by Newton's method on
the equilibrium condition F(e) = e - midpoints(e) in the interior edges,
whose Jacobian is tridiagonal: each conditional mean moves only with its
own two edges. Where Newton breaks down, a short block of damped steps
of the shared midpoint map, which needs no derivative, moves the start
before Newton tries again. A finite-bin game closes its last bin at
+inf, a truncated ladder one synthetic bin past its last edge.

An infinite ladder cannot be iterated whole. The artifact keeps a
truncated window of edges anchored at the two-bin edge on the bounded
side, extends the far side by one synthetic bin of the asymptotic length
2|bias| (the limit the true bin lengths approach), and excludes a margin
of edges nearest the cut from certification, where the truncation still
distorts the map.

Everything here runs on numpy alone: every bin moment, in Newton
iterates and restart blocks alike, comes from the one Gaussian kernel,
the fixed rule of sources._std_rule, and each Newton step solves its
tridiagonal system by a Thomas sweep (_thomas). Below a few dozen bins
an iterate costs a fixed count of numpy calls, not work per bin, and the
loop forms nothing it does not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    EquilibriumCertificate,
    Partition,
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
from .special import Bracket, find_root, mills_ratio, std_normal_cdf, std_normal_pdf

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
    if not math.isfinite(bias):
        raise DomainError(f"bias must be finite, got {bias!r}")
    return Partition((-math.inf, _two_bin_edge(mean, std, bias), math.inf),
                     source, bias)


def _two_bin_edge(mean: float, std: float, bias: float) -> float:
    """solve_two_bin_gauss's edge on checked arguments, with no Partition:
    what the default seeds anchor at."""
    return mean + std * _solve_balance(2.0 * bias / std)


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
    c, last = y, math.inf
    while True:
        upper, lower = mills_ratio(c), mills_ratio(-c)
        step = ((2.0 * c - upper + lower - y)
                / (2.0 - upper * (upper - c) - lower * (lower + c)))
        if not abs(step) < last:
            return c
        c, last = c - step, abs(step)


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
    derivative is pdf(c)/cdf(c) times 1 - c^2 - c*pdf(c)/cdf(c), whose
    one root on (1e-6, 4) the shared root-finder locates to rounding.
    """
    def product(c: float) -> float:
        return c * std_normal_pdf(c) / std_normal_cdf(c)

    def slope_sign(c: float) -> float:
        return 1.0 - c * c - product(c)

    c = find_root(slope_sign, Bracket.scan(slope_sign, 1e-6, 4.0), tol=1e-15)
    return c, product(c)


def half_line_bin_bound(std: float, bias: float) -> int:
    """floor(std/(2|bias|)): cap on bins packed on the bounded side.

    For bias < 0 the cap applies to bins contained in [mean, inf), for
    bias > 0 to bins in (-inf, mean]. Zero means no interior edge fits
    on that side at all.
    """
    if not (math.isfinite(std) and std > 0.0):
        raise DomainError(f"std must be a finite positive real, got {std!r}")
    if not math.isfinite(bias) or bias == 0.0:
        raise DomainError(
            f"the half-line bound needs a nonzero finite bias, got {bias!r}")
    return int(math.floor(std / (2.0 * abs(bias))))


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
    if not (math.isfinite(std) and std > 0.0):
        raise DomainError(f"std must be a finite positive real, got {std!r}")
    if not (math.isfinite(bias) and bias != 0.0):
        raise DomainError(f"ladder boxes need a nonzero finite bias, got {bias!r}")
    w = abs(bias)
    k = half_line_bin_bound(std, bias)
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
        lengths = tuple(float(v) for v in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not math.isfinite(self.anchor_edge):
            raise DomainError(f"anchor edge must be finite, got {self.anchor_edge!r}")
        if len(lengths) < 1:
            raise DomainError("a ladder needs at least one bin length")
        if any(not (math.isfinite(v) and v > 0.0) for v in lengths):
            raise DomainError("ladder lengths must be finite and positive")
        if not (isinstance(self.margin, int) and self.margin >= 0):
            raise DomainError(f"margin must be a nonnegative integer, got {self.margin!r}")

    @property
    def n_edges(self) -> int:
        return len(self.lengths) + 1

    def edges_for(self, bias: float) -> np.ndarray:
        """The edge positions this ladder describes, ordered ascending."""
        if bias > 0.0:
            return self.anchor_edge + np.concatenate(
                ([0.0], np.cumsum(self.lengths)))
        if bias < 0.0:
            offsets = np.concatenate(([0.0], np.cumsum(self.lengths)))
            return self.anchor_edge - offsets[-1] + offsets
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


# damped steps in one restart block of the solve loop
_RESTART_STEPS = 8
# max|F| at or below this times |mean| + std + max|e| is rounding noise
_F_FLOOR = 256.0 * np.finfo(float).eps


def _full_edges(edges: np.ndarray, ladder_step: float | None) -> np.ndarray:
    """Bins (-inf, e_0), ..., (e_last, close) of the interior edges, with
    close = +inf, or e_last + ladder_step for a truncated ladder."""
    close = np.inf if ladder_step is None else edges[-1] + ladder_step
    return np.concatenate(([-np.inf], edges, [close]))


def _damped_midpoints(source: SourceModel, bias: float, edges: np.ndarray,
                      damping: float, max_iter: int, tol: float,
                      ladder_step: float | None = None
                      ) -> tuple[np.ndarray, bool, int, float]:
    """Damped midpoint iteration from increasing edges; returns (edges,
    converged, iterations, last_change). Bins are those of _full_edges."""
    delta = math.inf
    for it in range(1, max_iter + 1):
        rows = _midpoints(
            source._bin_means(_full_edges(edges, ladder_step)), bias)
        new = (1.0 - damping) * edges + damping * rows
        if not (new[1:] > new[:-1]).all():
            raise EdgeOrderingError(
                f"edges crossed at iteration {it}", iteration=it)
        delta = float(np.abs(new - edges).max())
        edges = new
        if delta <= tol:
            return edges, True, it, delta
    return edges, False, max_iter, delta


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


def _newton_step(f: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 ladder_step: float | None) -> np.ndarray | None:
    """The full Newton step -J^-1 F, or None if it is not finite, as it
    is not wherever F is not. J is tridiagonal: each mean moves only with
    its own two edges, by the slopes lo and hi of each full bin's mean
    in its lower and upper edge, which _std_interval_slopes gives in the
    pass that gives F (the fixed rule of sources._std_rule, right on bins
    down to 1e-12 wide); a ladder's closing edge moves with the last
    edge, adding its slope to the last row. A bin's two slopes sum to
    1 - Var, Var its variance in std^2 units, so each row's diagonal
    exceeds the sum of its off-diagonals by the mean of its two bins'
    Var, closing row included: the Thomas sweep needs no pivoting. It
    runs on Python floats, so the step becomes an array once, when it is
    known to be finite."""
    diag = 1.0 - 0.5 * (hi[:-1] + lo[1:])
    if ladder_step is not None:
        diag[-1] -= 0.5 * hi[-1]
    # a non-finite entry shows up as a non-finite pivot or step
    step = _thomas((-0.5 * lo[1:-1]).tolist(), diag.tolist(),
                   (-0.5 * hi[1:-1]).tolist(), (-f).tolist())
    if step is None or not all(map(math.isfinite, step)):
        return None
    return np.array(step)


def _solve_edges(source: SourceModel, bias: float, start: np.ndarray,
                 damping: float, max_iter: int, tol: float,
                 ladder_step: float | None = None
                 ) -> tuple[np.ndarray, bool, int, float]:
    """The one solve loop, on F(e) = e - midpoints(e) with bins as in
    _full_edges; returns (edges, converged, steps, final_change).

    Every iterate, line-search trials included, costs one kernel pass:
    _std_interval_slopes gives the bins' means, hence F and max|F|, and
    the slopes that _newton_step's Jacobian needs. Newton steps are
    halved until the edges stay increasing and max|F| does not grow; a
    full step of at most tol, once taken, converges.
    Once max|F| is rounding noise (_F_FLOOR), a full step no smaller
    than the smallest so far is noise too, and the loop stops. On a
    breakdown (a non-finite F or step, or one halved below 2^-20) it
    takes _RESTART_STEPS damped steps, from the start at first and then
    from the last damped iterate, and retries Newton. Steps taken,
    Newton and damped, count against max_iter. final_change is the
    smallest full Newton step (inf if none was finite).
    """
    mean, std = source.mean, source.std
    # the full edges in std units; the infinite ends are set once, and a
    # ladder's closing edge is rewritten with each iterate
    z = np.full(start.size + 2, np.inf)
    z[0] = -np.inf
    inner = z[1:-1]

    def residual(e):
        np.subtract(e, mean, out=inner)
        np.divide(inner, std, out=inner)
        if ladder_step is not None:
            z[-1] = (e[-1] + ladder_step - mean) / std
        means, lo, hi = _std_interval_slopes(z[:-1], z[1:])
        f = e - _midpoints(mean + std * means, bias)
        return f, float(np.abs(f).max()), lo, hi

    # the start is checked here; the loop checks every later iterate
    source._bin_edges(_full_edges(start, ladder_step))
    edges = damped = start
    f, f_max, lo, hi = residual(edges)
    steps, smallest = 0, math.inf
    while steps < max_iter:
        step = _newton_step(f, lo, hi, ladder_step)
        if step is not None:
            size = float(np.abs(step).max())
            new = edges + step
            if size <= tol and (new[1:] > new[:-1]).all():
                return new, True, steps + 1, size
            if size >= smallest and f_max <= _F_FLOOR * (
                    abs(mean) + std + float(np.abs(edges).max())):
                return edges, smallest <= tol, steps, smallest
            smallest = min(smallest, size)
            t = 1.0
            while t >= 2.0 ** -20:
                if (new[1:] > new[:-1]).all():
                    trial = residual(new)
                    if trial[1] <= f_max:
                        break
                t *= 0.5
                new = edges + t * step
            else:
                step = None
        if step is None:
            damped, _, taken, _ = _damped_midpoints(
                source, bias, damped, damping,
                min(_RESTART_STEPS, max_iter - steps), tol, ladder_step)
            edges, steps = damped, steps + taken
            f, f_max, lo, hi = residual(edges)
        else:
            edges, (f, f_max, lo, hi), steps = new, trial, steps + 1
    return edges, False, steps, smallest


def solve_truncated_ladder(source: SourceModel, bias: float,
                           init: TruncatedLadder | None = None, *,
                           n_edges: int = 40, margin: int = 5,
                           damping: float = 0.5, max_iter: int = 100_000,
                           tol: float = 1e-10,
                           cert_tol: float = 1e-8) -> LadderResult:
    """Truncated infinite-bin ladder by the solve loop _solve_edges
    (Newton, with restart blocks of damped steps at this damping).

    Starts from init when given (its margin wins), otherwise from equal
    spacing of width max(2|bias|, std/4) anchored at the two-bin edge.
    Negative bias is handled by reflecting the game about the mean,
    which flips the bias sign and leaves the source invariant; results
    are mapped back, so the excluded margin sits on the left there.
    max_iter caps Newton and damped steps together. Stopping short of
    tol yields converged=False, not an exception; a damped step that
    crosses edges raises EdgeOrderingError.
    """
    if source.kind != GAUSSIAN:
        raise DomainError("truncated ladders apply to Gaussian sources only")
    if not (math.isfinite(bias) and bias != 0.0):
        raise DomainError(
            f"the one-sided ladder needs a nonzero finite bias, got {bias!r}")
    _check_iteration_params(damping, max_iter, tol)
    mean, std = source.mean, source.std
    if init is not None:
        margin = init.margin
        edges = init.edges_for(bias)
        n_edges = len(edges)
    else:
        if not (isinstance(n_edges, int) and n_edges >= 2):
            raise DomainError(f"n_edges must be an integer >= 2, got {n_edges!r}")
        width = max(2.0 * abs(bias), std / 4.0)
        anchor = _two_bin_edge(mean, std, bias)
        start = TruncatedLadder(anchor, (width,) * (n_edges - 1), margin)
        edges = start.edges_for(bias)
    if not (isinstance(margin, int) and 0 <= margin < n_edges):
        raise DomainError(
            f"margin must satisfy 0 <= margin < n_edges, got {margin!r}")

    flip = bias < 0.0
    work_bias = abs(bias)
    work_edges = np.sort(2.0 * mean - edges) if flip else np.asarray(edges, float)
    closing = asymptotic_bin_length(work_bias)
    work_edges, converged, iterations, change = _solve_edges(
        source, work_bias, work_edges, damping, max_iter, tol, closing)
    final = np.sort(2.0 * mean - work_edges) if flip else work_edges

    anchor = float(final[-1] if flip else final[0])
    ladder = TruncatedLadder(anchor, tuple(np.diff(final)), margin)
    partition = Partition((-math.inf, *final, math.inf), source, bias)
    k = n_edges
    excluded = range(1, margin + 1) if flip else range(k - margin + 1, k + 1)
    certificate = certify(partition, tol=cert_tol, excluded_edges=tuple(excluded))
    return LadderResult(ladder=ladder, partition=partition,
                        certificate=certificate, converged=converged,
                        iterations=iterations, final_change=change)


def _default_interior(mean: float, std: float, bias: float,
                      n_bins: int) -> np.ndarray:
    """Default interior-edge seed for the finite-bin iteration, anchored
    at the two-bin edge on the bounded side (centred at bias 0)."""
    width = max(2.0 * abs(bias), std / 4.0)
    count = n_bins - 1
    if bias == 0.0:
        return mean + width * (np.arange(1, count + 1) - 0.5 * n_bins)
    anchor = _two_bin_edge(mean, std, bias)
    if bias > 0.0:
        return anchor + width * np.arange(count)
    return anchor - width * np.arange(count - 1, -1, -1)


def solve_n_bins_gauss(mean: float, std: float, bias: float, n_bins: int,
                       init: Partition | None = None, *,
                       damping: float = 0.5, max_iter: int = 100_000,
                       tol: float = 1e-10) -> Partition:
    """Finite-bin Gaussian equilibrium by the solve loop _solve_edges
    (Newton, with restart blocks of damped steps at this damping).

    Both extreme bins are genuinely half-infinite here. There is no
    closed form and no general existence result for n_bins >= 3, so the
    solve simply reports what it finds: a Partition once a Newton step
    is at most tol; NonConvergenceError (carrying the last edges) when
    the loop stops short of tol, at max_iter (Newton and damped steps
    together) or at the rounding floor of F; EdgeOrderingError if a
    damped step crosses edges. bias = 0 is
    permitted and yields the classical mean-squared-optimal quantizer,
    outside the strategic story but a useful anchor.
    """
    source = SourceModel.gaussian(mean, std)
    if not math.isfinite(bias):
        raise DomainError(f"bias must be finite, got {bias!r}")
    if not (isinstance(n_bins, int) and n_bins >= 1):
        raise DomainError(f"n_bins must be a positive integer, got {n_bins!r}")
    _check_iteration_params(damping, max_iter, tol)
    if n_bins == 1:
        return Partition((-math.inf, math.inf), source, bias)
    if init is not None:
        if init.n_bins != n_bins:
            raise DomainError(
                f"init has {init.n_bins} bins, expected {n_bins}")
        edges = np.asarray(init.interior_edges, dtype=float)
    else:
        edges = _default_interior(mean, std, bias, n_bins)

    edges, converged, iterations, change = _solve_edges(
        source, bias, edges, damping, max_iter, tol)
    if converged:
        return Partition((-math.inf, *edges, math.inf), source, bias)
    raise NonConvergenceError(
        f"iteration stopped before tol={tol} after {iterations} steps "
        f"(final change {change:.3e})",
        iterations=iterations, final_change=change, edges=tuple(edges))
