"""Equilibrium construction for Gaussian sources.

The two-bin equilibrium always exists: its normalized edge c solves
two_bin_balance(c) = 2*bias/std, and the balance map is odd and strictly
increasing, so an expanding bracket plus the shared root-finder settles
it. Finite bin counts above two and the (truncated) infinite ladder have
no closed form; they are found by Newton's method on the equilibrium
condition F(e) = e - midpoints(e) in the interior edges. Its Jacobian is
tridiagonal, since each conditional mean moves only with its own two
edges, by slopes read off one fixed quadrature rule per bin; steps are
halved until the edges stay increasing and max|F| does not grow, and a
Newton step of at most tol ends the solve. If Newton breaks down (a
non-finite F or Jacobian, or a step halved below 2^-20), the solve
restarts from the same edges with damped fixed-point iteration of the
shared midpoint map, which converges only linearly but needs no
derivative. One Newton loop and one damped loop serve both problems: a
finite-bin game closes its last bin at +inf, a truncated ladder one
synthetic bin past its last edge.

An infinite ladder cannot be iterated whole. The artifact keeps a
truncated window of edges anchored at the two-bin edge on the bounded
side, extends the far side by one synthetic bin of the asymptotic length
2|bias| (the limit the true bin lengths approach), and excludes a margin
of edges nearest the cut from certification, where the truncation still
distorts the map.

Everything here runs on numpy alone: the Gaussian kernels take the
normal tail from special, and each Newton step solves its tridiagonal
system by a Thomas sweep (_thomas).
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
    y = 2.0 * bias / std
    c = _solve_balance(y)
    return Partition((-math.inf, mean + std * c, math.inf), source, bias)


def _solve_balance(y: float) -> float:
    """Root of two_bin_balance(c) = y; oddness reduces to y >= 0."""
    if y == 0.0:
        return 0.0
    if y < 0.0:
        return -_solve_balance(-y)
    hi = 1.0
    while two_bin_balance(hi) < y:
        hi *= 2.0

    def defect(c: float) -> float:
        return two_bin_balance(c) - y

    return find_root(defect, Bracket(0.0, hi, -y, two_bin_balance(hi) - y),
                     tol=1e-12)


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

    Non-convergence is data, not an exception: converged is False and
    final_change holds the last sup-norm edge movement. The certificate
    is evaluated on the full partition with the margin edges excluded.
    """

    ladder: TruncatedLadder
    partition: Partition
    certificate: EquilibriumCertificate
    converged: bool
    iterations: int
    final_change: float


def _damped_midpoints(source: SourceModel, bias: float, edges: np.ndarray,
                      damping: float, max_iter: int, tol: float,
                      ladder_step: float | None = None
                      ) -> tuple[np.ndarray, bool, int, float]:
    """Damped midpoint iteration; returns (edges, converged, iterations,
    last_change). Bins are (-inf, e_0), ..., (e_last, close), with close
    = +inf, or e_last + ladder_step for a truncated ladder."""
    delta = math.inf
    for it in range(1, max_iter + 1):
        close = np.inf if ladder_step is None else edges[-1] + ladder_step
        full = np.concatenate(([-np.inf], edges, [close]))
        rows = _midpoints(source.bin_means(full), bias)
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


def _newton_edges(source: SourceModel, bias: float, edges: np.ndarray,
                  max_iter: int, tol: float, ladder_step: float | None = None
                  ) -> tuple[np.ndarray, bool, int, float] | None:
    """Newton's method on F(e) = e - midpoints(e), bins as in
    _damped_midpoints; returns (edges, converged, steps, last_step), or
    None when Newton breaks down (a non-finite F or J, or a step halved
    below 2^-20 before the edges stay increasing and max|F| stops
    growing). J is tridiagonal: each mean moves only with its own two
    edges, by the slopes _std_interval_slopes takes from the edges alone
    (the fixed rule of sources._std_rule, right on bins down to 1e-12
    wide); a ladder's closing edge moves with the last edge, adding its
    slope to the last row. A bin's two slopes sum to 1 - Var, Var its
    variance in std^2 units, so each row's diagonal exceeds the sum of
    its off-diagonals by the mean of its two bins' Var, closing row
    included: the Thomas sweep needs no pivoting.
    Converged once a full step's sup-norm is <= tol, after taking it."""
    mean, std = source.mean, source.std

    def residual(e):
        close = np.inf if ladder_step is None else e[-1] + ladder_step
        full = np.concatenate(([-np.inf], e, [close]))
        return (e - _midpoints(source.bin_means(full), bias),
                (full - mean) / std)

    f, z = residual(edges)
    f_max = float(np.abs(f).max())
    size = math.inf
    for it in range(1, max_iter + 1):
        if not math.isfinite(f_max):
            return None
        lo, hi = _std_interval_slopes(z[:-1], z[1:])
        diag = 1.0 - 0.5 * (hi[:-1] + lo[1:])
        if ladder_step is not None:
            diag[-1] -= 0.5 * hi[-1]
        # a non-finite entry shows up as a non-finite pivot or step
        solved = _thomas((-0.5 * lo[1:-1]).tolist(), diag.tolist(),
                         (-0.5 * hi[1:-1]).tolist(), (-f).tolist())
        if solved is None:
            return None
        step = np.array(solved)
        size = float(np.abs(step).max())
        if not math.isfinite(size):
            return None
        if size <= tol:
            new = edges + step
            if (new[1:] > new[:-1]).all():
                return new, True, it, size
        t = 1.0
        while True:
            new = edges + t * step
            if (new[1:] > new[:-1]).all():
                f_new, z_new = residual(new)
                if float(np.abs(f_new).max()) <= f_max:
                    break
            t *= 0.5
            if t < 2.0 ** -20:
                return None
        edges, f, z = new, f_new, z_new
        f_max = float(np.abs(f).max())
        size *= t
    return edges, False, max_iter, size


def solve_truncated_ladder(source: SourceModel, bias: float,
                           init: TruncatedLadder | None = None, *,
                           n_edges: int = 40, margin: int = 5,
                           damping: float = 0.5, max_iter: int = 100_000,
                           tol: float = 1e-10,
                           cert_tol: float = 1e-8) -> LadderResult:
    """Newton solve of a truncated infinite-bin ladder, damped
    fixed-point iteration (with this damping) as the fallback.

    Starts from init when given (its margin wins), otherwise from equal
    spacing of width max(2|bias|, std/4) anchored at the two-bin edge.
    Negative bias is handled by reflecting the game about the mean,
    which flips the bias sign and leaves the source invariant; results
    are mapped back, so the excluded margin sits on the left there.
    max_iter caps the Newton steps (or the fallback's iterations), and
    final_change is the last step's sup-norm. Raises EdgeOrderingError
    if the fallback crosses edges; reaching max_iter yields
    converged=False rather than an exception.
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
        anchor = solve_two_bin_gauss(mean, std, bias).edges[1]
        start = TruncatedLadder(anchor, (width,) * (n_edges - 1), margin)
        edges = start.edges_for(bias)
    if not (isinstance(margin, int) and 0 <= margin < n_edges):
        raise DomainError(
            f"margin must satisfy 0 <= margin < n_edges, got {margin!r}")

    flip = bias < 0.0
    work_bias = abs(bias)
    work_edges = np.sort(2.0 * mean - edges) if flip else np.asarray(edges, float)
    closing = asymptotic_bin_length(work_bias)
    work_edges, converged, iterations, change = (
        _newton_edges(source, work_bias, work_edges, max_iter, tol, closing)
        or _damped_midpoints(source, work_bias, work_edges, damping,
                             max_iter, tol, closing))
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
    """Default interior-edge seed for the finite-bin iteration."""
    width = max(2.0 * abs(bias), std / 4.0)
    count = n_bins - 1
    if bias > 0.0:
        anchor = solve_two_bin_gauss(mean, std, bias).edges[1]
        return anchor + width * np.arange(count)
    if bias < 0.0:
        anchor = solve_two_bin_gauss(mean, std, bias).edges[1]
        return anchor - width * np.arange(count - 1, -1, -1)
    return mean + width * (np.arange(1, count + 1) - 0.5 * n_bins)


def solve_n_bins_gauss(mean: float, std: float, bias: float, n_bins: int,
                       init: Partition | None = None, *,
                       damping: float = 0.5, max_iter: int = 100_000,
                       tol: float = 1e-10) -> Partition:
    """Finite-bin Gaussian equilibrium by Newton's method on the
    midpoint condition, damped midpoint iteration as the fallback.

    Both extreme bins are genuinely half-infinite here. There is no
    closed form and no general existence result for n_bins >= 3, so the
    solve simply reports what it finds: a Partition once a Newton step
    is at most tol, NonConvergenceError (carrying the last edges) when
    max_iter steps run out, EdgeOrderingError if the damped fallback
    crosses edges. damping applies to the fallback only. bias = 0 is
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

    edges, converged, _, delta = (
        _newton_edges(source, bias, edges, max_iter, tol)
        or _damped_midpoints(source, bias, edges, damping, max_iter, tol))
    if converged:
        return Partition((-math.inf, *edges, math.inf), source, bias)
    raise NonConvergenceError(
        f"midpoint iteration did not reach tol={tol} within {max_iter} "
        f"iterations (last change {delta:.3e})",
        iterations=max_iter, final_change=delta, edges=tuple(edges))
