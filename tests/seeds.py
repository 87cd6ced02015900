"""The equal-width start that both Gaussian solvers took by default before
they started on the ladder's length law, and the damped midpoint loop
those runs were recorded with. Tests that pin runs recorded from that
start, or compare the default start against it, build it here.

It lives in std units, on N(0, 1) at b = bias/std: edges max(2|b|, 1/4)
apart, anchored at the two-bin edge on the bounded side. Each function
forms the edges with the same arithmetic as the solver it stands for,
so the pinned runs start from the same bits.

damped_midpoints is the test-side reference for the damped steps of the
solve loop's restart rounds: the same blend of the same means, read
through SourceModel._frame_means, in its own loop.

run_rows and std_rule are the references for the dynamics loop and the
Gaussian rule in their plainer form, with every array formed anew:
run_rows is dynamics._run_rows reading its means from frame_means, which
is SourceModel._frame_means over std_rule and exp_window_mean. Each
forms every value with the same IEEE operations as the package, so the
package must give back their outcomes, edges, traces and rule outputs
bit for bit.
"""

import math

import numpy as np

from cheaptalk.dynamics import COLLAPSE_LENGTH, IterationOutcome
from cheaptalk.equilibrium import _midpoints
from cheaptalk.errors import EdgeOrderingError
from cheaptalk.gaussian import TruncatedLadder, _full_edges, solve_two_bin_gauss
from cheaptalk.sources import (
    _GL_W,
    _GL_X,
    _PHI_CUT,
    _PHI_POWERS,
    _PHI_SERIES,
    _S_MAX,
    EXPONENTIAL,
)


def _anchor_width(b):
    return solve_two_bin_gauss(0.0, 1.0, b).edges[1], max(2.0 * abs(b), 0.25)


def equal_width(b, count):
    """solve_n_bins_gauss's old start: count interior edges, anchor + k
    widths, or centred on the mean at b = 0."""
    anchor, width = _anchor_width(b)
    if b == 0.0:
        return width * (np.arange(1, count + 1) - 0.5 * (count + 1))
    steps = np.arange(count) if b > 0.0 else np.arange(1 - count, 1)
    return anchor + width * steps


def equal_width_ladder(b, count):
    """solve_truncated_ladder's old start, count edges as a
    TruncatedLadder (edges_for(b) gives them, summed from the anchor);
    b must be nonzero."""
    anchor, width = _anchor_width(b)
    return TruncatedLadder(anchor, (width,) * (count - 1))


def damped_midpoints(source, bias, edges, damping, max_iter, tol,
                     ladder_step=math.inf):
    """Damped midpoint iteration from increasing edges, with bias, tol
    and ladder_step, in std units; returns (edges, converged, iterations,
    last_change), in std units. Bins are those of gaussian._full_edges.
    It stops at the first move of at most tol, and raises
    EdgeOrderingError, numbered from 1, at a step that crosses edges."""
    delta, z = math.inf, _full_edges(edges, ladder_step)
    for it in range(1, max_iter + 1):
        rows = _midpoints(source._frame_means(z, None), bias)
        new = (1.0 - damping) * edges + damping * rows
        z = _full_edges(new, ladder_step)
        if not (z[1:] > z[:-1]).all():
            raise EdgeOrderingError(
                f"edges crossed at iteration {it}", iteration=it)
        delta = float(np.abs(new - edges).max())
        edges = new
        if delta <= tol:
            return edges, True, it, delta
    return edges, False, max_iter, delta


def std_rule(za, zb):
    """sources._std_rule, with its window, as (flip, near, mass, E[u],
    (u, weights))."""
    nza, nzb = -za, -zb
    flip = za < nzb
    za, zb = np.maximum(za, nzb), np.maximum(zb, nza)
    near = np.maximum(za, 0.0)
    reach = 50.0 / np.maximum(near, 5.0)
    lo = np.maximum(za - near, -reach)[..., None]
    hi = np.minimum(zb - near, reach)[..., None]
    half = 0.5 * (hi - lo)
    u = half * _GL_X + 0.5 * (hi + lo)
    g = np.exp(-0.5 * u * u - u * near[..., None])
    w = half * _GL_W * g
    mass = w.sum(axis=-1)
    return flip, near, mass, (w * u).sum(axis=-1) / mass, (u, w)


def exp_window_mean(length, rate):
    """sources._exp_window_mean."""
    s = rate * length
    series = length * (np.minimum(s, _PHI_CUT)[..., None] ** _PHI_POWERS
                       @ _PHI_SERIES)
    c = np.minimum(np.maximum(s, _PHI_CUT), _S_MAX)
    return np.minimum(series, (1.0 - c / np.expm1(c)) / rate)


def frame_means(source, z, gaps):
    """SourceModel._frame_means over std_rule and exp_window_mean."""
    start = z[..., :-1]
    if source.kind == EXPONENTIAL:
        return start + exp_window_mean(gaps, source.rate)
    flip, near, _, means, _ = std_rule(start, z[..., 1:])
    means = near + means
    return np.where(flip, -means, means)


def run_rows(source, bias, edges, max_iter, tol, damping, rec=None):
    """dynamics._run_rows over frame_means: each step writes its moved
    interior into the rows the kernel reads, and tests every row."""
    outcomes = [None] * len(edges)
    e = source._to_frame(np.array(edges, dtype=float))
    scale = source._scale
    bias, tol, floor = bias / scale, tol / scale, COLLAPSE_LENGTH / scale
    final = np.empty_like(e)
    live = np.arange(len(edges))
    moved = old = e[:, 1:-1].copy()

    def stop(rows, status, bins=None):
        for r in np.flatnonzero(rows):
            k = None if bins is None else int(bins[r]) + 1
            outcomes[live[r]] = IterationOutcome(status, it, k)
            final[live[r]] = e[r]
        return ~rows

    for it in range(max_iter + 1):
        if it:
            old = moved
            moved = (targets if damping == 1.0
                     else (1.0 - damping) * old + damping * targets)
            e[:, 1:-1] = moved
        gaps = e[:, 1:] - e[:, :-1]
        if not gaps.min() >= floor:
            rank = 2 * ~(gaps > 0.0) + ~(gaps >= floor)
            worst = rank.max(axis=1)
            if rec is not None and worst[0] == 1:
                rec.add(it, e[0], math.nan, force=True)
            keep = stop(worst > 0, "collapsed", rank.argmax(axis=1))
            live, e, moved, old, gaps = (
                live[keep], e[keep], moved[keep], old[keep], gaps[keep])
            if not live.size:
                break
        means = frame_means(source, e, gaps)
        rising = means[:, 1:] > means[:, :-1]
        if not rising.all():
            if rec is not None and it == 0:
                rec.add(it, e[0], math.nan, force=True)
            keep = stop(~rising.all(axis=1), "collapsed")
            live, e, moved, old, means = (
                live[keep], e[keep], moved[keep], old[keep], means[keep])
            if not live.size:
                break
        targets = 0.5 * (means[:, :-1] + means[:, 1:]) + bias
        residual = np.abs(moved - targets).max(axis=1, initial=0.0)
        done = residual <= tol
        if it and done.any():
            done &= np.abs(moved - old).max(axis=1, initial=0.0) <= tol
        else:
            done[:] = False
        if rec is not None:
            rec.add(it, e[0], float(residual[0]),
                    force=it in (0, max_iter) or done.any())
        if done.any():
            keep = stop(done, "converged")
            live, e, moved, targets = (
                live[keep], e[keep], moved[keep], targets[keep])
            if not live.size:
                break
    if live.size:
        stop(np.ones(live.size, dtype=bool), "max_iter")
    return outcomes, source._from_frame(final)
