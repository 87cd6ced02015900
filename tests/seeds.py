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
"""

import math

import numpy as np

from cheaptalk.equilibrium import _midpoints
from cheaptalk.errors import EdgeOrderingError
from cheaptalk.gaussian import TruncatedLadder, _full_edges, solve_two_bin_gauss


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
