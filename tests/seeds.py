"""The equal-width start that both Gaussian solvers took by default before
they started on the ladder's length law. Tests that pin runs recorded
from that start, or compare the default start against it, build it here.

It lives in std units, on N(0, 1) at b = bias/std: edges max(2|b|, 1/4)
apart, anchored at the two-bin edge on the bounded side. Each function
forms the edges with the same arithmetic as the solver it stands for,
so the pinned runs start from the same bits.
"""

import numpy as np

from cheaptalk.gaussian import TruncatedLadder, solve_two_bin_gauss


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
