"""Generate the Gauss-Legendre rule that sources._GL_HALF holds.

The Gaussian bin-moment kernels integrate every bin with one fixed
48-point Gauss-Legendre rule on [-1, 1]. Its nodes are symmetric, so
sources.py keeps the 24 positive nodes and, separately, their weights.
This script computes them in 60-digit arithmetic with mpmath (Newton on
the Legendre polynomial from the usual cosine start, weights
2/((1 - x^2) P_n'(x)^2)) and rounds each to the nearest float64;
tests/test_sources.py checks the committed literals against it bit for
bit.

Run ``python scripts/gauss_legendre_nodes.py`` to print the literal.
"""

import mpmath as mp

POINTS = 48


def _legendre_slope(n: int, x):
    """P_n'(x) = n (x P_n(x) - P_{n-1}(x)) / (x^2 - 1)."""
    return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)


def half_rule(points: int = POINTS, dps: int = 60) -> tuple:
    """(nodes, weights) of the positive nodes, ascending, as floats."""
    pairs = []
    with mp.workdps(dps):
        for k in range(1, points // 2 + 1):
            start = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (points + mp.mpf(1) / 2))
            x, step = start, mp.mpf(1)
            while abs(step) > mp.mpf(10) ** (5 - dps):
                step = mp.legendre(points, x) / _legendre_slope(points, x)
                x -= step
            slope = _legendre_slope(points, x)
            pairs.append((float(x), float(2 / ((1 - x * x) * slope * slope))))
    return tuple(zip(*sorted(pairs)))


def _rows(values) -> str:
    return "".join(f"\n    {', '.join(map(repr, values[i:i + 3]))},"
                   for i in range(0, len(values), 3))


if __name__ == "__main__":
    nodes, weights = half_rule()
    print(f"_GL_HALF = (({_rows(nodes)}\n), ({_rows(weights)}\n))")
