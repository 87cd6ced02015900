"""Generate the Chebyshev table that special._ERFCX_CHEB holds.

special.erfcx and the Gaussian bin kernels evaluate the scaled
complementary error function erfcx(x) = exp(x^2) erfc(x), x >= 0, as one
Chebyshev series (Shepherd & Laframboise, Math. Comp. 1981):

    (1 + 2x) erfcx(x) = sum_k c_k T_k(t),   t = (x - K)/(x + K),

which maps [0, inf] onto [-1, 1] and tends to 2/sqrt(pi) as x grows, so
the series is good to a few ulps in relative terms on the whole half-line.
This script samples the left side at the Chebyshev points of the first
kind in 50-digit arithmetic with mpmath, takes the discrete cosine
transform, and rounds c_1 .. c_TERMS to the nearest float64. c_0 is not
stored: the kernels fix it by the exact value erfcx(0) = 1, the constant
term of y(t) - 1 = sum_k c_k (T_k(t) - T_k(-1)). tests/test_special.py
checks the committed literals against this script bit for bit.

Run ``python scripts/erfcx_chebyshev.py`` to print the literal.
"""

import mpmath as mp

K = 3.75
TERMS = 27
POINTS = 160


def coefficients(k: float = K, terms: int = TERMS, points: int = POINTS,
                 dps: int = 50) -> tuple:
    """(c_1, ..., c_terms) of (1 + 2x) erfcx(x) in t = (x - k)/(x + k)."""
    with mp.workdps(dps):
        k = mp.mpf(k)

        def scaled(t):
            if t == 1:
                return 2 / mp.sqrt(mp.pi)
            x = k * (1 + t) / (1 - t)
            return (1 + 2 * x) * mp.exp(x * x) * mp.erfc(x)

        angles = [mp.pi * (j + mp.mpf(1) / 2) / points for j in range(points)]
        values = [scaled(mp.cos(a)) for a in angles]
        return tuple(
            float(2 * mp.fsum(v * mp.cos(n * a) for v, a in zip(values, angles))
                  / points)
            for n in range(1, terms + 1))


def _rows(values) -> str:
    return "".join(f"\n    {', '.join(map(repr, values[i:i + 3]))},"
                   for i in range(0, len(values), 3))


if __name__ == "__main__":
    print(f"_ERFCX_CHEB = ({_rows(coefficients())}\n)")
