"""Generate the Bernoulli-series tables of sources._PHI_SERIES and _PSI_SERIES.

An exponential bin's mean and variance depend on the bin's in-support
length l and on s = rate*l alone. With u ~ Exp(1) conditioned on [0, s],

    mean - start = l * phi(s),    phi(s) = E[u]/s = 1/s - 1/expm1(s),
    variance     = l * (l * psi(s)),    psi(s) = Var(u)/s^2.

From s/expm1(s) = sum_n B_n s^n/n! (DLMF 24.2.1), with B_1 = -1/2 and
every other odd Bernoulli number 0,

    phi(s) = 1/2 - sum_{k>=1} B_2k s^(2k-1)/(2k)!,
    psi(s) = sum_{k>=1} (2k-1) B_2k s^(2k-2)/(2k)!,

the second because Var(u) = 1 + s^2 d/ds[1/expm1(s)]. Both converge for
s < 2*pi. sources.py reads phi's series below s = 1.5 and psi's below
s = 3, and closed forms above. This script forms the Bernoulli numbers
exactly, as fractions, rounds each coefficient to the nearest float64,
and prints both tables, lowest power first, as sources.py holds them (a
reversed view, so the matmul sums the smallest term first), with the
first term each leaves out at its cut, relative to the series' value
there. tests/test_sources.py checks the committed literals against it
bit for bit.

Run ``python scripts/exp_series.py`` to print the literals.
"""

from fractions import Fraction
from math import comb, factorial

# (cut, terms) of each series: the first term a table leaves out is,
# at its cut, under 3e-18 of the series' value there, a few hundredths
# of an ulp
PHI_CUT, PHI_TERMS = Fraction(3, 2), 15
PSI_CUT, PSI_TERMS = Fraction(3), 30


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n exactly, B_1 = -1/2, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def phi_series(terms: int) -> tuple[list[Fraction], list[int]]:
    """(coefficients, powers) of the first terms of phi: s^0, s^1, s^3, ..."""
    b = bernoulli(2 * terms)
    return ([Fraction(1, 2)] + [-b[2 * k] / factorial(2 * k)
                                for k in range(1, terms)],
            [0, *range(1, 2 * terms - 2, 2)])


def psi_series(terms: int) -> tuple[list[Fraction], list[int]]:
    """(coefficients, powers) of the first terms of psi: s^0, s^2, ..."""
    b = bernoulli(2 * terms)
    return ([(2 * k - 1) * b[2 * k] / factorial(2 * k)
             for k in range(1, terms + 1)],
            list(range(0, 2 * terms, 2)))


def tables() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """phi's and psi's coefficients, each correctly rounded, lowest power
    first."""
    return (tuple(map(float, phi_series(PHI_TERMS)[0])),
            tuple(map(float, psi_series(PSI_TERMS)[0])))


def left_out(series, terms: int, cut: Fraction) -> float:
    """The first term that a table of this many terms leaves out, at the
    cut, relative to the table's sum there."""
    values = [c * cut ** p for c, p in zip(*series(terms + 1))]
    return float(abs(values[-1]) / sum(values[:-1]))


def _rows(values) -> str:
    return "".join(f"\n    {', '.join(map(repr, values[i:i + 3]))},"
                   for i in range(0, len(values), 3))


if __name__ == "__main__":
    phi, psi = tables()
    print(f"# first term left out at the cut: "
          f"{left_out(phi_series, PHI_TERMS, PHI_CUT):.1e} of phi, "
          f"{left_out(psi_series, PSI_TERMS, PSI_CUT):.1e} of psi")
    print(f"_PHI_SERIES = np.array(({_rows(phi)}\n))[::-1]")
    print(f"_PSI_SERIES = np.array(({_rows(psi)}\n))[::-1]")
