"""Scalar special functions and a bracketed root finder.

Everything downstream leans on four numerical primitives: the two real
branches of the Lambert W function, the standard normal pdf/cdf pair with
a tail-stable Mills ratio, and a derivative-free root finder with
guaranteed convergence on a sign-changing bracket.

The Lambert W implementations use Halley's iteration on w*exp(w) = x
(lambert_w0_conjugate, near the branch point, on the same equation
shifted to w + 1 and formed from 1 + e*x). Seeds: a series in
p = sqrt(2*(1 + e*x)) near the branch point x = -1/e, log-based
asymptotics for large |log| regions, and the identity
v - log(v) = -log(-x) (v = -w) for the lower branch away from the branch
point, which stays well conditioned as x -> 0-.

The normal tail has one home here: the scaled complementary error
function erfcx(x) = exp(x^2) erfc(x) for x >= 0 as one Chebyshev series
(Shepherd & Laframboise, Math. Comp. 1981) in t = (x - K)/(x + K), with
coefficients from scripts/erfcx_chebyshev.py, evaluated by Clenshaw's
recurrence (erfcx, under mills_ratio and the deep tail of
std_normal_quantile). Gaussian bin moments over arrays do not come from
here but from the fixed rule of sources._std_rule. The module runs on
the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, InvalidBracketError, NonConvergenceError

__all__ = [
    "BRANCH_POINT",
    "lambert_w0",
    "lambert_w_minus1",
    "lambert_w0_conjugate",
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_sf",
    "std_normal_quantile",
    "erfcx",
    "mills_ratio",
    "Bracket",
    "find_root",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

#: Location of the Lambert branch point, -1/e.
BRANCH_POINT = -math.exp(-1.0)

# Inputs this far below -1/e are treated as rounding noise and clamped.
_BRANCH_SLACK = 1e-12


def _branch_series(p: float) -> float:
    """Expansion of W about the branch point; p >= 0 selects the principal
    branch, p <= 0 the lower branch."""
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (
        -43.0 / 540.0 + p * (769.0 / 17280.0)))))


def _halley_wexp(w: float, x: float, *, lower: bool) -> float:
    """Refine a seed for w*exp(w) = x, keeping the iterate on its branch."""
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        step = f / denom
        w_next = w - step
        if lower and w_next > -1.0:
            w_next = 0.5 * (w - 1.0)
        elif not lower and w_next < -1.0:
            w_next = 0.5 * (w - 1.0)
        if abs(w_next - w) <= 1e-16 * abs(w_next):
            return w_next
        w = w_next
    return w


def lambert_w0(x: float) -> float:
    """Principal real branch: the solution w >= -1 of w*exp(w) = x.

    Defined on [-1/e, inf). Arguments within 1e-12 below -1/e are clamped
    to the branch point (they arise from rounding of inputs formed as
    -u*exp(-u)); anything lower raises DomainError.
    """
    if math.isnan(x):
        raise DomainError("lambert_w0 is undefined for NaN")
    if x < BRANCH_POINT:
        if x >= BRANCH_POINT - _BRANCH_SLACK:
            return -1.0
        raise DomainError(f"lambert_w0 is undefined for x={x!r} < -1/e")
    if x == 0.0:
        return 0.0
    if x < 0.0:
        q = 1.0 + math.e * x
        if q <= 0.0:
            return -1.0
        p = math.sqrt(2.0 * q)
        w = _branch_series(p)
        if p < 1e-3:
            # the series is already past double precision here and the
            # identity residual is dominated by the conditioning of x
            return w
    elif x <= math.e:
        w = math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    return _halley_wexp(w, x, lower=False)


def lambert_w_minus1(x: float) -> float:
    """Lower real branch: the solution w <= -1 of w*exp(w) = x on [-1/e, 0)."""
    if math.isnan(x):
        raise DomainError("lambert_w_minus1 is undefined for NaN")
    if x >= 0.0:
        raise DomainError("lambert_w_minus1 requires x < 0")
    if x < BRANCH_POINT:
        if x >= BRANCH_POINT - _BRANCH_SLACK:
            return -1.0
        raise DomainError(f"lambert_w_minus1 is undefined for x={x!r} < -1/e")
    if x <= -0.25:
        q = 1.0 + math.e * x
        if q <= 0.0:
            return -1.0
        p = math.sqrt(2.0 * q)
        w = _branch_series(-p)
        if p < 1e-3:
            return w
        return _halley_wexp(w, x, lower=True)
    # Solve v - log(v) = -log(-x) for v = -w > 1 by Newton; on this range
    # the equation is well conditioned all the way down to x -> 0-.
    y = -math.log(-x)
    v = y + math.log(y)
    for _ in range(60):
        g = v - math.log(v) - y
        step = g * v / (v - 1.0)
        v_next = v - step
        if v_next <= 1.0:
            v_next = 0.5 * (v + 1.0)
        if abs(v_next - v) <= 1e-16 * v_next:
            v = v_next
            break
        v = v_next
    return -v


def lambert_w0_conjugate(u: float) -> float:
    """Return W0(-u*exp(-u)) for u >= 1 without forming the argument.

    For u >= 1 the two real preimages of -u*exp(-u) under w*exp(w) are -u
    and a conjugate point t in (-1, 0]. Computing 1 + e*x directly from u
    avoids the cancellation that costs half the significant digits when
    u is close to 1, which is exactly where the near-threshold solves land.
    For 1 < u <= 2, Halley's iteration runs in t + 1 on an equation whose
    residual is formed from that 1 + e*x, so t + u is accurate to its
    conditioning eps*u/(u - 1); for u > 2 it runs on w*exp(w) = x.
    """
    if math.isnan(u):
        raise DomainError("lambert_w0_conjugate is undefined for NaN")
    if u < 1.0:
        if u < 1.0 - 1e-12:
            raise DomainError("lambert_w0_conjugate requires u >= 1")
        u = 1.0
    if u > 2.0:
        x = -math.exp(math.log(u) - u)
        return _halley_wexp(x, x, lower=False)
    eps = u - 1.0
    # 1 + e*x = 1 - (1+eps)*exp(-eps), written without cancellation
    q = -(math.expm1(-eps) + eps * math.exp(-eps))
    if q <= 0.0:
        return -1.0
    p = math.sqrt(2.0 * q)
    if p < 1e-3:
        return _branch_series(p)
    # Halley in d = w + 1 on h(d) = d*exp(d) - expm1(d) = q, which is
    # w*exp(w) = x times e, shifted by 1: its residual is formed from q,
    # not from x, so it keeps the digits that x loses near the branch point
    d = 1.0 + _branch_series(p)
    for _ in range(60):
        ed = math.exp(d)
        f = d * ed - math.expm1(d) - q
        slope = d * ed
        step = f / (slope - 0.5 * f * (1.0 + d) * ed / slope)
        d = d - step if step < d else 0.5 * d
        # rounding in the residual moves d by a few ulps of 1 whatever d is
        if abs(step) <= 4.0 * 2.0 ** -52:
            break
    return d - 1.0


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, via the complementary error
    function so neither tail suffers cancellation. Absolute accuracy is at
    the 1e-16 level everywhere."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_sf(x: float) -> float:
    """Upper tail 1 - cdf(x), computed directly from erfc."""
    return 0.5 * math.erfc(x / _SQRT2)


# c_1 .. c_27 of (1 + 2x) erfcx(x) = sum_k c_k T_k(t), t = (x - K)/(x + K),
# as printed by scripts/erfcx_chebyshev.py (50-digit mpmath, rounded to
# float64); 2.7e-16 worst relative error on [1e-8, 1e5].
_ERFCX_K = 3.75
_ERFCX_CHEB = (
    -0.004590054580646478, -0.08424913336651792, 0.05920993999819189,
    -0.026658668435305753, 0.009074997670705265, -0.002413163540417608,
    0.0004907758365258086, -6.916973302501207e-05, 4.13902798607301e-06,
    7.74038306619849e-07, -2.1886401049234397e-07, 1.076499946567091e-08,
    4.521959811218287e-09, -7.754400208831351e-10, -6.318088340886684e-11,
    2.86879501093067e-11, 1.9455868545777347e-13, -9.65469674843344e-13,
    3.25254814814874e-14, 3.3478119482868056e-14, -1.864562880419313e-15,
    -1.2507950530688648e-15, 7.418235256624044e-17, 5.068148904796111e-17,
    -2.2370566594359995e-18, -2.187342944303018e-18, 2.6766327399258762e-20,
)
# c_0 follows from erfcx(0) = 1, where t = -1 and T_k(-1) = (-1)^k.
_ERFCX_C0 = 1.0 - math.fsum((-1) ** k * c for k, c in enumerate(_ERFCX_CHEB, 1))


def erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for a Python float, to a few ulps.

    x >= 0 sums the Chebyshev series by Clenshaw's recurrence; x < 0
    uses erfcx(x) = 2 exp(x^2) - erfcx(-x), which overflows to inf below
    about -26.6; erfcx(inf) = 0.
    """
    if x < 0.0:
        if x * x > 709.78:
            return math.inf
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x == math.inf:
        return 0.0
    t = (x - _ERFCX_K) / (x + _ERFCX_K)
    b1 = b2 = 0.0
    for c in reversed(_ERFCX_CHEB):
        b1, b2 = c + 2.0 * t * b1 - b2, b1
    return (_ERFCX_C0 + t * b1 - b2) / (1.0 + 2.0 * x)


def std_normal_quantile(q: float) -> float:
    """Inverse of std_normal_cdf on 0 < q < 1.

    Newton's method on log sf(y) = log p for y >= 0, p = min(q, 1 - q)
    (1 - q is exact for q >= 1/2), from y = sqrt(-2 log 2p): log sf is
    concave, and sf(y) <= exp(-y^2/2)/2 puts the start at or past the
    root, so the iterates fall monotonically onto it. sf comes from
    math.erfc while it is a normal float and from erfcx further out, so
    q down to the smallest subnormal works.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"the normal quantile needs 0 < q < 1, got {q!r}")
    p = min(q, 1.0 - q)
    log_p = math.log(p)
    y = math.sqrt(-2.0 * math.log(2.0 * p))
    for _ in range(100):
        h = y / _SQRT2
        tail = 0.5 * math.erfc(h)
        if tail > 1e-290:
            # sf(y) / pdf(y); exp(h^2) errs by h^2 ulps, which only
            # slows the step, not the root
            ratio = tail * _SQRT_2PI * math.exp(h * h)
            log_tail = math.log(tail)
        else:
            scaled = erfcx(h)
            ratio = _SQRT_PI_OVER_2 * scaled
            log_tail = math.log(0.5 * scaled) - h * h
        step = (log_tail - log_p) * ratio
        y += step
        if abs(step) <= 1e-9 * (1.0 + y):
            break
    return y if q >= 0.5 else -y


def mills_ratio(x: float) -> float:
    """pdf(x) / (1 - cdf(x)), stable for arbitrarily deep upper tails.

    Uses the scaled complementary error function, so the ratio never
    degrades to 0/0 even where the tail probability itself underflows.
    """
    return _SQRT_2_OVER_PI / erfcx(x / _SQRT2)


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] whose endpoint values straddle zero.

    Endpoint values may be exactly zero; strictly same-signed endpoints
    raise InvalidBracketError.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidBracketError(
                f"bracket endpoints must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if any(math.isnan(v) for v in (self.f_lo, self.f_hi)):
            raise InvalidBracketError("bracket endpoint values must not be NaN")
        if self.f_lo * self.f_hi > 0.0:
            raise InvalidBracketError(
                f"no sign change on [{self.lo}, {self.hi}]: "
                f"f(lo)={self.f_lo!r}, f(hi)={self.f_hi!r}")

    @classmethod
    def scan(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        """Evaluate f at both endpoints and build the bracket."""
        return cls(lo, hi, f(lo), f(hi))


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol: float = 1e-12, max_iter: int = 200) -> float:
    """Locate a root of f inside a sign-changing bracket.

    Inverse-quadratic/secant steps with a bisection fallback, so progress
    is guaranteed. Returns r once |f(r)| <= tol or the bracket width has
    shrunk to tol (with a machine-epsilon floor near r).
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        xm = 0.5 * (c - b)
        width_floor = 2.0 * 2.220446049250313e-16 * abs(b) + 0.5 * tol
        if abs(xm) <= width_floor or fb == 0.0 or abs(fb) <= tol:
            return b
        if abs(e) < width_floor or abs(fa) <= abs(fb):
            d = e = xm  # bisection
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(width_floor * q), abs(e * q)):
                e = d
                d = p / q  # accept interpolation
            else:
                d = e = xm
        a, fa = b, fb
        b += d if abs(d) > width_floor else math.copysign(width_floor, xm)
        fb = f(b)
    raise NonConvergenceError(
        f"root finder did not converge in {max_iter} iterations",
        iterations=max_iter)
