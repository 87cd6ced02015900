"""Scalar special functions and the shared Newton loop.

Everything downstream leans on four numerical primitives: the two real
branches of the Lambert W function, the standard normal pdf/cdf pair with
a tail-stable Mills ratio, and one Newton loop (_newton) for the scalar
equations whose closed-form step the caller supplies.

Every iteration here runs through _newton, which stops at the first
step that does not shrink: the Lambert W branches and the normal
quantile each hand it a step function. The Lambert W implementations
take Halley steps on w*exp(w) = x (lambert_w0_conjugate, near the branch
point, on the same equation shifted to w + 1 and formed from 1 + e*x),
or, for the lower branch away from the branch point, Newton steps on
v - log(v) = -log(-x) (v = -w), which stays well conditioned as x -> 0-.
Seeds: a series in p = sqrt(2*(1 + e*x)) near the branch point
x = -1/e and log-based asymptotics for large |log| regions.

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
from typing import Callable

from .errors import DomainError

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
    """Refine a seed for w*exp(w) = x by Halley steps through _newton.

    A step that would cross w = -1 off the branch goes halfway to -1
    instead; a zero residual is a zero step and a zero denominator a NaN
    one, and either ends the loop.
    """
    def step_at(w: float) -> float:
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return 0.0
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            return math.nan
        step = f / denom
        if (w - step > -1.0) if lower else (w - step < -1.0):
            return 0.5 * wp1
        return step

    return _newton(step_at, w)


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
    if x == math.inf:
        return x
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
    # the equation is well conditioned all the way down to x -> 0-. A
    # step that would reach v <= 1 goes halfway to 1 instead.
    y = -math.log(-x)

    def step_at(v: float) -> float:
        step = (v - math.log(v) - y) * v / (v - 1.0)
        return step if v - step > 1.0 else 0.5 * (v - 1.0)

    return -_newton(step_at, y + math.log(y))


def lambert_w0_conjugate(u: float) -> float:
    """Return W0(-u*exp(-u)) for u >= 1 without forming the argument.

    For u >= 1 the two real preimages of -u*exp(-u) under w*exp(w) are -u
    and a conjugate point t in (-1, 0]. Computing 1 + e*x directly from u
    avoids the cancellation that costs half the significant digits when
    u is close to 1, which is exactly where the near-threshold solves land.
    For 1 < u <= 2, Halley's iteration runs in t + 1 on an equation whose
    residual is formed from that 1 + e*x, so t + u is accurate to its
    conditioning eps*u/(u - 1); for u > 2 it runs on w*exp(w) = x. Both
    take their steps through _newton; u = inf gives the limit -0.0.
    """
    if math.isnan(u):
        raise DomainError("lambert_w0_conjugate is undefined for NaN")
    if u < 1.0:
        if u < 1.0 - 1e-12:
            raise DomainError("lambert_w0_conjugate requires u >= 1")
        u = 1.0
    if u > 2.0:
        if u == math.inf:
            return -0.0
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
    # not from x, so it keeps the digits that x loses near the branch point;
    # a step that would reach d <= 0 halves d instead
    def step_at(d: float) -> float:
        ed = math.exp(d)
        f = d * ed - math.expm1(d) - q
        slope = d * ed
        step = f / (slope - 0.5 * f * (1.0 + d) * ed / slope)
        return step if step < d else 0.5 * d

    return _newton(step_at, 1.0 + _branch_series(p)) - 1.0


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
# c_27 .. c_1, the order in which Clenshaw's recurrence reads them
_ERFCX_CLENSHAW = _ERFCX_CHEB[::-1]


def erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for a Python float, to a few ulps.

    x >= 0 sums the Chebyshev series of (1 + 2x) erfcx(x) by Clenshaw's
    recurrence and divides it by 1 + 2x as half of it by 0.5 + x, which
    stays finite up to DBL_MAX; x < 0 uses erfcx(x) = 2 exp(x^2) -
    erfcx(-x), which overflows to inf below about -26.6; erfcx(inf) = 0.
    """
    if x < 0.0:
        if x * x > 709.78:
            return math.inf
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x == math.inf:
        return 0.0
    t = (x - _ERFCX_K) / (x + _ERFCX_K)
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for c in _ERFCX_CLENSHAW:
        b1, b2 = c + t2 * b1 - b2, b1
    return 0.5 * (_ERFCX_C0 + t * b1 - b2) / (0.5 + x)


def std_normal_quantile(q: float) -> float:
    """Inverse of std_normal_cdf on 0 < q < 1.

    Newton's method on log sf(y) = log p for y >= 0, p = min(q, 1 - q)
    (1 - q is exact for q >= 1/2), from y = sqrt(-2 log 2p): log sf is
    concave, and sf(y) <= exp(-y^2/2)/2 puts the start at or past the
    root, so the iterates fall monotonically onto it, through _newton. sf
    comes from math.erfc while it is a normal float and from erfcx further
    out, so q down to the smallest subnormal works.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"the normal quantile needs 0 < q < 1, got {q!r}")
    p = min(q, 1.0 - q)
    log_p = math.log(p)

    def step_at(y: float) -> float:
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
        return (log_p - log_tail) * ratio

    y = _newton(step_at, math.sqrt(-2.0 * math.log(2.0 * p)))
    return y if q >= 0.5 else -y


def mills_ratio(x: float) -> float:
    """pdf(x) / (1 - cdf(x)), stable for arbitrarily deep upper tails.

    Uses the scaled complementary error function, so the ratio never
    degrades to 0/0 even where the tail probability itself underflows.
    Far out it is about x; at inf it is inf.
    """
    return x if x == math.inf else _SQRT_2_OVER_PI / erfcx(x / _SQRT2)


def _newton(step_at: Callable[[float], float], x: float) -> float:
    """Take Newton steps x -> x - step_at(x) until one does not shrink.

    On a root where the steps contract, they shrink until rounding noise
    sets their size, so the first step no shorter than the one before it
    (or a NaN step) marks the root to rounding; that iterate is returned
    without the step.
    """
    last = math.inf
    while True:
        step = step_at(x)
        if not abs(step) < last:
            return x
        x, last = x - step, abs(step)
