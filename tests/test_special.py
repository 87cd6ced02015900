"""Scalar special functions: Lambert branches, normal helpers, the Newton loop."""

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheaptalk import special
from cheaptalk.errors import DomainError
from cheaptalk.special import (
    _ERFCX_CHEB,
    BRANCH_POINT,
    erfcx,
    lambert_w0,
    lambert_w0_conjugate,
    lambert_w_minus1,
    mills_ratio,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_sf,
)


def identity_defect(w: float, x: float) -> float:
    return abs(w * math.exp(w) - x)


class TestLambertW0:
    def test_known_values(self):
        # omega constant and the exact points 0, e
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-15)
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)
        assert lambert_w0(BRANCH_POINT) == -1.0
        assert lambert_w0(math.inf) == math.inf

    def test_identity_on_wide_grid(self):
        xs = np.concatenate([
            -np.exp(-1) + np.geomspace(1e-12, np.exp(-1), 400),
            np.geomspace(1e-12, 1e10, 400),
            [0.0],
        ])
        for x in xs:
            w = lambert_w0(float(x))
            assert identity_defect(w, float(x)) <= 1e-12 * max(1.0, abs(float(x)))

    def test_near_branch_point(self):
        for eps in (1e-15, 1e-12, 1e-9, 1e-6):
            w = lambert_w0(BRANCH_POINT + eps)
            assert -1.0 <= w < 0.0
            assert identity_defect(w, BRANCH_POINT + eps) <= 1e-13

    def test_monotone(self):
        xs = np.linspace(BRANCH_POINT, 5.0, 200)
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w0(BRANCH_POINT - 1e-6)
        with pytest.raises(DomainError):
            lambert_w0(math.nan)

    @given(st.floats(min_value=-0.3678, max_value=1e8))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, x):
        w = lambert_w0(x)
        assert identity_defect(w, x) <= 1e-12 * max(1.0, abs(x))


class TestLambertWMinus1:
    def test_known_values(self):
        assert lambert_w_minus1(-0.2) == pytest.approx(-2.5426413577735265,
                                                       abs=1e-13)
        assert lambert_w_minus1(BRANCH_POINT) == -1.0
        # W_{-1}(-exp(-2)) has the closed form -2 by construction
        assert lambert_w_minus1(-2.0 * math.exp(-2.0)) == pytest.approx(
            -2.0, abs=1e-14)

    def test_identity_on_grid(self):
        xs = -np.geomspace(1e-300, math.exp(-1.0), 500)
        for x in xs:
            w = lambert_w_minus1(float(x))
            assert w <= -1.0
            assert identity_defect(w, float(x)) <= 1e-12 * max(1.0, abs(float(x)))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w_minus1(1e-3)
        with pytest.raises(DomainError):
            lambert_w_minus1(0.0)
        with pytest.raises(DomainError):
            lambert_w_minus1(BRANCH_POINT - 1e-6)


class TestConjugate:
    def test_fixed_point_at_one(self):
        assert lambert_w0_conjugate(1.0) == -1.0

    def test_defining_identity(self):
        # t = W0(-u*exp(-u)) satisfies t*exp(t) = -u*exp(-u), t in [-1, 0)
        for u in np.concatenate([np.linspace(1.0, 2.0, 57)[1:],
                                 np.geomspace(2.0, 700.0, 80)]):
            t = lambert_w0_conjugate(float(u))
            assert -1.0 <= t < 0.0
            lhs = t * math.exp(t)
            rhs = -float(u) * math.exp(-float(u))
            assert abs(lhs - rhs) <= 1e-15

    def test_two_bin_route_agrees_with_direct_w0(self):
        for u in (1.5, 2.0, 3.0, 10.0):
            direct = lambert_w0(-u * math.exp(-u))
            assert lambert_w0_conjugate(u) == pytest.approx(direct, abs=5e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w0_conjugate(0.999)

    def test_limit_at_infinity(self):
        # -u*exp(-u) -> -0.0, as the finite u = 1e5 already gives
        for u in (1e5, math.inf):
            t = lambert_w0_conjugate(u)
            assert t == 0.0 and math.copysign(1.0, t) == -1.0


EPS = 2.0 ** -52


class CountingMath:
    """The math module, counting its exp and log calls: each Halley
    step makes one exp call, each lower-branch Newton step one log call
    and each quantile step one log call, plus one exp call while
    math.erfc serves. With no cap on _newton's loop, the count bounds
    its steps."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.calls += 1
        return math.exp(x)

    def log(self, x):
        self.calls += 1
        return math.log(x)


class TestLambertAgainstMpmath:
    """Every branch against 50-digit mpmath. W's relative condition
    number at x is 1/|1 + w|, so rounding in the residual alone moves w
    by about eps*|w/(1 + w)|; the results must lie within 4*eps*(|w| +
    |w/(1 + w)|). The conjugate's length s = t + u must lie within
    4*eps*u/(u - 1) relative. No call may take more than a few steps:
    each counts its exp and log calls."""

    RNG = np.random.default_rng(17)
    CASES = {
        "w0 positive": (lambert_w0, 0, np.concatenate((
            10.0 ** RNG.uniform(-12.0, 300.0, 200),
            RNG.uniform(0.0, math.e, 200)))),
        "w0 negative": (lambert_w0, 0, -RNG.uniform(0.0, math.exp(-1.0), 300)),
        "w-1 near the branch point": (
            lambert_w_minus1, -1, -RNG.uniform(0.25, math.exp(-1.0), 300)),
        "w-1 away from it": (
            lambert_w_minus1, -1,
            -(10.0 ** RNG.uniform(-300.0, math.log10(0.25), 300))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_branch(self, monkeypatch, name):
        f, branch, xs = self.CASES[name]
        counting = CountingMath()
        monkeypatch.setattr(special, "math", counting)
        with mp.workdps(50):
            for x in xs:
                x = float(x)
                counting.calls = 0
                w = f(x)
                assert counting.calls < 12, x
                ref = mp.lambertw(x, branch).real
                bound = 4 * EPS * (abs(w) + abs(w / (1.0 + w)))
                assert float(abs(w - ref)) <= bound, x

    def test_conjugate(self, monkeypatch):
        counting = CountingMath()
        monkeypatch.setattr(special, "math", counting)
        rng = np.random.default_rng(18)
        # u - 1 from 1e-5 to 1 holds the start of the Halley range (p = 1e-3
        # at u - 1 = 1e-3); the third block, down to 1e-15, the series return
        us = np.concatenate((1.0 + 10.0 ** rng.uniform(-5.0, 0.0, 150),
                             2.0 + 10.0 ** rng.uniform(-10.0, 2.8, 250),
                             1.0 + 10.0 ** rng.uniform(-15.0, -5.0, 150)))
        with mp.workdps(50):
            for u in us:
                u = float(u)
                counting.calls = 0
                s = lambert_w0_conjugate(u) + u
                assert counting.calls < 12, u
                ref = mp.lambertw(-u * mp.exp(-mp.mpf(u))).real + u
                assert float(abs(s / ref - 1)) <= 4 * EPS * u / (u - 1.0), u


class TestNormalHelpers:
    def test_pdf_cdf_known(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                    rel=1e-15)
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_sf(0.0) == 0.5
        assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_cdf_sf_complement(self):
        for x in np.linspace(-8, 8, 33):
            assert std_normal_cdf(float(x)) + std_normal_sf(float(x)) == \
                pytest.approx(1.0, abs=1e-14)

    def test_mills_ratio_definition(self):
        assert mills_ratio(0.0) == pytest.approx(0.7978845608028654, rel=1e-14)
        for x in (-3.0, -1.0, 0.5, 2.0, 5.0):
            direct = std_normal_pdf(x) / std_normal_sf(x)
            assert mills_ratio(x) == pytest.approx(direct, rel=1e-12)

    def test_mills_ratio_deep_tail(self):
        # naive pdf/sf underflows out here; the scaled form must not
        r = mills_ratio(40.0)
        assert r == pytest.approx(40.0 + 1.0 / 40.0, rel=1e-3)
        assert mills_ratio(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_mills_ratio_near_dbl_max_and_at_infinity(self):
        # pdf/sf is x + 1/x far out; erfcx is subnormal here, good to
        # about 1e-15 relative
        for x in (1e300, 1.3e308, 1.5e308):
            assert mills_ratio(x) == pytest.approx(x, rel=1e-14)
        assert mills_ratio(math.inf) == math.inf


def mp_erfcx(x):
    with mp.workdps(50):
        x = mp.mpf(x)
        return mp.exp(x * x) * mp.erfc(x)


def mp_relative_error(got, x, exact):
    want = exact(x)
    return float(abs(mp.mpf(got) - want) / want)


# 3 000 log-spaced points on [1e-8, 1e5]
LOG_GRID = np.logspace(-8.0, 5.0, 3000)


class TestErfcx:
    """erfcx from the one Chebyshev series, against 50-digit mpmath."""

    def test_table_regenerates_bit_for_bit(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "erfcx_chebyshev.py"
        spec = importlib.util.spec_from_file_location("erfcx_chebyshev", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.coefficients() == _ERFCX_CHEB

    def test_floats_on_log_grid(self):
        # Clenshaw's recurrence; bound 1e-15 relative, measured 5.9e-16
        worst = max(mp_relative_error(erfcx(x), x, mp_erfcx)
                    for x in LOG_GRID.tolist())
        assert worst <= 1e-15

    def test_zero_subnormals_and_infinity(self):
        tiny = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
        for x in tiny:
            assert erfcx(x) == pytest.approx(1.0, rel=2.3e-16, abs=0.0)
        assert erfcx(1e200) == pytest.approx(1e-200 / math.sqrt(math.pi),
                                             rel=1e-15)
        assert erfcx(math.inf) == 0.0

    def test_near_dbl_max(self):
        # the series is divided by 0.5 + x, which stays finite: erfcx is
        # 1/(x sqrt(pi)) there to one subnormal ulp, where 1 + 2x
        # overflows from about 9e307
        for x in (9e307, 1e308, 1.7e308, 1.7976931348623157e308):
            with mp.workdps(50):
                want = 1 / (mp.mpf(x) * mp.sqrt(mp.pi))
            assert abs(mp.mpf(erfcx(x)) - want) <= math.ulp(0.0), x

    def test_negative_arguments_down_to_overflow(self):
        # 2 exp(x^2) - erfcx(-x): exp(x^2) inherits the rounding of x^2,
        # so the bound is 4.4e-16 (1 + x^2) relative (measured 2.6e-16)
        for x in np.linspace(-26.6, -1e-3, 700).tolist():
            bound = 4.4e-16 * (1.0 + x * x)
            assert mp_relative_error(erfcx(x), x, mp_erfcx) <= bound, x
        # erfcx(-26.65) = 2 exp(710.2...) overflows a double
        for x in (-26.65, -27.0, -1e3, -math.inf):
            assert erfcx(x) == math.inf


def mp_quantile(q):
    """The exact normal quantile of the float q, by a root of log sf in
    50-digit arithmetic (erfinv(2q - 1) would need 300 digits at 1e-300)."""
    with mp.workdps(50):
        p = min(mp.mpf(q), 1 - mp.mpf(q))
        log_p = mp.log(p)
        y = mp.findroot(lambda t: mp.log(mp.erfc(t / mp.sqrt(2)) / 2) - log_p,
                        mp.sqrt(-2 * mp.log(2 * p)) if p < 0.5 else 0)
        return (y if q >= 0.5 else -y), mp.npdf(y), p


class TestQuantile:
    """std_normal_quantile, which SourceModel.quantile uses."""

    @pytest.mark.parametrize("tail", ["lower", "upper"])
    def test_against_mpmath(self, monkeypatch, tail):
        # q from 1e-300 to 1/2, mirrored to 1 - q up to 1 - 2^-53 for the
        # upper tail. The quantile of q is exact to within its condition:
        # bound 4 ulps of (|x| + min(q, 1 - q)/pdf(x)), measured 1.3.
        # Its Newton steps are bounded by counting exp and log calls.
        counting = CountingMath()
        monkeypatch.setattr(special, "math", counting)
        levels = np.concatenate((np.logspace(-300.0, np.log10(0.5), 400),
                                 [2.0 ** -53, 0.25, 0.4999999]))
        if tail == "upper":
            levels = np.concatenate((1.0 - levels[levels >= 2.0 ** -53],
                                     [1.0 - 2.0 ** -53]))
        for q in levels.tolist():
            want, density, p = mp_quantile(q)
            scale = abs(want) + p / density
            counting.calls = 0
            got = std_normal_quantile(q)
            assert counting.calls < 20, q
            assert float(abs(got - want) / scale) <= 4 * 2.0 ** -52, q

    def test_centre_subnormals_and_domain(self):
        assert std_normal_quantile(0.5) == 0.0
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054,
                                                           rel=1e-15)
        assert std_normal_quantile(5e-324) == pytest.approx(
            float(mp_quantile(5e-324)[0]), rel=1e-15)
        for q in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                std_normal_quantile(q)


class TestNewton:
    def test_stops_at_the_root_to_rounding(self):
        # x^2 = 2 from x = 2: the iterates fall onto sqrt(2), and the loop
        # stops on the first step that does not shrink, within an ulp
        root = special._newton(lambda x: (x * x - 2.0) / (2.0 * x), 2.0)
        assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    def test_nan_step_returns_the_iterate(self):
        assert special._newton(lambda x: math.nan, 3.0) == 3.0

    def test_zero_step_returns_the_iterate(self):
        # an exact root (f == 0) steps by 0, and the next 0 does not shrink
        assert special._newton(lambda x: 0.0, 3.0) == 3.0
