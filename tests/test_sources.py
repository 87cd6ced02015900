"""Source models: densities, interval probabilities, truncated moments."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheaptalk import sources
from cheaptalk.dynamics import COLLAPSE_LENGTH
from cheaptalk.equilibrium import (
    Partition,
    certify,
    decoder_best_response,
    decoder_cost,
)
from cheaptalk.errors import DomainError, ZeroProbabilityError
from cheaptalk.exponential import h
from cheaptalk.sources import (
    _EXP_POWERS,
    _EXP_SERIES,
    _GL_HALF,
    SourceModel,
    _exp_unit_mean,
    _exp_window_variance,
    _std_interval_slopes,
)

EXP = SourceModel.exponential(1.0)
GAUSS = SourceModel.gaussian(0.0, 1.0)

INF = math.inf
# (source, increasing edges) for the array bin-moment layer: half-infinite
# bins on either side, short and deep-tail bins, and ladder-style arrays
# whose last edge is a finite cut rather than the support endpoint
BIN_CASES = (
    (SourceModel.gaussian(0.7, 1.3),
     (-INF, -2.0, -0.5, 0.3, 0.31, 2.5, 4.0, INF)),
    (GAUSS, (-INF, -1.0, 0.2, 1.1, 1.9)),
    (GAUSS, (-7.5, -7.0, -6.0, 5.0, 5.5, INF)),
    (SourceModel.exponential(1.7), (0.0, 0.2, 0.9, 3.0, INF)),
    (SourceModel.exponential(0.4), (-INF, 0.5, 2.0, 2.0005, 6.5)),
    (EXP, (-1.0, 1e-3, 30.0, 31.0)),
    # short same-tail bins, where the erfcx mass difference cancels
    (GAUSS, (-0.3, -0.3 + 1e-12, 5.0, 5.0 + 1e-10, 30.0, 30.0 + 1e-9)),
)

# (source, rows of equal-length edges) for 2-D calls: Gaussian rows with
# infinite ends, short same-tail bins under 1e-6 wide, bins near
# |z| = 40, and exponential rows starting at 0
ROW_CASES = (
    (GAUSS, (
        (-INF, -1.0, 0.2, 1.1, 1.9, INF),
        (-INF, 3.0, 3.0 + 4e-7, 3.0 + 9e-7, 5.0, INF),
        (-INF, -40.5, -40.0, -40.0 + 3e-7, 39.8, 40.1),
        (-41.0, -2.0, -2.0 + 5e-8, 0.0, 40.0, INF),
    )),
    (SourceModel.gaussian(0.7, 1.3), (
        (-INF, -2.0, -0.5, 0.3, 0.31, INF),
        (-INF, 52.0, 52.0 + 1e-6, 53.0, 60.0, INF),
    )),
    (EXP, (
        (0.0, 0.2, 0.9, 3.0, INF),
        (0.0, 1e-9, 2e-9, 700.0, INF),
        (0.0, 0.5, 0.5 + 1e-7, 2.0, 40.0),
    )),
)


def mp_bin_prob(src, lo, hi):
    """50-digit probability of (lo, hi), independent of the float code."""
    with mp.workdps(50):
        if src.kind == "exponential":
            def sf(x):
                return mp.mpf(1) if x <= 0 else mp.exp(-src.rate * mp.mpf(x))
        else:
            def sf(x):
                return mp.ncdf(-(mp.mpf(x) - src.mean) / src.std)
        return float(sf(lo) - sf(hi))


def mp_pdf(x):
    return mp.mpf(0) if mp.isinf(x) else mp.npdf(x)


def mp_xpdf(x):
    return mp.mpf(0) if mp.isinf(x) else x * mp.npdf(x)


def mp_std_mass(a, b):
    """Standard normal mass of (a, b) in the working precision, as a
    difference of two upper tails (two lower tails for bins mostly below
    the origin)."""
    if b > -a:
        return (mp.erfc(a / mp.sqrt(2)) - mp.erfc(b / mp.sqrt(2))) / 2
    return (mp.erfc(-b / mp.sqrt(2)) - mp.erfc(-a / mp.sqrt(2))) / 2


def mp_std_mean(a, b):
    """Standard normal mean on (a, b) in the working precision."""
    return (mp_pdf(a) - mp_pdf(b)) / mp_std_mass(a, b)


def mp_std_variance(lo, hi):
    """80-digit variance of a standard normal on (lo, hi), closed form."""
    with mp.workdps(80):
        a, b = mp.mpf(lo), mp.mpf(hi)
        mu = mp_std_mean(a, b)
        return float(1 + (mp_xpdf(a) - mp_xpdf(b)) / mp_std_mass(a, b)
                     - mu * mu)


def mp_raw_moments(src, lo, hi):
    """50-digit E[M] and E[M^2] of a Gaussian source on (lo, hi)."""
    with mp.workdps(50):
        mu, sd = mp.mpf(src.mean), mp.mpf(src.std)
        a, b = (mp.mpf(lo) - mu) / sd, (mp.mpf(hi) - mu) / sd
        e1 = mp_std_mean(a, b)
        e2 = 1 + (mp_xpdf(a) - mp_xpdf(b)) / mp_std_mass(a, b)
        return (float(mu + sd * e1),
                float(mu * mu + sd * (2 * mu * e1 + sd * e2)))


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SourceModel.exponential(0.0)
        with pytest.raises(DomainError):
            SourceModel.exponential(-1.0)
        with pytest.raises(DomainError):
            SourceModel.gaussian(0.0, 0.0)
        with pytest.raises(DomainError):
            SourceModel.gaussian(math.inf, 1.0)

    def test_support_and_headline_moments(self):
        assert EXP.support == (0.0, math.inf)
        assert GAUSS.support == (-math.inf, math.inf)
        assert EXP.expected_value == 1.0
        assert EXP.variance == 1.0
        src = SourceModel.exponential(4.0)
        assert src.expected_value == 0.25
        assert src.variance == 0.0625
        g = SourceModel.gaussian(2.0, 3.0)
        assert g.expected_value == 2.0
        assert g.variance == 9.0

    def test_describe_round_trips_parameters(self):
        d = SourceModel.exponential(2.5).describe()
        assert d == {"kind": "exponential", "rate": 2.5}
        d = SourceModel.gaussian(-1.0, 0.5).describe()
        assert d == {"kind": "gaussian", "mean": -1.0, "std": 0.5}


class TestDistributionFunctions:
    def test_pdf_cdf_spot_values(self):
        assert EXP.pdf(0.0) == 1.0
        assert EXP.pdf(-1.0) == 0.0
        assert EXP.cdf(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
        assert GAUSS.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                               rel=1e-15)
        assert GAUSS.cdf(0.0) == 0.5

    def test_quantile_round_trip(self):
        for src in (EXP, GAUSS, SourceModel.exponential(3.0),
                    SourceModel.gaussian(2.0, 0.5)):
            for q in (1e-6, 0.001, 0.3, 0.5, 0.9, 0.999):
                assert src.cdf(src.quantile(q)) == pytest.approx(q, abs=1e-12)

    def test_quantile_endpoints(self):
        assert EXP.quantile(0.0) == 0.0
        assert EXP.quantile(1.0) == math.inf
        assert GAUSS.quantile(0.0) == -math.inf
        with pytest.raises(DomainError):
            EXP.quantile(1.5)

    def test_interval_prob_spot_values(self):
        assert EXP.interval_prob(0.0, math.inf) == pytest.approx(1.0, rel=1e-15)
        assert EXP.interval_prob(0.0, math.log(2.0)) == pytest.approx(0.5,
                                                                      rel=1e-14)
        assert GAUSS.interval_prob(-math.inf, 0.0) == pytest.approx(0.5,
                                                                    rel=1e-14)
        assert GAUSS.interval_prob(-1.0, 1.0) == pytest.approx(
            0.6826894921370859, rel=1e-13)

    def test_interval_prob_deep_tail_positive(self):
        # differences of cdf would cancel to zero out here
        p = GAUSS.interval_prob(38.0, 39.0)
        assert p > 0.0
        p2 = EXP.interval_prob(700.0, 701.0)
        assert p2 > 0.0

    @given(st.floats(min_value=-5, max_value=5),
           st.floats(min_value=1e-3, max_value=5),
           st.floats(min_value=1e-3, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_interval_prob_additive(self, a, d1, d2):
        b, c = a + d1, a + d1 + d2
        for src in (EXP, GAUSS):
            lo, _ = src.support
            aa, bb, cc = max(a, lo), max(b, lo), max(c, lo)
            if not aa < bb < cc:
                continue
            total = src.interval_prob(aa, cc)
            split = src.interval_prob(aa, bb) + src.interval_prob(bb, cc)
            assert split == pytest.approx(total, abs=1e-14)

    def test_sampling_deterministic_and_in_support(self):
        rng = np.random.default_rng(42)
        x = EXP.sample(rng, 1000)
        assert np.all(x >= 0.0)
        rng2 = np.random.default_rng(42)
        assert np.array_equal(x, EXP.sample(rng2, 1000))
        g = GAUSS.sample(np.random.default_rng(1), 100_000)
        assert abs(float(np.mean(g))) < 0.02


class TestExponentialMoments:
    def test_window_gap_limits(self):
        for rate in (0.3, 1.0, 2.0, 7.0):
            # zero-length window: conditional mean gap is the full 1/rate
            assert h(0.0, rate) == 1.0 / rate
            # infinite window: memoryless tail, no gap at all
            for a in (0.0, 0.25, 3.0, 1e10):
                assert EXP.bin_means([a, INF])[0] == a + 1.0
                src = SourceModel.exponential(rate)
                assert src.bin_means([a, INF])[0] == a + 1.0 / rate
        # huge window: memoryless tail, gap exactly 0
        assert h(1000.0, 1.0) == 0.0
        # the mean's kernel: 0 on an empty window, 1 on an infinite one
        assert _exp_unit_mean(np.array([0.0, 709.78, 1e300, INF])).tolist() \
            == [0.0, 1.0, 1.0, 1.0]

    def test_gap_against_mpmath(self):
        # s/expm1(s) at rate 1 on a log grid of s out to 700, plus 0,
        # subnormal s and s on both sides of 1e-16, below which expm1(s)
        # rounds to s
        grid = 10.0 ** np.linspace(-300.0, math.log10(700.0), 1001)
        tiny = [0.0, 5e-324, 1e-310, 2e-308, 1e-16, 9.9e-17, 1.01e-16,
                np.nextafter(1e-16, 0.0), np.nextafter(1e-16, 1.0)]
        s = np.concatenate((grid, tiny))
        got = [h(v, 1.0) for v in s.tolist()]
        with mp.workdps(50):
            exact = [mp.mpf(v) / mp.expm1(v) if v else mp.mpf(1) for v in s]
            rel = [abs(mp.mpf(g) / e - 1) for g, e in zip(got, exact)]
        assert float(max(rel)) <= 2e-16
        # past s = 709.78 the gap is set to 0; the true gap s*exp(-s) is
        # already below 4e-306 there
        far = [709.79, 717.0, 745.0, 800.0, 1e300]
        assert all(h(v, 1.0) == 0.0 for v in far)
        with mp.workdps(50):
            assert all(mp.mpf(v) / mp.expm1(v) < 4e-306 for v in far)
        # the mean's kernel 1 - s/expm1(s) on the same grid, in ulps of
        # its value, with the working precision raised past the digits
        # that 1 - s/expm1(s) cancels (measured 2.2 ulps); subnormal s
        # gives s/2 correctly rounded
        offsets = _exp_unit_mean(s).tolist()
        for v, k in zip(s.tolist(), offsets):
            with mp.workdps(50 + max(0, -int(math.log10(v))) if v else 50):
                want = 1 - mp.mpf(v) / mp.expm1(v) if v else mp.mpf(0)
                ulps = 0.5 if want < sys.float_info.min else 2.5
                assert abs(k - want) <= ulps * mp.mpf(math.ulp(float(want))), v
        assert _exp_unit_mean(np.array(far)).tolist() == [1.0] * len(far)

    def test_gap_small_window_taylor(self):
        # s/(e^s - 1) = 1 - s/2 + s^2/12 + O(s^4), scaled by 1/rate
        for rate in (1.0, 7.0):
            s = 1e-4
            taylor = (1.0 - s / 2.0 + s * s / 12.0) / rate
            assert h(s / rate, rate) == pytest.approx(taylor, rel=1e-12)
            # and the mean's offset, (s/2 - s^2/12 + O(s^4))/rate
            offset = EXP.bin_means([0.0, s])[0]
            assert offset == pytest.approx(s / 2.0 - s * s / 12.0, rel=1e-12)

    def test_unit_mean_series_regenerates_bit_for_bit(self):
        # s/2 - sum_k B_2k s^2k/(2k)!, k = 8 down to 1, from mpmath's
        # Bernoulli numbers, each correctly rounded
        with mp.workdps(50):
            want = [float(-mp.bernoulli(2 * k) / mp.factorial(2 * k))
                    for k in range(8, 0, -1)] + [0.5]
        assert _EXP_SERIES.tolist() == want
        assert _EXP_POWERS.tolist() == [16.0, 14.0, 12.0, 10.0, 8.0, 6.0,
                                        4.0, 2.0, 1.0]

    @pytest.mark.parametrize("rate", (1e-300, 1e-200, 1e-100, 1e-3, 1.0, 1e3))
    def test_bin_moments_against_mpmath(self, rate):
        # 600 random bins per rate, rate*length from 1e-12 to 700, half of
        # them starting at 0 and half at up to 50/rate, against 80-digit
        # mpmath: every mean within 3 ulps and inside its bin (measured
        # 2.3), every mass within 2 ulps scaled by 1 + rate*start, the
        # conditioning of exp(-rate*start) (measured 1.3), every variance
        # within 5 ulps (measured 4.2), or inf where it passes DBL_MAX.
        # Before the mean read s = rate*length through one kernel, a bin
        # [0, 1e-12/rate] had its mean some 1e12 ulps off
        rng = np.random.default_rng(30)
        s = 10.0 ** rng.uniform(-12.0, math.log10(700.0), 600)
        lo = np.where(np.arange(600) % 2 == 0, 0.0,
                      rng.uniform(0.0, 50.0, 600) / rate)
        rows = np.stack((lo, lo + s / rate), -1)
        src = SourceModel.exponential(rate)
        probs, means, variances = (f(rows)[:, 0].tolist() for f in (
            src.bin_probs, src.bin_means, src.bin_variances))
        with mp.workdps(80):
            r = mp.mpf(rate)
            for (a, b), p, m, v in zip(rows.tolist(), probs, means,
                                       variances):
                start, length = mp.mpf(a), mp.mpf(b) - mp.mpf(a)
                mass = mp.exp(-r * start) * -mp.expm1(-r * length)
                mean = start + 1 / r - length / mp.expm1(r * length)
                half = r * length / 2
                var = (1 - (half / mp.sinh(half)) ** 2) / r ** 2
                assert a <= m <= b, (a, b)
                assert abs(m - mean) <= 3 * math.ulp(float(mean)), (a, b)
                assert abs(p - mass) <= (
                    2 * (1 + rate * a) * math.ulp(float(mass))), (a, b)
                if var > sys.float_info.max:
                    assert v == INF, (a, b)
                else:
                    assert abs(v - var) <= 5 * math.ulp(float(var)), (a, b)

    def test_truncated_mean_two_bin_identity(self):
        # the two-bin equilibrium edge sits exactly 1/rate above the
        # lower conditional mean
        m1 = 1.5936242600400401
        assert EXP.truncated_mean(0.0, m1) == pytest.approx(m1 - 1.0, abs=1e-14)

    def test_truncated_mean_tail(self):
        assert EXP.truncated_mean(3.0, math.inf) == pytest.approx(4.0, rel=1e-14)
        src = SourceModel.exponential(0.25)
        assert src.truncated_mean(8.0, math.inf) == pytest.approx(12.0, rel=1e-14)

    def test_window_variance_value(self):
        assert EXP.truncated_variance(0.0, 2.0) == pytest.approx(
            0.27593833903368953, rel=1e-13)
        assert EXP.truncated_variance(0.0, math.inf) == pytest.approx(1.0,
                                                                      rel=1e-14)

    def test_window_variance_translation_invariant(self):
        # memorylessness: variance depends only on window length
        a = EXP.truncated_variance(0.0, 1.5)
        b = EXP.truncated_variance(7.0, 8.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_window_variance_series_and_saturation(self):
        # (1 - (s/sinh s)^2)/rate^2, s = rate*length/2, in 50-digit mpmath,
        # to 2e-15 relative from s = 1e-12 to 1e3, through the series
        # cut at s = 1 and the saturation at 350 (measured 6.3e-16)
        rate = 0.37
        s = np.concatenate((np.logspace(-12.0, 3.0, 301),
                            [np.nextafter(1.0, 0.0), 1.0, 1.0 + 1e-12, 350.0]))
        got = _exp_window_variance(2.0 * s / rate, rate)
        with mp.workdps(50):
            for si, v in zip((2.0 * s / rate).tolist(), got.tolist()):
                half = mp.mpf(rate) * mp.mpf(si) / 2
                want = (1 - (half / mp.sinh(half)) ** 2) / mp.mpf(rate) ** 2
                assert abs(v - want) <= 2e-15 * want, si
        assert _exp_window_variance(np.array([0.0, INF]), rate).tolist() == \
            [0.0, 1.0 / rate ** 2]
        assert _exp_window_variance(900.0, 1.0) == 1.0
        # tiny window behaves like a uniform: l^2/12
        assert _exp_window_variance(1e-6, 1.0) == pytest.approx(1e-12 / 12.0,
                                                                rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_variance_past_dbl_max_is_inf_without_a_warning(self):
        # rate 1e-200: a bin 1e150 long has variance about 1e300/12, and
        # the longer ones pass DBL_MAX
        got = SourceModel.exponential(1e-200).bin_variances(
            [0.0, 1e150, 1.5936242600400402e200, INF])
        assert got[0] == pytest.approx(1e300 / 12.0, rel=1e-15)
        assert got[1:].tolist() == [INF, INF]

    @pytest.mark.parametrize("rate", (1e-150, 1e-200, 1e-250, 1e-300))
    def test_window_variance_at_tiny_rates(self, rate):
        # below s = 1.5e-154, s^2 is subnormal or 0, and a variance formed
        # as d*(2 - d)/rate^2 from d ~ s^2/3 lost its digits (0.0 at
        # length 1e-100 and rate 1e-200); against 50-digit mpmath, with
        # the working precision raised so that 1 - (s/sinh s)^2 keeps 50
        # digits down to s = 1e-300
        s = np.concatenate((np.logspace(-300.0, 0.0, 151),
                            [1.4e-154, 1.5e-154, 3e-154, 4e-154]))
        length = 2.0 * s / rate
        got = _exp_window_variance(length, rate)
        with mp.workdps(700):
            for li, v in zip(length.tolist(), got.tolist()):
                half = mp.mpf(rate) * mp.mpf(li) / 2
                want = (1 - (half / mp.sinh(half)) ** 2) / mp.mpf(rate) ** 2
                if want > sys.float_info.max:
                    assert v == INF, li
                else:
                    assert abs(v - want) <= 2e-15 * want, li
        assert _exp_window_variance(1e-100, 1e-200) == pytest.approx(
            1e-200 / 12.0, rel=1e-15)

    def test_zero_probability_interval_raises(self):
        with pytest.raises(ZeroProbabilityError):
            EXP.truncated_mean(-3.0, -1.0)


class TestGaussianMoments:
    def test_bins_past_dbl_max_in_std_units(self):
        # at std 1e-300 the edges 1e10 and 1e20 are both +inf in std
        # units: such a bin is a DomainError naming it, where it read as
        # the whole line (mass 1, mean NaN); -1e10 to 1e10 is the whole
        # line there, and nothing warns (RuntimeWarning fails the test)
        src = SourceModel.gaussian(0.0, 1e-300)
        for edges in ([1e10, 1e20], [-1.0, 1e10, 1e20], [-1e20, -1e10],
                      [[-1.0, 0.0, 1.0], [-1.0, 1e10, 1e20]]):
            for method in (src.bin_probs, src.bin_means, src.bin_variances):
                with pytest.raises(DomainError, match=r"bin \[10000000000.0, "
                                   r"1e\+20\]|bin \[-1e\+20, -10000000000.0\]"):
                    method(edges)
        assert src.bin_probs([-1e10, 1e10]).tolist() == [1.0]
        assert src.bin_means([-1e10, 1e10]).tolist() == [0.0]
        # e - mean itself overflows
        with pytest.raises(DomainError, match="both ends at -inf"):
            SourceModel.gaussian(1e308, 0.5).bin_means([-1e308, 0.0, 1e308])
        # finite ends that round to one value in std units
        with pytest.raises(DomainError, match=r"bin \[1.0, 2.0\] has both "
                           r"ends at -1e\+20"):
            SourceModel.gaussian(1e20, 1.0).bin_means([1.0, 2.0])

    def test_half_line_means(self):
        root = math.sqrt(2.0 / math.pi)
        assert GAUSS.truncated_mean(-math.inf, 0.0) == pytest.approx(-root,
                                                                     rel=1e-14)
        assert GAUSS.truncated_mean(0.0, math.inf) == pytest.approx(root,
                                                                    rel=1e-14)
        src = SourceModel.gaussian(5.0, 2.0)
        assert src.truncated_mean(5.0, math.inf) == pytest.approx(
            5.0 + 2.0 * root, rel=1e-14)

    def test_whole_line(self):
        assert GAUSS.truncated_mean(-math.inf, math.inf) == pytest.approx(
            0.0, abs=1e-15)
        assert GAUSS.truncated_variance(-math.inf, math.inf) == 1.0
        # exactly (1, mean, std**2) for any source, alone and as a row of
        # a 2-D call, where the rule's sums are a few ulps off
        for mean, std in ((0.0, 1.0), (5.0, 2.0), (-3.0, 0.1),
                          (1e300, 1e-300), (-2.5e-7, 3e150)):
            src = SourceModel.gaussian(mean, std)
            for edges in ([-INF, INF], [[-INF, INF], [-INF, INF]]):
                assert src.bin_probs(edges).flat[0] == 1.0
                assert src.bin_means(edges).flat[0] == mean
                assert src.bin_variances(edges).flat[0] == std * std

    def test_symmetric_interval_mean_is_zero(self):
        for w in (0.3, 1.0, 4.0):
            assert GAUSS.truncated_mean(-w, w) == pytest.approx(0.0, abs=1e-14)

    def test_branch_consistency_against_quadrature(self):
        intervals = [(-1.0, 1.0), (0.0, 2.0), (-2.0, 0.0), (0.5, 0.7),
                     (-3.0, -2.5), (2.5, 3.0), (-0.2, 5.0), (-math.inf, -1.0),
                     (1.0, math.inf)]
        src = SourceModel.gaussian(0.7, 1.3)
        for lo, hi in intervals:
            closed = src.truncated_mean(lo, hi)
            quad = src.quadrature_moment(lo, hi, 1)
            assert closed == pytest.approx(quad, abs=1e-10)

    def test_deep_tail_interval_mean_stable(self):
        m = GAUSS.truncated_mean(38.0, 39.0)
        assert 38.0 < m < 38.1
        m2 = GAUSS.truncated_mean(-39.0, -38.0)
        assert -38.1 < m2 < -38.0

    def test_masses_sum_to_one_within_n_ulps(self):
        # each mass is good to a few ulps, so n masses sum to 1 only
        # within about n ulps (the two half-lines give 1 + 2^-52); the
        # worst of 20 000 such partitions came to n ulps
        eps = np.finfo(float).eps
        assert abs(GAUSS.bin_probs((-INF, 0.0, INF)).sum() - 1.0) <= 4.0 * eps
        rng = np.random.default_rng(23)
        for _ in range(2000):
            src = SourceModel.gaussian(rng.uniform(-3.0, 3.0),
                                       10.0 ** rng.uniform(-1.0, 1.0))
            spread = 10.0 ** rng.uniform(-2.0, 0.7)
            inner = np.unique(src.mean + src.std * (
                rng.uniform(-6.0, 6.0)
                + rng.normal(0.0, spread, int(rng.integers(1, 60)))))
            p = src.bin_probs(np.concatenate(([-INF], inner, [INF])))
            assert abs(p.sum() - 1.0) <= 2.0 * p.size * eps

    def test_variance_positive_and_below_marginal(self):
        for lo, hi in [(-1.0, 1.0), (0.0, 0.5), (2.0, math.inf), (-4.0, -3.0)]:
            v = GAUSS.truncated_variance(lo, hi)
            assert 0.0 < v < 1.0

    @pytest.mark.parametrize("lo, hi, rel", [
        (0.0, 1e6, 1e-13), (1.0, 1e4, 1e-13), (-1e5, 1e5, 1e-13),
        (-1e4, -1.0, 1e-13), (20.0, INF, 1e-13), (-INF, -8.0, 1e-13),
        (-INF, 0.3, 1e-13), (-2.0, 3.0, 1e-13), (7.0, 30.0, 1e-13),
        (-5e3, -25.0, 4e-15), (-1e-6, 1e-6, 4e-15),
        # bins COLLAPSE_LENGTH wide
        (-0.3, -0.3 + 1e-12, 4e-15), (5.0, 5.0 + 1e-12, 4e-15),
        (-40.0, -40.0 + 1e-12, 4e-15), (-1e-12, 0.0, 4e-15),
        # deep tails, and bins a few ulps wide there
        (1e3, INF, 1e-13), (1e5, INF, 1e-13), (-INF, -1e5, 1e-13),
        (1e5, 1e5 + 3 * math.ulp(1e5), 1e-13),
        (-1e3 - 5 * math.ulp(1e3), -1e3, 1e-13)])
    def test_variance_against_mpmath(self, lo, hi, rel):
        # includes long bins whose mass sits in a sliver at one end
        assert GAUSS.truncated_variance(lo, hi) == pytest.approx(
            mp_std_variance(lo, hi), rel=rel, abs=0.0)

    def test_variance_on_random_bins(self):
        # |z| <= 40: finite bins 1e-12 to 300 wide, half-lines and bins
        # straddling the origin
        rng = np.random.default_rng(6)
        lo = rng.uniform(-40.0, 40.0, 120)
        hi = lo + 10.0 ** rng.uniform(-12.0, math.log10(300.0), 120)
        hi[::6], lo[1::6] = INF, -INF
        lo[2::6] = -(10.0 ** rng.uniform(-6.0, 2.0, 20))
        hi[2::6] = 10.0 ** rng.uniform(-6.0, 2.0, 20)
        got = np.concatenate([GAUSS.bin_variances((a, b))
                              for a, b in zip(lo, hi)])
        want = np.array([mp_std_variance(a, b) for a, b in zip(lo, hi)])
        assert float(np.abs(got / want - 1.0).max()) <= 4e-15

    def test_cost_of_long_bins(self):
        p = Partition((-INF, -1e5, 1e5, INF), GAUSS, 0.0)
        assert decoder_cost(p).decoder_cost == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("near", [1e9, 1e12, 1e100])
    def test_far_edges_against_mpmath(self, near):
        # past |z| = 6.7e8, near + 50/near rounds to near; the window is
        # formed in offsets from near, so these bins keep their variance,
        # about 1/near^2, and their mean, near + 1/near, which rounds to
        # near and is returned exactly. The reference keeps 50 digits
        # through the cancellation in 1 + a pdf(a)/sf(a) - mean^2
        # (mpmath's erfc this far out needs about 10 working digits per
        # decade of near for that)
        digits = 50 + 10 * int(math.log10(near))
        with mp.workdps(digits):
            a = mp.mpf(near)
            mean = mp_std_mean(a, mp.inf)
            var = 1 + mp_xpdf(a) / mp_std_mass(a, mp.inf) - mean * mean
            mean, var = float(mean), float(var)
        assert var == pytest.approx(near ** -2.0, rel=1e-15)
        for lo, hi, sign in ((near, INF, 1.0), (-INF, -near, -1.0)):
            assert GAUSS.truncated_variance(lo, hi) == pytest.approx(
                var, rel=4e-15, abs=0.0)
            assert GAUSS.truncated_mean(lo, hi) == sign * mean
        _, d_lo, d_hi = _std_interval_slopes(np.array([near]), np.array([INF]))
        # the mean's slope in its edge is 1 - Var
        assert d_lo[0] == pytest.approx(1.0 - var, rel=1e-15)
        assert d_hi[0] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cost_with_a_far_empty_bin(self):
        # the bin past 1e9 carries mass 0 and variance 1e-18, not 0 * NaN
        cost = decoder_cost(Partition((-INF, 0.0, 1e9, INF), GAUSS, 0.1))
        assert cost.decoder_cost == pytest.approx(1.0 - 2.0 / math.pi,
                                                  rel=1e-15)
        assert cost.per_bin[2] == (0.0, pytest.approx(1e-18, rel=1e-15))

    def test_variance_against_second_moment_route(self):
        src = SourceModel.gaussian(-0.4, 0.8)
        for lo, hi in [(-1.5, 0.2), (0.0, 1.0), (-math.inf, -0.4)]:
            m1 = src.quadrature_moment(lo, hi, 1)
            m2 = src.quadrature_moment(lo, hi, 2)
            # m2 - m1^2 resolves the variance only to about 1e-13 of m2;
            # narrower bins, whose variance sits below that floor, are
            # checked against mpmath in test_variance_against_mpmath
            assert src.truncated_variance(lo, hi) == pytest.approx(
                m2 - m1 * m1, abs=1e-13 * m2)


def pair_means(za, zb):
    """Standard normal means of separate bins [za, zb], elementwise: one
    two-edge row of bin_means per bin."""
    return GAUSS.bin_means(np.stack(np.broadcast_arrays(za, zb), -1))[..., 0]


class TestVectorIntervalMean:
    """bin_probs and bin_means: the Gaussian ones on shared edges and on
    two-edge rows (separate bins), against 40- and 50-digit mpmath."""

    def test_matches_scalar(self):
        za = np.array([-np.inf, -1.0, 0.5, -0.3])
        zb = np.array([0.0, 1.0, np.inf, 0.3])
        vec = pair_means(za, zb)
        rows = [pair_means(a, b) for a, b in zip(za.tolist(), zb.tolist())]
        assert vec.tobytes() == np.array(rows).tobytes()
        for i in range(len(za)):
            assert vec[i] == pytest.approx(
                GAUSS.truncated_mean(float(za[i]), float(zb[i])), rel=1e-13)

    def test_shared_edges_match_separate_bins(self):
        # one pass over shared edges gives each bin what it gets alone
        z = np.array([-INF, -40.0, -3.0, -0.2, 1e-9, 0.4, 6.0, 6.0 + 1e-7,
                      39.0, INF])
        probs, means = GAUSS.bin_probs(z), GAUSS.bin_means(z)
        for k in range(z.size - 1):
            p, m = GAUSS.bin_probs(z[k:k + 2]), GAUSS.bin_means(z[k:k + 2])
            assert (probs[k], means[k]) == (p[0], m[0])

    def test_edge_reflection_is_exact(self):
        rng = np.random.default_rng(4)
        z = np.concatenate(([-INF], np.sort(rng.normal(0.0, 3.0, 30)), [INF]))
        probs, means = GAUSS.bin_probs(z), GAUSS.bin_means(z)
        r_probs, r_means = GAUSS.bin_probs(-z[::-1]), GAUSS.bin_means(-z[::-1])
        assert np.array_equal(r_probs, probs[::-1])
        assert np.array_equal(r_means, -means[::-1])
        whole = np.array([-INF, INF])
        assert (GAUSS.bin_probs(whole).tolist(),
                GAUSS.bin_means(whole).tolist()) == ([1.0], [0.0])

    def test_edges_far_out(self):
        # past |z| = 1e150, where near^2 overflows, bins keep the exact
        # mass 0 and the mean near + 1/near, which rounds to near itself.
        # The half-lines' mass is exactly 0.5; the rule's sum of 48
        # rounded terms gives it to 1 ulp (0.5000000000000001).
        z = (-INF, -3e151, -2e151, 0.0, 1e149, 2e151, INF)
        probs = GAUSS.bin_probs(z)
        means = GAUSS.bin_means(z)
        assert probs[[0, 1, 4, 5]].tolist() == [0.0] * 4
        assert np.abs(probs[2:4] - 0.5).max() <= math.ulp(0.5)
        assert -INF < means[2] < 0.0 < means[3] < INF
        for k, near in ((0, -3e151), (1, -2e151), (4, 1e149), (5, 2e151)):
            assert means[k] == near

    def test_straddling_mass_near_zero(self):
        # bins across the origin, 1e-12 to 3 wide: the mass is the erf
        # sum, and erf keeps its relative accuracy near 0; bound 1e-15
        # relative against 50-digit mpmath, measured 6.0e-16
        rng = np.random.default_rng(5)
        width = np.logspace(-12.0, 0.5, 400)
        lo = -rng.uniform(0.001, 0.999, 400) * width
        hi = lo + width
        probs = GAUSS.bin_probs(np.stack((lo, hi), -1))[:, 0]
        with mp.workdps(50):
            for p, a, b in zip(probs.tolist(), lo.tolist(), hi.tolist()):
                want = mp_std_mass(mp.mpf(a), mp.mpf(b))
                assert float(abs(p - want) / want) <= 1e-15, (a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tail_bins_on_log_grid(self):
        # (z, inf) for z = sqrt(2) h, h on 3 000 log-spaced points of
        # [1e-8, 1e5]: the mean, the Mills ratio pdf(z)/sf(z), within
        # 1e-15 relative of 50-digit mpmath (measured 3.9e-16); the mass,
        # erfc(h)/2, within 4 eps (1 + z^2/2) relative wherever it is a
        # normal float (measured 1.5 eps (1 + z^2/2))
        z = np.logspace(-8.0, 5.0, 3000) * math.sqrt(2.0)
        edges = np.stack((z, np.full_like(z, INF)), -1)
        means = GAUSS.bin_means(edges)[:, 0].tolist()
        probs = GAUSS.bin_probs(edges)[:, 0].tolist()
        eps = np.finfo(float).eps
        with mp.workdps(50):
            for a, m, p in zip(z.tolist(), means, probs):
                sf = mp.erfc(mp.mpf(a) / mp.sqrt(2)) / 2
                want = mp.npdf(a) / sf
                assert float(abs(m - want) / want) <= 1e-15, a
                if sf >= np.finfo(float).tiny:
                    bound = 4 * eps * (1 + a * a / 2)
                    assert float(abs(p - sf) / sf) <= bound, a

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tail_bins_at_zero_subnormal_and_huge_edges(self):
        # (z, inf) with z = 0, subnormal or the smallest normal: mass 1/2
        # and mean sqrt(2/pi), each to 1 ulp; past 1e150 the mass is
        # exactly 0 and the mean, z + 1/z, rounds to z
        tiny = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
        edges = np.stack((tiny, np.full(4, INF)), -1)
        probs = GAUSS.bin_probs(edges)[:, 0]
        means = GAUSS.bin_means(edges)[:, 0]
        root = math.sqrt(2.0 / math.pi)
        assert np.abs(probs - 0.5).max() <= math.ulp(0.5)
        assert np.abs(means - root).max() <= math.ulp(root)
        for far in (1e200, 1.7e308):
            assert GAUSS.bin_probs((far, INF)).tolist() == [0.0]
            assert GAUSS.bin_means((far, INF)).tolist() == [far]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mass_from_origin_near_zero(self):
        # (0, z) for z = sqrt(2) h, h from 1e-300 to 6.3: the mass is
        # erf(h)/2, with nothing to cancel as h -> 0; bound 1e-15
        # relative against 50-digit mpmath, measured 3.9e-16
        h = np.concatenate((np.logspace(-300.0, -13.0, 40),
                            np.logspace(-12.0, 0.8, 1500)))
        z = h * math.sqrt(2.0)
        probs = GAUSS.bin_probs(np.stack((np.zeros_like(z), z), -1))[:, 0]
        with mp.workdps(50):
            for p, a in zip(probs.tolist(), z.tolist()):
                want = mp.erf(mp.mpf(a) / mp.sqrt(2)) / 2
                assert float(abs(p - want) / want) <= 1e-15, a
        # erf(5) = 1 - 1.5374597944280e-12; erf(h) rounds to 1 from
        # h = 6 on, where the rule's mass is within 1 ulp of 1/2
        z = np.array([5.0, 6.0, 30.0, 1e200]) * math.sqrt(2.0)
        probs = GAUSS.bin_probs(np.stack((np.zeros(4), z), -1))[:, 0]
        assert probs[0] == pytest.approx(0.5 * (1.0 - 1.5374597944280e-12),
                                         rel=1e-15)
        assert np.abs(probs[1:] - 0.5).max() <= math.ulp(0.5)

    def test_random_bins_against_mpmath(self):
        # 3 000 bins with edges in |z| <= 38, 1e-12 to 10 wide, plus
        # half-lines, against 40-digit mpmath: the mean within 1e-15 of
        # max(1, |edges|) (measured 1.3e-16), the mass within
        # 4 eps (1 + near^2/2) relative, the rounding of pdf(near),
        # wherever it is a normal float (measured 0.36 of that bound)
        rng = np.random.default_rng(16)
        lo = rng.uniform(-38.0, 38.0, 3000)
        hi = np.minimum(lo + 10.0 ** rng.uniform(-12.0, 1.0, 3000), 38.0)
        lo, hi = lo[hi > lo], hi[hi > lo]
        ends = rng.uniform(-38.0, 38.0, 30)
        lo = np.concatenate((lo, ends[:15], np.full(15, -INF)))
        hi = np.concatenate((hi, np.full(15, INF), ends[15:]))
        edges = np.stack((lo, hi), -1)
        probs = GAUSS.bin_probs(edges)[:, 0].tolist()
        means = GAUSS.bin_means(edges)[:, 0].tolist()
        eps = np.finfo(float).eps
        with mp.workdps(40):
            for a, b, p, m in zip(lo.tolist(), hi.tolist(), probs, means):
                mass = mp_std_mass(mp.mpf(a), mp.mpf(b))
                want = (mp_pdf(mp.mpf(a)) - mp_pdf(mp.mpf(b))) / mass
                scale = max([1.0] + [abs(v) for v in (a, b) if math.isfinite(v)])
                assert float(abs(m - want)) <= 1e-15 * scale, (a, b)
                if mass >= np.finfo(float).tiny:
                    near = min(max(a, 0.0), b)
                    bound = 4 * eps * (1 + near * near / 2)
                    assert float(abs(p - mass) / mass) <= bound, (a, b)

    def test_no_mass_above_one(self):
        # bins reaching far below the mean up to +inf (and their mirror
        # images) hold a mass within an ulp or two of 1, which the rule
        # rounded above 1 on most of them; every mass is at most 1, and
        # a Partition's record holds the same masses bit for bit. Against
        # 40-digit mpmath the worst is 4.34 eps relative, at a = 0.061,
        # a mass near 1/2: 2 of these 20 000 half-lines just past the
        # mean exceed the 4 eps (1 + near^2/2) (near = 0 here) that the
        # random bins of test_random_bins_against_mpmath meet
        a = np.random.default_rng(19).uniform(0.0, 40.0, 20_000)
        up = np.stack((-a, np.full_like(a, INF)), -1)
        for edges in (up, -up[:, ::-1]):
            probs = GAUSS.bin_probs(edges)[:, 0]
            assert probs.max() <= 1.0
            assert np.array_equal(GAUSS._bin_moments(edges)[0][:, 0], probs)
        eps = np.finfo(float).eps
        with mp.workdps(40):
            for x, p in zip(a.tolist(), probs.tolist()):
                mass = mp_std_mass(mp.mpf(-INF), mp.mpf(x))
                assert float(abs(p - mass) / mass) <= 5 * eps, x

    def test_reflection_is_exact(self):
        # every formula reads a bin through |z| and the sign of z_a + z_b
        rng = np.random.default_rng(3)
        a = rng.uniform(0.0, 40.0, 400)
        b = a + np.exp(rng.uniform(-20.0, 4.0, 400))
        b[::5] = INF
        a[1::5] = -rng.uniform(0.0, 5.0, 80)  # straddling the origin
        up = pair_means(a, b)
        assert np.array_equal(pair_means(-b, -a), -up)
        for lo, hi in zip(a[:40].tolist(), b[:40].tolist()):
            assert pair_means(-hi, -lo) == -pair_means(lo, hi)

    @given(st.floats(min_value=-6, max_value=6),
           st.floats(min_value=math.log10(COLLAPSE_LENGTH),
                     max_value=math.log10(6)))
    @example(-0.3, -12.0)
    @example(2.0, -8.0)
    @example(5.0, -10.0)
    @settings(max_examples=60, deadline=None)
    def test_mean_inside_interval(self, a, log_width):
        # down to COLLAPSE_LENGTH, within a thousandth of the bin's width
        # (or 4 ulps) of 50-digit mpmath
        b = a + 10.0 ** log_width
        m = GAUSS.truncated_mean(a, b)
        assert a < m < b
        with mp.workdps(50):
            want = float(mp_std_mean(mp.mpf(a), mp.mpf(b)))
        assert abs(m - want) <= max(1e-3 * (b - a), 4 * math.ulp(want))

    @pytest.mark.parametrize("src, edges", BIN_CASES)
    def test_bin_means_against_quadrature(self, src, edges):
        means = src.bin_means(edges)
        assert means.shape == (len(edges) - 1,)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            assert lo <= means[k] <= hi
            assert means[k] == pytest.approx(
                src.quadrature_moment(lo, hi, 1), abs=1e-10)

    def test_bin_edges_validated(self):
        # one edge sequence, or a 2-D array with one per row; any bad row
        # or more than two dimensions is rejected
        for src in (EXP, GAUSS):
            for bad in ((1.0,), (0.0, 0.0, 1.0), (0.0, math.nan, 1.0),
                        (2.0, 1.0), ((0.0, 1.0), (3.0, 2.0)),
                        ((0.0,), (1.0,)), (((0.0, 1.0), (2.0, 3.0)),)):
                for method in (src.bin_means, src.bin_probs,
                               src.bin_variances):
                    with pytest.raises(DomainError,
                                       match="strictly increasing sequence"):
                        method(bad)

    def test_interval_endpoints_validated(self):
        # the one-bin forms and the oracle run the same edge check
        for src in (EXP, GAUSS):
            for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                           (0.0, math.nan), (INF, INF)):
                for method in (src.interval_prob, src.truncated_mean,
                               src.truncated_variance,
                               lambda a, b: src.quadrature_moment(a, b, 1)):
                    with pytest.raises(DomainError,
                                       match="strictly increasing sequence"):
                        method(lo, hi)

    @pytest.mark.parametrize("src, rows", ROW_CASES)
    def test_rows_equal_one_dimensional_calls(self, src, rows):
        # each row of a 2-D call is bit for bit the 1-D call on that row,
        # whichever kernel branch its bins take
        rows = np.array(rows)
        for method in (src.bin_probs, src.bin_means, src.bin_variances):
            got = method(rows)
            assert got.shape == (len(rows), rows.shape[1] - 1)
            for row, values in zip(rows, got):
                assert values.tobytes() == method(row).tobytes(), (method, row)

    def test_exponential_rows_of_every_length(self):
        # rows of 1 to 1000 bins, s = rate*length uniform on (0, 1.2),
        # astride the kernel's series cut at 0.6: each row of a (3, n)
        # kernel call, and of a (3, n + 1) _frame_means or bin_means call,
        # equals the 1-D call on that row bit for bit. This rests on the
        # series' matmul summing each row in numpy's own loop; one BLAS
        # matrix-vector product over all 3n rows moved 38 of these
        # kernel values by an ulp (the means absorb most such moves in
        # their start)
        src = SourceModel.exponential(1.7)
        s = np.random.default_rng(7).uniform(1e-3, 1.2, 3000)

        def frame_means(e):
            return src._frame_means(e, np.diff(e))

        for n in range(1, 1001):
            rows = s[:3 * n].reshape(3, n)
            edges = np.zeros((3, n + 1))
            edges[:, 1:] = np.cumsum(rows / 1.7, axis=1)
            for method, arg in ((_exp_unit_mean, rows), (frame_means, edges),
                                (src.bin_means, edges)):
                got = method(arg)
                for row, values in zip(arg, got):
                    assert values.tobytes() == method(row).tobytes(), (n, method)

    def test_bins_outside_exponential_support(self):
        assert EXP.bin_probs((-3.0, -1.0, 2.0)).tolist() == [
            0.0, pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)]
        with pytest.raises(ZeroProbabilityError):
            EXP.bin_means((-3.0, -1.0, 2.0))
        with pytest.raises(ZeroProbabilityError):
            EXP.bin_variances((-3.0, -1.0, 2.0))
        rows = ((0.0, 1.0, 2.0), (-3.0, -1.0, 2.0))
        for method in (EXP.bin_means, EXP.bin_variances):
            with pytest.raises(ZeroProbabilityError, match=r"\[-3.0, -1.0\]"):
                method(rows)
        with pytest.raises(ZeroProbabilityError, match=r"\[-3.0, -1.0\]"):
            EXP.quadrature_moment(-3.0, -1.0, 1)


def mp_std_slopes(lo, hi):
    """50-digit numerical derivatives of the mean in each finite edge."""
    with mp.workdps(50):
        a, b = mp.mpf(lo), mp.mpf(hi)
        d_lo = 0 if mp.isinf(a) else mp.diff(lambda x: mp_std_mean(x, b), a)
        d_hi = 0 if mp.isinf(b) else mp.diff(lambda x: mp_std_mean(a, x), b)
        return float(d_lo), float(d_hi)


# (lo, hi): half-lines, straddling bins, same-tail bins out to |z| = 40,
# widths 1e-12 to 300
SLOPE_CASES = (
    (-INF, 0.3), (-INF, -5.0), (2.0, INF), (-3.0, INF), (40.0, INF),
    (-INF, -40.0), (-INF, INF),
    (-0.5, 0.7), (-2.0, 1e-3), (-300.0, 0.2), (-1e-3, 5e-4), (-150.0, 150.0),
    (0.0, 1e-3), (39.0, 40.0), (-40.0, -38.0), (0.5, 300.5), (-300.5, -0.5),
    (20.0, 320.0),
    (1.0, 1.001), (5.0, 5.001), (38.0, 38.001), (-12.0, -11.999),
    (-40.0, -39.999),
    # narrow bins, where the erfcx mass cancels
    (2.0, 2.0 + 1e-8), (-0.3, -0.3 + 1e-12), (5.0, 5.0 + 1e-10),
    (-17.0, -17.0 + 1e-9), (30.0, 30.0 + 1e-11), (40.0, 40.0 + 1e-12),
    (-40.0, -40.0 + 1e-8), (-1e-12, 1e-12), (0.0, 1e-10),
)


class TestIntervalSlopes:
    """The edge slopes of the conditional mean against 50-digit mpmath
    derivatives, on bins down to 1e-12 wide and out to |z| = 40; an end
    farther out has slope exactly 0, as an infinite end does."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_finite_end_is_an_infinite_end(self):
        # mpmath's erfc overflows at 1e160, so SLOPE_CASES cannot take
        # these bins; the same bin with an infinite end is the reference
        lower = np.array([-30.0, -1.0, 0.0, 0.5, 3.0, 40.0, 1e3, 1e5])
        ones = np.ones_like(lower)
        for got, want in ((_std_interval_slopes(lower, 1e160 * ones),
                           _std_interval_slopes(lower, INF * ones)),
                          (_std_interval_slopes(-1e200 * ones, -lower),
                           _std_interval_slopes(-INF * ones, -lower))):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_against_mpmath(self):
        a = np.array([lo for lo, _ in SLOPE_CASES])
        b = np.array([hi for _, hi in SLOPE_CASES])
        _, d_lo, d_hi = _std_interval_slopes(a, b)
        for k, (lo, hi) in enumerate(SLOPE_CASES):
            want_lo, want_hi = mp_std_slopes(lo, hi)
            assert d_lo[k] == pytest.approx(want_lo, rel=1e-12, abs=1e-300), (lo, hi)
            assert d_hi[k] == pytest.approx(want_hi, rel=1e-12, abs=1e-300), (lo, hi)

    def test_reflection_swaps_the_slopes(self):
        a = np.array([-INF, -1.0, 0.5, 3.0])
        b = np.array([0.2, 2.0, 0.9, INF])
        _, d_lo, d_hi = _std_interval_slopes(a, b)
        _, r_lo, r_hi = _std_interval_slopes(-b, -a)
        assert np.array_equal(d_lo, r_hi) and np.array_equal(d_hi, r_lo)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_means_against_mpmath(self):
        # the means the solve loop's F is built from, on every bin with a
        # finite edge, to 1e-15 of the larger finite edge; reflection
        # negates them exactly, except on bins symmetric about the origin,
        # whose mean is 0 only to rounding
        cases = [(lo, hi) for lo, hi in SLOPE_CASES
                 if math.isfinite(lo) or math.isfinite(hi)]
        a = np.array([lo for lo, _ in cases])
        b = np.array([hi for _, hi in cases])
        means = _std_interval_slopes(a, b)[0]
        for k, (lo, hi) in enumerate(cases):
            with mp.workdps(50):
                want = float(mp_std_mean(mp.mpf(lo), mp.mpf(hi)))
            scale = max([1.0] + [abs(v) for v in (lo, hi) if math.isfinite(v)])
            assert abs(means[k] - want) <= 1e-15 * scale, (lo, hi)
        mirrored = _std_interval_slopes(-b, -a)[0]
        skew = a != -b
        assert np.array_equal(mirrored[skew], -means[skew])


# rows of Gaussian edges for the reflection guard, each with half-infinite,
# one-sided, straddling and 1e-12-wide bins; reflected about the mean 0
# as -row[::-1], which negates every edge exactly. The first row is a
# partition, and no bin is symmetric about 0, whose mean is 0 only to
# rounding.
REFLECTED_ROWS = np.array((
    (-INF, -2.0, -0.3, 0.4, 0.4 + 1e-12, 1.5, 6.0, 40.5, INF),
    (-3.0, -1e-12, 2e-12, 0.2, 0.2 + 1e-12, 5.0, 9.0, 30.0, INF),
    (-INF, -35.0, -35.0 + 1e-12, -1.0, 0.25, 0.7, 2.0, 2.0 + 1e-12, 3.0),
))


def same_bits(a, b) -> bool:
    return (a.shape == b.shape
            and a.tobytes() == np.ascontiguousarray(b).tobytes())


class TestReflectedReaders:
    """Each reader of the one Gaussian rule pass signs only what it
    reads: a reflected bin has the same mass and variance bit for bit,
    and its mean exactly negated."""

    @pytest.mark.parametrize("src", (GAUSS, SourceModel.gaussian(0.0, 1.7)))
    def test_reflection_is_exact_in_every_reader(self, src):
        mirror = -REFLECTED_ROWS[:, ::-1]
        for e, m in ((REFLECTED_ROWS, mirror), (REFLECTED_ROWS[1], mirror[1])):
            assert same_bits(src.bin_probs(m), src.bin_probs(e)[..., ::-1])
            assert same_bits(src.bin_variances(m),
                             src.bin_variances(e)[..., ::-1])
            assert same_bits(src.bin_means(m), -src.bin_means(e)[..., ::-1])
            z = e / src.std
            assert same_bits(src._frame_means(-z[..., ::-1], None),
                             -src._frame_means(z, None)[..., ::-1])
        p = Partition(REFLECTED_ROWS[0], src, 0.1)
        q = Partition(mirror[0], src, -0.1)
        for a, b, sign in zip(p._moments, q._moments, (1.0, -1.0, 1.0)):
            assert same_bits(b, sign * a[::-1])

    def test_readers_leave_their_inputs_alone(self):
        src = SourceModel.gaussian(0.0, 1.7)
        exp_rows = np.array(((0.0, 0.5, 0.5 + 1e-12, 2.0, INF),
                             (0.0, 1e-12, 3.0, 40.0, 41.0)))
        readers = (
            (REFLECTED_ROWS, src.bin_probs), (REFLECTED_ROWS, src.bin_means),
            (REFLECTED_ROWS, src.bin_variances),
            (REFLECTED_ROWS, lambda e: src._frame_means(e, None)),
            (REFLECTED_ROWS,
             lambda e: _std_interval_slopes(e[..., :-1], e[..., 1:])),
            (REFLECTED_ROWS,
             lambda e: sources._std_rule(e[..., :-1], e[..., 1:])),
            (exp_rows, EXP.bin_probs), (exp_rows, EXP.bin_means),
            (exp_rows, EXP.bin_variances),
            (exp_rows, lambda e: EXP._frame_means(e, np.diff(e))),
        )
        for rows, read in readers:
            for e in (rows.copy(), rows[0].copy()):
                kept = e.copy()
                read(e)
                assert same_bits(e, kept)
        p = Partition(REFLECTED_ROWS[0], src, 0.1)
        kept = p._edge_array.copy()
        certify(p)
        decoder_cost(p)
        decoder_best_response(p)
        assert same_bits(p._edge_array, kept)


class TestQuadratureMoment:
    @pytest.mark.parametrize("src, edges", BIN_CASES)
    def test_bin_variances_against_quadrature(self, src, edges):
        variances = src.bin_variances(edges)
        assert variances.shape == (len(edges) - 1,)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            m1 = src.quadrature_moment(lo, hi, 1)
            m2 = src.quadrature_moment(lo, hi, 2)
            # m2 - m1^2 resolves the variance only to about 1e-13 of m2;
            # narrower bins, whose variance sits below that floor, are
            # checked against mpmath in test_variance_against_mpmath
            assert variances[k] == pytest.approx(m2 - m1 * m1, abs=1e-13 * m2)

    @pytest.mark.parametrize("src, edges", BIN_CASES)
    def test_bin_probs_against_mpmath(self, src, edges):
        probs = src.bin_probs(edges)
        assert probs.shape == (len(edges) - 1,)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            assert probs[k] == pytest.approx(mp_bin_prob(src, lo, hi),
                                             rel=1e-12, abs=1e-300)

    def test_exponential_against_closed_forms(self):
        for lo, hi in [(0.0, 1.0), (0.5, 2.5), (3.0, math.inf), (0.0, math.inf)]:
            m = EXP.quadrature_moment(lo, hi, 1)
            assert m == pytest.approx(EXP.truncated_mean(lo, hi), abs=1e-10)

    def test_second_moment_consistency(self):
        for lo, hi in [(0.0, 1.0), (1.0, 4.0)]:
            m1 = EXP.quadrature_moment(lo, hi, 1)
            m2 = EXP.quadrature_moment(lo, hi, 2)
            var = EXP.truncated_variance(lo, hi)
            # m2 - m1^2 resolves the variance only to about 1e-13 of m2;
            # shorter windows, whose variance sits below that floor, are
            # checked against their series in
            # test_window_variance_series_and_saturation
            assert m2 - m1 * m1 == pytest.approx(var, abs=1e-13 * m2)

    def test_power_validation(self):
        with pytest.raises(DomainError):
            EXP.quadrature_moment(0.0, 1.0, 3)

    @pytest.mark.parametrize("src, lo, hi", [
        (GAUSS, 20.0, INF), (GAUSS, 1e3, INF), (GAUSS, 1e5, INF),
        (GAUSS, -INF, -1e5), (GAUSS, -0.3, -0.3 + 1e-12),
        (SourceModel.gaussian(0.7, 1.3), -2.0, -2.0 + 1e-12)])
    def test_gaussian_oracle_against_mpmath(self, src, lo, hi):
        # raw moments to a few ulps deep in a tail and on bins
        # COLLAPSE_LENGTH wide
        m1, m2 = mp_raw_moments(src, lo, hi)
        assert src.quadrature_moment(lo, hi, 1) == pytest.approx(
            m1, rel=1e-15, abs=0.0)
        assert src.quadrature_moment(lo, hi, 2) == pytest.approx(
            m2, rel=1e-15, abs=0.0)


def test_rule_nodes_regenerate_bit_for_bit():
    script = Path(__file__).resolve().parents[1] / "scripts" / "gauss_legendre_nodes.py"
    spec = importlib.util.spec_from_file_location("gauss_legendre_nodes", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.half_rule() == _GL_HALF


def test_import_leaves_scipy_integrate_unloaded():
    # quadrature serves only the oracle, which imports it on first use
    code = "import cheaptalk, sys; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
