"""Source models: densities, interval probabilities, truncated moments."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheaptalk.equilibrium import Partition, decoder_cost
from cheaptalk.errors import DomainError, ZeroProbabilityError
from cheaptalk.sources import (
    SourceModel,
    _exp_gap,
    _exp_window_variance,
    _std_interval_mean,
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


def mp_std_variance(lo, hi):
    """60-digit variance of a standard normal on (lo, hi), closed form."""
    with mp.workdps(60):
        a, b = mp.mpf(lo), mp.mpf(hi)

        def pdf(x):
            return mp.mpf(0) if mp.isinf(x) else mp.npdf(x)

        def xpdf(x):
            return mp.mpf(0) if mp.isinf(x) else x * mp.npdf(x)

        if a >= 0:  # upper-tail mass without cancellation
            z = (mp.erfc(a / mp.sqrt(2)) - mp.erfc(b / mp.sqrt(2))) / 2
        else:
            z = (mp.erfc(-b / mp.sqrt(2)) - mp.erfc(-a / mp.sqrt(2))) / 2
        mu = (pdf(a) - pdf(b)) / z
        return float(1 + (xpdf(a) - xpdf(b)) / z - mu * mu)


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
        # zero-length window: conditional mean gap is the full 1/rate
        assert _exp_gap(0.0, 2.0) == 0.5
        # huge window: memoryless tail, gap -> 0
        assert _exp_gap(1000.0, 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_gap_small_window_taylor(self):
        # s/(e^s - 1) = 1 - s/2 + s^2/12 + O(s^4), scaled by 1/rate
        for rate in (1.0, 7.0):
            s = 1e-4
            taylor = (1.0 - s / 2.0 + s * s / 12.0) / rate
            assert _exp_gap(s / rate, rate) == pytest.approx(taylor, rel=1e-12)

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
        # the small-window series hands off smoothly to the exact form
        lo = _exp_window_variance(1e-3 * (1.0 - 1e-9), 1.0)
        hi = _exp_window_variance(1e-3 * (1.0 + 1e-9), 1.0)
        assert lo == pytest.approx(hi, rel=1e-7)
        assert _exp_window_variance(900.0, 1.0) == 1.0
        # tiny window behaves like a uniform: l^2/12
        assert _exp_window_variance(1e-6, 1.0) == pytest.approx(1e-12 / 12.0,
                                                                rel=1e-6)

    def test_zero_probability_interval_raises(self):
        with pytest.raises(ZeroProbabilityError):
            EXP.truncated_mean(-3.0, -1.0)


class TestGaussianMoments:
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

    def test_variance_positive_and_below_marginal(self):
        for lo, hi in [(-1.0, 1.0), (0.0, 0.5), (2.0, math.inf), (-4.0, -3.0)]:
            v = GAUSS.truncated_variance(lo, hi)
            assert 0.0 < v < 1.0

    @pytest.mark.parametrize("lo, hi, rel", [
        (0.0, 1e6, 1e-13), (1.0, 1e4, 1e-13), (-1e5, 1e5, 1e-13),
        (-1e4, -1.0, 1e-13), (20.0, INF, 1e-13), (-INF, -8.0, 1e-13),
        (-INF, 0.3, 1e-13), (-2.0, 3.0, 1e-13), (7.0, 30.0, 1e-13),
        # the conditional mean itself carries an absolute error near
        # ulp(1e5), against a spread of 1e-5
        (1e5, INF, 1e-7), (-INF, -1e5, 1e-7)])
    def test_variance_against_mpmath(self, lo, hi, rel):
        # includes long bins whose mass sits in a sliver at one end
        assert GAUSS.truncated_variance(lo, hi) == pytest.approx(
            mp_std_variance(lo, hi), rel=rel)

    def test_cost_of_long_bins(self):
        p = Partition((-INF, -1e5, 1e5, INF), GAUSS, 0.0)
        assert decoder_cost(p).decoder_cost == pytest.approx(1.0, rel=1e-13)

    def test_variance_against_second_moment_route(self):
        src = SourceModel.gaussian(-0.4, 0.8)
        for lo, hi in [(-1.5, 0.2), (0.0, 1.0), (-math.inf, -0.4)]:
            m1 = src.quadrature_moment(lo, hi, 1)
            m2 = src.quadrature_moment(lo, hi, 2)
            assert src.truncated_variance(lo, hi) == pytest.approx(
                m2 - m1 * m1, abs=1e-9)


class TestVectorIntervalMean:
    def test_matches_scalar(self):
        za = np.array([-np.inf, -1.0, 0.5, -0.3])
        zb = np.array([0.0, 1.0, np.inf, 0.3])
        vec = _std_interval_mean(za, zb)
        for i in range(len(za)):
            assert vec[i] == pytest.approx(
                _std_interval_mean(float(za[i]), float(zb[i])), rel=1e-13)

    def test_reflection_is_exact(self):
        # lower-side bins are evaluated as reflected upper-side ones
        rng = np.random.default_rng(3)
        a = rng.uniform(0.0, 40.0, 400)
        b = a + np.exp(rng.uniform(-20.0, 4.0, 400))
        b[::5] = INF
        a[1::5] = -rng.uniform(0.0, 5.0, 80)  # straddling the origin
        up = _std_interval_mean(a, b)
        assert np.array_equal(_std_interval_mean(-b, -a), -up)
        for lo, hi in zip(a[:40].tolist(), b[:40].tolist()):
            assert _std_interval_mean(-hi, -lo) == -_std_interval_mean(lo, hi)

    def test_scalar_returns_float(self):
        out = _std_interval_mean(0.0, 1.0)
        assert isinstance(out, float)

    @given(st.floats(min_value=-6, max_value=6),
           st.floats(min_value=1e-3, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_mean_inside_interval(self, a, w):
        m = _std_interval_mean(a, a + w)
        assert a < m < a + w


    @pytest.mark.parametrize("src, edges", BIN_CASES)
    def test_bin_means_against_quadrature(self, src, edges):
        means = src.bin_means(edges)
        assert means.shape == (len(edges) - 1,)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            assert lo <= means[k] <= hi
            assert means[k] == pytest.approx(
                src.quadrature_moment(lo, hi, 1), abs=1e-10)

    def test_bin_edges_validated(self):
        for src in (EXP, GAUSS):
            for bad in ((1.0,), (0.0, 0.0, 1.0), (0.0, math.nan, 1.0),
                        (2.0, 1.0), ((0.0, 1.0), (2.0, 3.0))):
                for method in (src.bin_means, src.bin_probs,
                               src.bin_variances):
                    with pytest.raises(DomainError):
                        method(bad)

    def test_bins_outside_exponential_support(self):
        assert EXP.bin_probs((-3.0, -1.0, 2.0)).tolist() == [
            0.0, pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)]
        with pytest.raises(ZeroProbabilityError):
            EXP.bin_means((-3.0, -1.0, 2.0))
        with pytest.raises(ZeroProbabilityError):
            EXP.bin_variances((-3.0, -1.0, 2.0))


class TestQuadratureMoment:
    @pytest.mark.parametrize("src, edges", BIN_CASES)
    def test_bin_variances_against_quadrature(self, src, edges):
        variances = src.bin_variances(edges)
        assert variances.shape == (len(edges) - 1,)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            m1 = src.quadrature_moment(lo, hi, 1)
            m2 = src.quadrature_moment(lo, hi, 2)
            assert variances[k] == pytest.approx(m2 - m1 * m1, abs=1e-9)

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
            assert m2 - m1 * m1 == pytest.approx(var, abs=1e-9)

    def test_power_validation(self):
        with pytest.raises(DomainError):
            EXP.quadrature_moment(0.0, 1.0, 3)
