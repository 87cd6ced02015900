"""Exponential-source equilibria: recursion, thresholds, infinite ladder."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cheaptalk.equilibrium import certify, decoder_cost
from cheaptalk.errors import (
    BinCollapseError,
    DomainError,
    NoInformativeEquilibriumError,
)
from cheaptalk.exponential import (
    _backward_lengths,
    bias_threshold,
    decoder_cost_infinite,
    empirical_max_bins,
    equal_length_defect,
    fixed_point_length,
    g,
    h,
    infinite_equilibrium,
    max_bins_negative_bias,
    solve_n_bins,
    solve_two_bin,
)
from cheaptalk.special import lambert_w0_conjugate

RATES = (0.5, 1.0, 2.0)


class TestWindowFunctions:
    def test_h_endpoints(self):
        # l * exp(-rate*l) / (1 - exp(-rate*l)) runs from 1/rate down to zero
        for rate in RATES:
            assert h(1e-12, rate) == pytest.approx(1.0 / rate, rel=1e-9)
            assert 0.0 <= h(800.0, rate) < 1e-150

    def test_g_infimum(self):
        for rate in RATES:
            assert g(1e-12, rate) == pytest.approx(1.0 / rate, rel=1e-9)
            assert g(5.0, rate) > 5.0

    @given(st.floats(min_value=1e-6, max_value=50.0),
           st.floats(min_value=1e-6, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_h_bounded_and_g_dominates(self, length, rate):
        assume(rate * length < 600.0)  # keep exp(-rate*l) above underflow
        value = h(length, rate)
        assert 0.0 < value < 1.0 / rate
        assert g(length, rate) == pytest.approx(length + value, rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_rate_scaling(self, length):
        # h(l; r) = h(r*l; 1) / r
        assert h(length, 2.0) == pytest.approx(h(2.0 * length, 1.0) / 2.0,
                                               rel=1e-13)

    def test_monotonicity(self):
        grid = [0.01 * 1.5 ** k for k in range(25)]
        hs = [h(x, 1.0) for x in grid]
        gs = [g(x, 1.0) for x in grid]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert all(a < b for a, b in zip(gs, gs[1:]))


class TestThresholds:
    def test_two_bin_value(self):
        for rate in RATES:
            assert bias_threshold(rate, 2) == -1.0 / (2.0 * rate)

    def test_three_bin_value(self):
        assert bias_threshold(1.0, 3) == pytest.approx(
            -0.2090116465653368, abs=1e-15)
        # scales like 1/rate
        assert bias_threshold(2.0, 3) == pytest.approx(
            bias_threshold(1.0, 3) / 2.0, rel=1e-15)

    def test_unknown_counts_rejected(self):
        with pytest.raises(DomainError):
            bias_threshold(1.0, 4)

    def test_two_bin_existence_flips_at_threshold(self):
        for rate in RATES:
            t = bias_threshold(rate, 2)
            assert certify(solve_two_bin(rate, t + abs(t) * 1e-6)).verdict
            with pytest.raises(NoInformativeEquilibriumError):
                solve_two_bin(rate, t)
            with pytest.raises(NoInformativeEquilibriumError):
                solve_two_bin(rate, t - abs(t) * 1e-6)

    def test_three_bin_existence_flips_at_threshold(self):
        t = bias_threshold(1.0, 3)
        assert certify(solve_n_bins(1.0, t * (1.0 - 1e-6), 3)).verdict
        with pytest.raises(BinCollapseError):
            solve_n_bins(1.0, t * (1.0 + 1e-6), 3)


class TestTwoBin:
    def test_frozen_unbiased_edge(self):
        p = solve_two_bin(1.0, 0.0)
        assert p.interior_edges[0] == pytest.approx(1.5936242600400401,
                                                    rel=1e-15)

    def test_edge_window(self):
        for rate in RATES:
            for bias in (-0.2 / rate, 0.0, 0.4 / rate, 3.0 / rate):
                edge = solve_two_bin(rate, bias).interior_edges[0]
                assert 1.0 / rate + 2.0 * bias < edge < 2.0 / rate + 2.0 * bias

    def test_certifies(self):
        for rate in RATES:
            for bias in (-0.3 / rate, 0.0, 1.7 / rate):
                assert certify(solve_two_bin(rate, bias), tol=1e-10).verdict

    def test_matches_n_bins_solver(self):
        a = solve_two_bin(1.3, 0.21).interior_edges[0]
        b = solve_n_bins(1.3, 0.21, 2).interior_edges[0]
        assert a == b

    @given(st.floats(min_value=0.1, max_value=10.0)
           .flatmap(lambda r: st.tuples(
               st.just(r), st.floats(min_value=-0.5 / r, max_value=2.0 / r,
                                     exclude_min=True))))
    @settings(max_examples=200, deadline=None)
    def test_is_the_n_bin_walk(self, rate_bias):
        assert_same_two_bin_outcome(*rate_bias)

    @pytest.mark.parametrize("rate", (0.1, 0.7, 1.0, 3.0, 10.0))
    def test_no_equilibrium_at_and_below_threshold(self, rate):
        t2 = bias_threshold(rate, 2)
        for bias in (t2, math.nextafter(t2, -math.inf)):
            with pytest.raises(NoInformativeEquilibriumError):
                solve_two_bin(rate, bias)
            with pytest.raises(NoInformativeEquilibriumError):
                solve_n_bins(rate, bias, 2)
        # a few ulps above it, 2/rate + 2*bias may still round to 1/rate
        bias = t2
        for _ in range(8):
            bias = math.nextafter(bias, math.inf)
            assert_same_two_bin_outcome(rate, bias)


def assert_same_two_bin_outcome(rate: float, bias: float) -> None:
    """solve_two_bin and solve_n_bins(.., 2) return the same edges bit for
    bit, or both report that no informative equilibrium exists."""
    try:
        edges = solve_n_bins(rate, bias, 2).edges
    except NoInformativeEquilibriumError:
        with pytest.raises(NoInformativeEquilibriumError):
            solve_two_bin(rate, bias)
    else:
        assert solve_two_bin(rate, bias).edges == edges


def _g_root(rate: float, target: float) -> mp.mpf:
    """50-digit root of g(l, rate) = target by bisection on
    (target - 1/rate, target), with both floats taken exactly."""
    r, c = mp.mpf(rate), mp.mpf(target)
    lo, hi = c - 1 / r, c
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid + mid / mp.expm1(r * mid) < c:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestBinLengthAccuracy:
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("k", (1, 3, 5, 7, 9, 11))
    def test_near_threshold_length_against_mpmath(self, rate, k):
        # u = rate*(2/rate + 2*bias) lands near 1 + 10^-k, where g's
        # inverse has condition number about u/(u-1)
        bias = (10.0 ** -k - 1.0) / (2.0 * rate)
        c = 2.0 / rate + 2.0 * bias
        u = rate * c
        (length,) = _backward_lengths(rate, bias, 1)
        with mp.workdps(50):
            ref = _g_root(rate, c)
            err = float(abs(mp.mpf(length) / ref - 1))
        assert err <= 4 * 2.0 ** -52 * u / (u - 1.0)

    def test_random_lengths_near_the_branch_point(self):
        # at rate 1 a walk length is s = lambert_w0_conjugate(u) + u, the
        # root of g(s) = u; u - 1 log-uniform over [1e-5, 0.3] covers the
        # Halley range just past the series cut at p = sqrt(2q) = 1e-3
        rng = np.random.default_rng(14)
        with mp.workdps(50):
            for u in 1.0 + 10.0 ** rng.uniform(-5.0, math.log10(0.3), 400):
                u = float(u)
                s = lambert_w0_conjugate(u) + u
                err = float(abs(mp.mpf(s) / _g_root(1.0, u) - 1))
                assert err <= 4 * 2.0 ** -52 * u / (u - 1.0), u


class TestNBinRecursion:
    def test_certification_across_grid(self):
        for rate in RATES:
            for bias in (0.0, 0.5 / rate):
                for n in (2, 3, 5, 9):
                    assert certify(solve_n_bins(rate, bias, n),
                                   tol=1e-8).verdict
            # only three bins fit at this negative bias
            for n in (2, 3):
                assert certify(solve_n_bins(rate, -0.15 / rate, n),
                               tol=1e-8).verdict

    def test_lengths_increase_toward_tail(self):
        for (rate, bias, n) in ((1.0, 0.5, 6), (1.0, -0.1, 3),
                                (2.0, 0.25, 4)):
            lengths = solve_n_bins(rate, bias, n).lengths[:-1]
            assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_last_length_window(self):
        for (rate, bias, n) in ((1.0, 0.5, 6), (1.0, -0.1, 3),
                                (2.0, 0.25, 4)):
            last = solve_n_bins(rate, bias, n).lengths[-2]
            c = 2.0 / rate + 2.0 * bias
            assert 1.0 / rate + 2.0 * bias < last < c

    def test_positive_bias_lengths_exceed_twice_bias(self):
        lengths = solve_n_bins(1.0, 0.5, 6).lengths[:-1]
        assert all(x > 1.0 for x in lengths)

    def test_single_bin_trivial(self):
        p = solve_n_bins(1.0, -5.0, 1)
        assert p.edges == (0.0, math.inf)

    def test_three_bins_collapse_at_quarter_negative_bias(self):
        # c_1 = 1.5 - h(l_2) drops below g's infimum: the first bin dies
        with pytest.raises(BinCollapseError) as err:
            solve_n_bins(1.0, -0.25, 3)
        assert err.value.bin_index == 1

    def test_infeasible_two_bins_reported_as_nonexistence(self):
        with pytest.raises(NoInformativeEquilibriumError):
            solve_n_bins(1.0, -0.6, 2)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            solve_n_bins(0.0, 0.0, 2)
        with pytest.raises(DomainError):
            solve_n_bins(1.0, math.inf, 2)
        with pytest.raises(DomainError):
            solve_n_bins(1.0, 0.0, 0)

    def test_scale_must_be_finite(self):
        # c = 2/rate + 2*bias: 2/rate overflows at subnormal rates below
        # 2/DBL_MAX, and with a bias near -DBL_MAX c is inf - inf
        for rate, bias in ((1e-308, 1.0), (5e-309, bias_threshold(5e-309, 2))):
            for n in (2, 3):
                with pytest.raises(DomainError, match=r"2/rate \+ 2\*bias"):
                    solve_n_bins(rate, bias, n)
        with pytest.raises(DomainError, match=r"2/rate \+ 2\*bias"):
            solve_two_bin(5e-309, bias_threshold(5e-309, 2))
        # one bin needs no walk
        assert solve_n_bins(1e-308, 1.0, 1).edges == (0.0, math.inf)
        # c = -inf, a bias far below the threshold: still no equilibrium
        with pytest.raises(NoInformativeEquilibriumError):
            solve_n_bins(1.0, -1.7e308, 2)

    @given(st.floats(min_value=0.01, max_value=1.5),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_positive_bias_never_collapses(self, bias, n):
        assert certify(solve_n_bins(1.0, bias, n), tol=1e-7).verdict


class TestMaxBins:
    def test_hard_bound_values(self):
        assert max_bins_negative_bias(1.0, -0.25) == 3
        assert max_bins_negative_bias(2.0, -0.05) == 6
        assert max_bins_negative_bias(1.0, -0.6) == 1

    def test_bound_requires_negative_bias(self):
        with pytest.raises(DomainError):
            max_bins_negative_bias(1.0, 0.0)

    def test_bound_overflow_is_domain_error(self):
        # -1/(2*bias*rate) overflows, or its denominator underflows to zero
        for rate, bias in ((1.0, -1e-320), (1e-10, -1e-320)):
            with pytest.raises(DomainError):
                max_bins_negative_bias(rate, bias)
            with pytest.raises(DomainError):
                empirical_max_bins(rate, bias)

    def test_empirical_counts(self):
        assert empirical_max_bins(1.0, -0.25) == 2
        assert empirical_max_bins(2.0, -0.05) == 4
        assert empirical_max_bins(1.0, -0.6) == 1

    def test_empirical_never_exceeds_bound(self):
        for bias in (-0.45, -0.3, -0.12, -0.04):
            emp = empirical_max_bins(1.0, bias)
            assert emp <= max_bins_negative_bias(1.0, bias)
            # attained count solves, one more does not
            if emp >= 2:
                assert certify(solve_n_bins(1.0, bias, emp)).verdict
            with pytest.raises((BinCollapseError,
                                NoInformativeEquilibriumError)):
                solve_n_bins(1.0, bias, emp + 1)


class TestEqualLengthLadder:
    def test_defect_brackets_the_root(self):
        for rate in RATES:
            for bias in (0.05 / rate, 0.5 / rate, 2.0 / rate):
                c = 2.0 / rate + 2.0 * bias
                assert equal_length_defect(2.0 * bias, rate, bias) > 0.0
                assert equal_length_defect(c, rate, bias) < 0.0

    def test_fixed_point_frozen(self):
        assert fixed_point_length(1.0, 0.5) == pytest.approx(
            2.575678909920331, rel=1e-14)

    def test_fixed_point_zeroes_the_defect(self):
        for rate in RATES:
            for bias in (0.1 / rate, 1.0 / rate):
                lstar = fixed_point_length(rate, bias)
                assert abs(equal_length_defect(lstar, rate, bias)) <= 1e-10
                assert 2.0 * bias < lstar < 2.0 / rate + 2.0 * bias

    def test_fixed_point_needs_positive_bias(self):
        with pytest.raises(DomainError):
            fixed_point_length(1.0, 0.0)
        with pytest.raises(DomainError):
            fixed_point_length(1.0, -0.1)

    def test_fixed_point_refuses_a_rate_times_bias_that_underflows(self):
        # 3.9e-277 * 2.2e-308 rounds to 0, which leaves the root's
        # equation 0 = 0; a subnormal product still puts the root at
        # sqrt(3*rate*bias)*c, to leading order
        with pytest.raises(DomainError, match="rate\\*bias underflows to 0"):
            fixed_point_length(3.9e-277, 2.2e-308)
        rb = 1e-300 * 1e-23
        assert 0.0 < rb < 2.3e-308
        lstar = fixed_point_length(1e-300, 1e-23)
        assert lstar == pytest.approx(math.sqrt(3.0 * rb) * 2e300, rel=1e-12)

    def test_fixed_point_survives_large_bias(self):
        # exp(rate * length) overflows a float here; the solve must not
        lstar = fixed_point_length(1.0, 400.0)
        assert 800.0 < lstar < 802.0

    def test_fixed_point_needs_a_finite_scale(self):
        # the true length overflows at bias 1e308 and at subnormal rates
        for rate, bias in ((1e-308, 1.0), (1.0, 1e308)):
            with pytest.raises(DomainError, match=r"2/rate \+ 2\*bias"):
                fixed_point_length(rate, bias)

    def test_fixed_point_and_limit_cost_against_mpmath(self):
        # rate from 1e-3 to 1e3 and bias from 1e-12 to 1e3: the length is
        # within 16 ulps of a 60-digit root of equal_length_defect
        # (measured 3.3), found by bisection on (2*bias, c), and the
        # limit cost within 1e-14 relative (measured 9.3e-16)
        with mp.workdps(60):
            for rate in np.logspace(-3.0, 3.0, 13).tolist():
                for bias in np.logspace(-12.0, 3.0, 16).tolist():
                    lam, c = mp.mpf(rate), 2 / mp.mpf(rate) + 2 * mp.mpf(bias)
                    lo, hi = 2 * mp.mpf(bias), c
                    while hi - lo > lo * mp.mpf(2) ** -80:
                        mid = (lo + hi) / 2
                        if (c - mid) * mp.exp(lam * mid) > c + mid:
                            lo = mid
                        else:
                            hi = mid
                    lstar = fixed_point_length(rate, bias)
                    assert abs(lstar - lo) <= 16 * math.ulp(lstar), (rate, bias)
                    s = lam * lo / 2
                    cost = (1 - (s / mp.sinh(s)) ** 2) / lam ** 2
                    assert abs(decoder_cost_infinite(rate, bias) - cost) <= \
                        1e-14 * cost, (rate, bias)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fixed_point_and_limit_cost_at_tiny_rates(self):
        # rate from 1e-150 to 1e-300 at bias 1, where rate^2 underflows
        # (below 1.5e-154): as above, against a root found by geometric
        # bisection. s = rate*length/2 falls to 1.7e-150, so the oracle's
        # exp(rate*length) and 1 - (s/sinh(s))^2 cancel some 300 digits.
        # Measured: 0.91 ulps and 3.9e-16 relative
        with mp.workdps(700):
            for rate in np.logspace(-150.0, -300.0, 7).tolist():
                lam, c = mp.mpf(rate), 2 / mp.mpf(rate) + 2
                lo, hi = mp.mpf(2), c
                while hi > lo * (1 + mp.mpf(2) ** -80):
                    mid = mp.sqrt(lo * hi)
                    if (c - mid) * mp.exp(lam * mid) > c + mid:
                        lo = mid
                    else:
                        hi = mid
                lstar = fixed_point_length(rate, 1.0)
                assert abs(lstar - lo) <= 16 * math.ulp(lstar), rate
                s = lam * lo / 2
                cost = (1 - (s / mp.sinh(s)) ** 2) / lam ** 2
                assert abs(decoder_cost_infinite(rate, 1.0) - cost) <= \
                    1e-14 * cost, rate

    def test_n_bin_lengths_approach_fixed_point(self):
        lstar = fixed_point_length(1.0, 0.5)
        gaps = [abs(solve_n_bins(1.0, 0.5, n).lengths[0] - lstar)
                for n in (8, 12, 16)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-10

    def test_window_certifies_with_last_edge_excluded(self):
        p = infinite_equilibrium(1.0, 0.5, n_edges=64)
        partial = certify(p, tol=1e-8, excluded_edges=(64,))
        assert partial.verdict
        full = certify(p, tol=1e-8)
        assert not full.verdict
        # truncation defect at the closing edge is exactly -h(l*)/2
        lstar = fixed_point_length(1.0, 0.5)
        assert full.residuals[-1] == pytest.approx(-h(lstar, 1.0) / 2.0,
                                                   abs=1e-12)

    def test_window_edges_are_multiples(self):
        p = infinite_equilibrium(2.0, 0.3, n_edges=5)
        lstar = fixed_point_length(2.0, 0.3)
        for k, edge in enumerate(p.interior_edges, start=1):
            assert edge == pytest.approx(k * lstar, rel=1e-15)


class TestCostLadder:
    def test_frozen_decoder_costs(self):
        assert decoder_cost(solve_n_bins(1.0, 0.5, 2)).decoder_cost == \
            pytest.approx(0.49620201419439410, rel=1e-13)
        assert decoder_cost(solve_n_bins(1.0, 0.5, 3)).decoder_cost == \
            pytest.approx(0.42330200709788772, rel=1e-13)
        assert decoder_cost(solve_n_bins(1.0, 0.5, 5)).decoder_cost == \
            pytest.approx(0.40896884499802484, rel=1e-13)

    def test_strictly_decreasing_in_bin_count(self):
        costs = [decoder_cost(solve_n_bins(1.0, 0.5, n)).decoder_cost
                 for n in range(1, 21)]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_limit_value(self):
        limit = decoder_cost_infinite(1.0, 0.5)
        assert limit == pytest.approx(0.40853046175209623, rel=1e-13)
        cost20 = decoder_cost(solve_n_bins(1.0, 0.5, 20)).decoder_cost
        assert cost20 > limit
        assert cost20 - limit < 1e-8
