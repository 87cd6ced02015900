"""Gaussian-source equilibria: two-bin balance, ladders, finite bins."""

import math

import mpmath as mp
import numpy as np
import pytest

from cheaptalk import gaussian, sources
from cheaptalk.equilibrium import Partition, certify
from cheaptalk.errors import DomainError, EdgeOrderingError, NonConvergenceError
from cheaptalk.gaussian import (
    TruncatedLadder,
    _damped_midpoints,
    _default_start,
    _solve_edges,
    _thomas,
    asymptotic_bin_length,
    balance_derivative_floor,
    half_line_bin_bound,
    ladder_boxes,
    lower_mills_peak,
    solve_n_bins_gauss,
    solve_truncated_ladder,
    solve_two_bin_gauss,
    two_bin_balance,
)
from cheaptalk.sources import SourceModel, _std_interval_slopes
from seeds import equal_width, equal_width_ladder

STD_GAUSS = SourceModel.gaussian(0.0, 1.0)


class TestBalance:
    def test_odd(self):
        for c in (0.3, 1.7, 4.0):
            assert two_bin_balance(-c) == pytest.approx(-two_bin_balance(c),
                                                        rel=1e-14)
        assert two_bin_balance(0.0) == 0.0

    def test_strictly_increasing(self):
        grid = np.linspace(-8.0, 8.0, 400)
        vals = [two_bin_balance(c) for c in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_derivative_floor(self):
        # flattest at zero, where the slope is 2 - 2*pdf(0)^2/cdf(0)^2
        floor = balance_derivative_floor(np.linspace(-6.0, 6.0, 125))
        expected = 2.0 - 4.0 / math.pi
        assert floor == pytest.approx(expected, abs=1e-7)
        assert floor > 0.07

    def test_derivative_floor_validation(self):
        with pytest.raises(DomainError):
            balance_derivative_floor([], step=1e-5)
        with pytest.raises(DomainError):
            balance_derivative_floor([0.0], step=0.0)

    def test_lower_mills_peak(self):
        # the peak of c*pdf(c)/cdf(c) is the root of its derivative's sign
        # factor 1 - c^2 - c*pdf(c)/cdf(c), here to 40 digits
        with mp.workdps(40):
            def product(c):
                return c * mp.npdf(c) / mp.ncdf(c)

            root = mp.findroot(lambda c: 1 - c * c - product(c), mp.mpf("0.84"))
            peak = product(root)
        loc, val = lower_mills_peak()
        # both to 2 ulps (measured 0.05 and 0.26)
        assert abs(loc - root) <= 2 * math.ulp(loc)
        assert abs(val - peak) <= 2 * math.ulp(val)


class TestTwoBin:
    def test_frozen_standard_edge(self):
        edge = solve_two_bin_gauss(0.0, 1.0, 0.5).interior_edges[0]
        assert edge == pytest.approx(1.2780119500746878, abs=1e-11)

    def test_zero_bias_splits_at_mean(self):
        assert solve_two_bin_gauss(3.0, 2.0, 0.0).interior_edges[0] == \
            pytest.approx(3.0, abs=1e-12)

    def test_edge_sign_follows_bias(self):
        for bias in (0.01, 0.4, 2.0):
            assert solve_two_bin_gauss(0.0, 1.0, bias).interior_edges[0] > 0.0
            assert solve_two_bin_gauss(0.0, 1.0, -bias).interior_edges[0] < 0.0

    def test_location_scale_covariance(self):
        c = solve_two_bin_gauss(0.0, 1.0, 0.5).interior_edges[0]
        edge = solve_two_bin_gauss(2.0, 3.0, 1.5).interior_edges[0]
        assert edge == pytest.approx(2.0 + 3.0 * c, rel=1e-13)

    def test_certifies_across_biases(self):
        for bias in (-1.5, -0.2, 0.0, 0.3, 4.0):
            p = solve_two_bin_gauss(0.5, 1.2, bias)
            assert certify(p, tol=1e-9).verdict

    def test_balance_root_against_mpmath(self):
        # the normalized edge for 400 values of 2*bias/std, log-spaced
        # from 1e-6 to 30 and uniform on [0, 4], either sign: the balance
        # residual at the float root, in 50-digit mpmath, is at most
        # 5e-14 (measured 3.0e-15: Newton stops on rounding noise)
        rng = np.random.default_rng(7)
        ys = (np.concatenate((10.0 ** rng.uniform(-6.0, 1.5, 300),
                              rng.uniform(0.0, 4.0, 100)))
              * rng.choice([-1.0, 1.0], 400))
        with mp.workdps(50):
            def mills(x):
                return mp.npdf(x) / (mp.erfc(x / mp.sqrt(2)) / 2)

            for y in ys.tolist():
                c = mp.mpf(solve_two_bin_gauss(0.0, 1.0, y / 2.0).edges[1])
                residual = 2 * c - mills(c) + mills(-c) - mp.mpf(y)
                assert abs(residual) <= 5e-14, y

    def test_edge_satisfies_balance(self):
        for bias in (0.25, 1.0):
            c = solve_two_bin_gauss(0.0, 1.0, bias).interior_edges[0]
            assert two_bin_balance(c) == pytest.approx(2.0 * bias, abs=1e-11)


class TestSideCaps:
    def test_half_line_bound_values(self):
        assert half_line_bin_bound(1.0, 0.5) == 1
        assert half_line_bin_bound(1.0, 0.05) == 10
        assert half_line_bin_bound(2.0, -0.3) == 3

    def test_half_line_bound_validation(self):
        with pytest.raises(DomainError):
            half_line_bin_bound(1.0, 0.0)
        with pytest.raises(DomainError):
            half_line_bin_bound(1.0, math.inf)
        with pytest.raises(DomainError):
            half_line_bin_bound(0.0, 0.5)

    def test_asymptotic_length(self):
        assert asymptotic_bin_length(-0.3) == pytest.approx(0.6)
        assert asymptotic_bin_length(0.25) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            asymptotic_bin_length(0.0)

    def test_ladder_boxes_reflect(self):
        (alo, ahi), lens = ladder_boxes(0.0, 1.0, 0.3)
        (blo, bhi), lens2 = ladder_boxes(0.0, 1.0, -0.3)
        assert (blo, bhi) == (-ahi, -alo)
        assert lens == lens2


class TestTruncatedLadderType:
    def test_validation(self):
        with pytest.raises(DomainError):
            TruncatedLadder(math.inf, (1.0,))
        with pytest.raises(DomainError):
            TruncatedLadder(0.0, ())
        with pytest.raises(DomainError):
            TruncatedLadder(0.0, (1.0, -0.5))
        with pytest.raises(DomainError):
            TruncatedLadder(0.0, (1.0,), margin=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0,
                                     -0.0, -0.5])
    @pytest.mark.parametrize("at", [0, 199])
    def test_every_length_is_checked(self, bad, at):
        lengths = [0.1] * 200
        lengths[at] = bad
        with pytest.raises(DomainError,
                           match="^ladder lengths must be finite and positive$"):
            TruncatedLadder(0.0, np.array(lengths))

    def test_edges_for_orientation(self):
        ladder = TruncatedLadder(1.0, (0.5, 0.7))
        up = ladder.edges_for(0.3)
        assert up == pytest.approx([1.0, 1.5, 2.2])
        down = ladder.edges_for(-0.3)
        assert down == pytest.approx([-0.2, 0.3, 1.0])
        with pytest.raises(DomainError):
            ladder.edges_for(0.0)

    def test_edges_for_hits_the_anchor_exactly(self):
        # 2 000 random ladders of each sign: the anchor edge, first for
        # positive bias and last for negative, is anchor_edge bit for bit;
        # laid down from the far end, the negative-bias ladders missed it
        # by rounding in 1 434 of these 2 000
        rng = np.random.default_rng(32)
        for _ in range(2000):
            anchor = float(rng.uniform(-5.0, 5.0))
            lengths = rng.uniform(0.01, 3.0, int(rng.integers(1, 60)))
            ladder = TruncatedLadder(anchor, tuple(lengths))
            up, down = ladder.edges_for(0.3), ladder.edges_for(-0.3)
            assert (up[0], down[-1]) == (anchor, anchor)
            assert (np.diff(up) > 0.0).all() and (np.diff(down) > 0.0).all()

    def test_n_edges(self):
        assert TruncatedLadder(0.0, (1.0, 1.0, 1.0)).n_edges == 4


class TestTruncatedLadderSolve:
    def test_converges_and_certifies(self):
        for bias in (0.3, 0.5):
            res = solve_truncated_ladder(STD_GAUSS, bias)
            assert res.converged
            assert res.certificate.verdict
            assert res.certificate.excluded_edges == (36, 37, 38, 39, 40)
            assert res.final_change <= 1e-10

    def test_frozen_anchor(self):
        res = solve_truncated_ladder(STD_GAUSS, 0.3)
        assert res.ladder.anchor_edge == pytest.approx(0.6864167174135143,
                                                       abs=1e-9)

    def test_negative_bias_is_the_mirror_image(self):
        pos = solve_truncated_ladder(STD_GAUSS, 0.3)
        neg = solve_truncated_ladder(STD_GAUSS, -0.3)
        assert neg.converged and neg.certificate.verdict
        assert neg.certificate.excluded_edges == (1, 2, 3, 4, 5)
        assert neg.ladder.anchor_edge == pytest.approx(
            -pos.ladder.anchor_edge, abs=1e-12)
        assert neg.ladder.lengths == pytest.approx(
            tuple(reversed(pos.ladder.lengths)), abs=1e-12)

    def test_window_widening_leaves_kept_edges_put(self):
        small = solve_truncated_ladder(STD_GAUSS, 0.3, n_edges=40)
        large = solve_truncated_ladder(STD_GAUSS, 0.3, n_edges=80)
        kept = 40 - small.ladder.margin
        drift = np.abs(small.ladder.edges_for(0.3)[:kept]
                       - large.ladder.edges_for(0.3)[:kept])
        assert float(drift.max()) < 1e-8

    def test_result_respects_a_priori_boxes(self):
        for bias in (0.3, -0.5):
            res = solve_truncated_ladder(STD_GAUSS, bias)
            (alo, ahi), (llo, lhi) = ladder_boxes(0.0, 1.0, bias)
            assert alo < res.ladder.anchor_edge < ahi
            assert all(llo < x < lhi for x in res.ladder.lengths)

    def test_restart_from_solution_is_stationary(self):
        first = solve_truncated_ladder(STD_GAUSS, 0.3)
        again = solve_truncated_ladder(STD_GAUSS, 0.3, init=first.ladder)
        assert again.converged
        assert again.iterations <= 3
        assert again.ladder.anchor_edge == pytest.approx(
            first.ladder.anchor_edge, abs=1e-9)

    def test_init_margin_wins(self):
        init = TruncatedLadder(1.2780119500746878, (0.7,) * 9, margin=3)
        res = solve_truncated_ladder(STD_GAUSS, 0.5, init=init)
        assert res.certificate.excluded_edges == (8, 9, 10)

    def test_non_convergence_is_data(self):
        res = solve_truncated_ladder(STD_GAUSS, 0.3, max_iter=2)
        assert not res.converged
        assert res.iterations == 2
        assert res.final_change > 1e-10
        assert not res.certificate.verdict

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            solve_truncated_ladder(SourceModel.exponential(1.0), 0.3)
        with pytest.raises(DomainError):
            solve_truncated_ladder(STD_GAUSS, 0.0)
        with pytest.raises(DomainError):
            solve_truncated_ladder(STD_GAUSS, 0.3, n_edges=1)
        with pytest.raises(DomainError):
            solve_truncated_ladder(STD_GAUSS, 0.3, margin=40)


class TestFiniteBins:
    def test_zero_bias_is_symmetric(self):
        p = solve_n_bins_gauss(0.0, 1.0, 0.0, 4)
        e = p.interior_edges
        assert e[1] == pytest.approx(0.0, abs=1e-12)
        assert e[0] == pytest.approx(-e[2], abs=1e-9)
        assert certify(p, tol=1e-8).verdict

    def test_negative_bias_certifies(self):
        p = solve_n_bins_gauss(0.0, 1.0, -0.2, 4)
        assert certify(p, tol=1e-8).verdict
        assert all(e < 0.0 for e in p.interior_edges)

    def test_general_location_scale(self):
        p = solve_n_bins_gauss(1.0, 2.0, -0.3, 3)
        assert certify(p, tol=1e-8).verdict

    @pytest.mark.parametrize("mean", [3e5, 1e6])
    def test_far_mean_narrow_std_solves(self, mean):
        # tol 1e-10 is under one ulp of x at 1e6; the loop tests it as
        # tol/std in std units, where this is N(0, 1) at bias 0.1
        p = solve_n_bins_gauss(mean, 1e-3, 1e-4, 6)
        assert certify(p).verdict
        res = solve_truncated_ladder(SourceModel.gaussian(mean, 1e-3), 1e-4)
        assert res.converged and res.certificate.verdict

    def test_non_convergence_payload_is_in_x(self):
        # the loop stops at max_iter in std units; its last edges and its
        # final change come back in x
        with pytest.raises(NonConvergenceError) as unit:
            solve_n_bins_gauss(0.0, 1.0, 0.3, 5, max_iter=3)
        with pytest.raises(NonConvergenceError) as moved:
            solve_n_bins_gauss(2.0, 1e-3, 3e-4, 5, max_iter=3, tol=1e-13)
        assert moved.value.iterations == 3
        # measured 5.5e-13 relative, about the seed's rounding in std
        # units (eps*2/1e-3 = 4.4e-13), and 0 absolute
        assert moved.value.final_change == pytest.approx(
            1e-3 * unit.value.final_change, rel=2e-12)
        gap = np.abs(np.array(moved.value.edges)
                     - (2.0 + 1e-3 * np.array(unit.value.edges)))
        assert float(gap.max()) <= 2e-15

    def test_single_bin(self):
        p = solve_n_bins_gauss(0.0, 1.0, 5.0, 1)
        assert p.edges == (-math.inf, math.inf)

    def test_two_bins_match_closed_form(self):
        iterated = solve_n_bins_gauss(0.0, 1.0, 0.5, 2).interior_edges[0]
        direct = solve_two_bin_gauss(0.0, 1.0, 0.5).interior_edges[0]
        assert iterated == pytest.approx(direct, abs=1e-9)

    def test_restart_from_solution_is_stationary(self):
        p = solve_n_bins_gauss(0.0, 1.0, -0.2, 4)
        q = solve_n_bins_gauss(0.0, 1.0, -0.2, 4, init=p)
        drift = max(abs(a - b) for a, b in zip(q.interior_edges,
                                               p.interior_edges))
        assert drift < 1e-9

    def test_non_convergence_error_payload(self):
        with pytest.raises(NonConvergenceError) as err:
            solve_n_bins_gauss(0.0, 1.0, 0.3, 5, max_iter=3)
        assert err.value.iterations == 3
        assert err.value.final_change > 0.0
        assert len(err.value.edges) == 4

    def test_default_seed_anchor_is_the_two_bin_edge(self):
        # the seed's edge on the bounded side, in std units, maps to
        # solve_two_bin_gauss's edge bit for bit; below |bias|/std =
        # 0.0125 the seed is the equal-width one, edges 1/4 apart
        rng = np.random.default_rng(19)
        for mean, std, size, sign in zip(
                rng.uniform(-5.0, 5.0, 500), 10.0 ** rng.uniform(-2.0, 2.0, 500),
                10.0 ** rng.uniform(-6.0, 0.5, 500), rng.choice([-1.0, 1.0], 500)):
            mean, std, bias = float(mean), float(std), float(sign * size * std)
            seed = _default_start(bias / std, 5)
            anchor = seed[0] if bias > 0.0 else seed[-1]
            assert mean + std * anchor == solve_two_bin_gauss(mean, std, bias).edges[1]
            if size <= 0.0125:
                steps = np.arange(5) if bias > 0.0 else np.arange(-4, 1)
                assert np.array_equal(seed, anchor + 0.25 * steps)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            solve_n_bins_gauss(0.0, 1.0, math.nan, 3)
        with pytest.raises(DomainError):
            solve_n_bins_gauss(0.0, 1.0, 0.2, 0)
        with pytest.raises(DomainError):
            solve_n_bins_gauss(0.0, 1.0, 0.2, 3, damping=0.0)
        with pytest.raises(DomainError):
            init = solve_n_bins_gauss(0.0, 1.0, 0.2, 3)
            solve_n_bins_gauss(0.0, 1.0, 0.2, 4, init=init)
        # the default start's edges round together at this location
        with pytest.raises(DomainError, match="finer than x's resolution"):
            solve_n_bins_gauss(1e20, 1.0, 0.1, 3)


def rounding_floor_start(bias, n_bins):
    """The start of the rounding-floor tests: the default one at bias 0,
    the equal-width one otherwise. From the default start at bias 0.1 the
    8-bin solve lands on a float fixed point, a full step of exactly 0,
    which any tol accepts (test_default_start_at_rounding_floor)."""
    if bias == 0.0:
        return None
    edges = equal_width(bias, n_bins - 1)
    return Partition((-math.inf, *edges, math.inf), STD_GAUSS, bias)


def damped_reference(mean, std, bias, n_bins, tol):
    """The damped loop from solve_n_bins_gauss's default seed, run in std
    units as the solve loop runs, and mapped back to x."""
    source = SourceModel.gaussian(mean, std)
    edges, converged, _, _ = _damped_midpoints(
        source, bias / std, _default_start(bias / std, n_bins - 1),
        0.5, 100_000, tol / std)
    assert converged
    return source._from_frame(edges)


def restart_blocks(monkeypatch):
    """Record the max_iter of every damped restart block the solve loop
    runs."""
    blocks = []

    def block(*args):
        blocks.append(args[4])
        return _damped_midpoints(*args)

    monkeypatch.setattr(gaussian, "_damped_midpoints", block)
    return blocks


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNewton:
    def test_stopping_rule_gap(self):
        """At n = 64 and b = 0 the damped rule "movement <= 1e-10" stops
        8.5e-8 from the root; Newton stops after a step <= 1e-10 and
        converges quadratically, so it stops far closer. The reference
        runs at tol 1e-15: its rate is about 1 - 3.4e-3, so at 1e-14 it
        still sits 8.5e-12 from the root itself."""
        p = solve_n_bins_gauss(0.0, 1.0, 0.0, 64)
        gap = np.abs(np.array(p.interior_edges)
                     - damped_reference(0.0, 1.0, 0.0, 64, 1e-15))
        assert float(gap.max()) <= 1e-12
        assert certify(p, tol=1e-12).verdict

    @pytest.mark.parametrize("mean,std", [(0.0, 1.0), (-0.7, 1.9)])
    @pytest.mark.parametrize("n_bins", [3, 8, 24])
    @pytest.mark.parametrize("ratio", [0.05, -0.05, 0.5, -0.5])
    def test_grid_certifies_and_matches_damped(self, mean, std, n_bins, ratio):
        bias = ratio * std
        p = solve_n_bins_gauss(mean, std, bias, n_bins)
        assert certify(p, tol=1e-12).verdict
        gap = np.abs(np.array(p.interior_edges)
                     - damped_reference(mean, std, bias, n_bins, 1e-14))
        assert float(gap.max()) <= 1e-11

    @pytest.mark.parametrize("bias", [0.05, 0.3, -0.5, 1.0])
    def test_ladder_takes_a_few_steps(self, bias):
        # the damped loop needs hundreds of iterations here; Newton needs
        # the closing edge's slope in the last Jacobian row to stay fast
        res = solve_truncated_ladder(STD_GAUSS, bias, cert_tol=1e-12)
        assert res.converged and res.certificate.verdict
        assert res.iterations <= 10

    @pytest.mark.parametrize("bias,start,crosses", [
        # Newton drives two edges together (a collapsing bin) and breaks
        # down after 11 steps; one restart block of 8 damped steps, then
        # Newton again, reaches the root
        (-0.4, (-1.4, 1.4, 1.8, 2.0, 3.1), False),
        # three bins one ulp wide deep in the lower tail: their centroids
        # round onto the shared edges, so Newton breaks down and the
        # restart block's first damped step crosses edges
        (0.1, (-3.0, -2.9999999999999996, -2.999999999999999,
               -2.9999999999999987, -2.0), True),
    ])
    def test_breakdown_restarts_with_damped_steps(self, monkeypatch, bias,
                                                  start, crosses):
        blocks = restart_blocks(monkeypatch)
        init = Partition((-math.inf, *start, math.inf), STD_GAUSS, bias)
        if crosses:
            with pytest.raises(EdgeOrderingError) as err:
                solve_n_bins_gauss(0.0, 1.0, bias, len(start) + 1, init=init)
            assert (blocks, err.value.iteration) == ([8], 1)
            return
        p = solve_n_bins_gauss(0.0, 1.0, bias, len(start) + 1, init=init)
        assert blocks == [8]
        assert certify(p, tol=1e-12).verdict
        want, converged, _, _ = _damped_midpoints(
            STD_GAUSS, bias, np.array(start), 0.5, 100_000, 1e-14)
        assert converged
        assert float(np.abs(np.array(p.interior_edges) - want).max()) <= 1e-11

    def test_ladder_breakdown_restarts_with_damped_steps(self, monkeypatch):
        # a ladder packed into the lower tail, far below its anchor,
        # breaks Newton down
        blocks = restart_blocks(monkeypatch)
        init = TruncatedLadder(-3.0, (0.05,) * 10)
        res = solve_truncated_ladder(STD_GAUSS, 0.3, init=init, cert_tol=1e-12)
        assert blocks == [8]
        assert res.converged and res.certificate.verdict
        want, converged, _, _ = _damped_midpoints(
            STD_GAUSS, 0.3, init.edges_for(0.3), 0.5, 100_000, 1e-14, 0.6)
        assert converged
        gap = np.abs(np.array(res.partition.interior_edges) - want)
        assert float(gap.max()) <= 1e-11

    def test_newton_iterates_make_one_rule_pass(self, monkeypatch):
        # F comes from the rule pass that gives the Jacobian, and each
        # damped step of a restart block makes one rule pass of its own
        rules, slopes = [], []
        for module, name, calls in ((sources, "_std_rule", rules),
                                    (gaussian, "_std_interval_slopes", slopes)):
            def counted(za, zb, kernel=getattr(module, name), calls=calls):
                calls.append(za.shape)
                return kernel(za, zb)

            monkeypatch.setattr(module, name, counted)
        blocks = restart_blocks(monkeypatch)
        _, converged, steps, _ = _solve_edges(
            STD_GAUSS, 0.1, _default_start(0.1, 23), 0.5,
            100_000, 1e-10)
        assert (converged, blocks) == (True, [])
        assert rules == slopes and len(rules) >= steps
        rules.clear()
        slopes.clear()
        _, converged, _, _ = _solve_edges(
            STD_GAUSS, -0.4, np.array((-1.4, 1.4, 1.8, 2.0, 3.1)), 0.5,
            100_000, 1e-10)
        assert converged and blocks == [8]
        assert len(rules) == len(slopes) + 8

    def test_damped_steps_count_against_max_iter(self, monkeypatch):
        # the collapsing start above takes 11 Newton steps before its
        # breakdown, so a cap of 14 leaves a restart block of 3
        blocks = restart_blocks(monkeypatch)
        start = np.array((-1.4, 1.4, 1.8, 2.0, 3.1))
        edges, converged, steps, change = _solve_edges(
            STD_GAUSS, -0.4, start, 0.5, 14, 1e-10)
        assert (blocks, converged, steps) == ([3], False, 14)
        want = _damped_midpoints(STD_GAUSS, -0.4, start, 0.5, 3, 1e-10)[0]
        assert edges.tolist() == want.tolist()
        # the smallest full Newton step, taken before the breakdown
        assert 1e-10 < change < math.inf

    @pytest.mark.parametrize("n_bins,bias,tol", [
        (8, 0.1, 1e-16), (16, 0.0, 1e-15), (64, 0.0, 1e-15), (200, 0.0, 1e-14),
    ])
    def test_tol_below_rounding_stops_fast(self, n_bins, bias, tol):
        # max|F| reaches rounding level while full steps stay above tol:
        # the loop stops once they stop shrinking instead of running on
        # to max_iter
        with pytest.raises(NonConvergenceError) as err:
            solve_n_bins_gauss(0.0, 1.0, bias, n_bins, tol=tol, max_iter=1000,
                               init=rounding_floor_start(bias, n_bins))
        assert err.value.iterations < 30
        assert err.value.final_change > tol
        assert f"after {err.value.iterations} steps" in str(err.value)

    @pytest.mark.parametrize("n_bins,bias,tol", [
        (8, 0.1, 6e-15), (200, 0.0, 1e-13),
    ])
    def test_tol_just_above_rounding_converges(self, n_bins, bias, tol):
        # the smallest full Newton step, the rounding floor these tols
        # sit just above, is 4.0e-15 and 9.99e-14 here; the first moves
        # with the last bits of the biased seed's two-bin anchor
        p = solve_n_bins_gauss(0.0, 1.0, bias, n_bins, tol=tol, max_iter=1000,
                               init=rounding_floor_start(bias, n_bins))
        assert certify(p, tol=1e-14).verdict

    def test_default_start_at_rounding_floor(self):
        # from the default start at bias 0.1 the 8-bin loop lands on a
        # float fixed point, a full Newton step of exactly 0, which meets
        # a tol below the rounding floor
        z, converged, _, change = _solve_edges(
            STD_GAUSS, 0.1, _default_start(0.1, 7), 0.5, 1000, 1e-16)
        assert (converged, change) == (True, 0.0)
        p = solve_n_bins_gauss(0.0, 1.0, 0.1, 8, tol=1e-16, max_iter=1000)
        assert p.interior_edges == tuple(z.tolist())
        assert certify(p, tol=1e-14).verdict

    def test_ladder_tol_below_rounding_stops_fast(self):
        res = solve_truncated_ladder(STD_GAUSS, 0.3, tol=1e-15, max_iter=1000)
        assert not res.converged
        assert res.iterations < 30
        assert res.final_change > 1e-15


class TestDefaultStart:
    """The default start follows the ladder's length law, so Newton takes
    fewer kernel passes than from the equal-width start, and lands on the
    same root. Passes are counted by wrapping the one kernel call each
    Newton iterate and line-search trial makes, so the counts do not
    depend on the host."""

    BIASES = (0.05, 0.1, 0.2, 0.3, 0.5)

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(za, zb, kernel=gaussian._std_interval_slopes):
            calls.append(None)
            return kernel(za, zb)

        monkeypatch.setattr(gaussian, "_std_interval_slopes", counted)

        def count(solve):
            calls.clear()
            result = solve()
            return len(calls), result

        return count

    @staticmethod
    def assert_same_root(got, want):
        got, want = np.array(got), np.array(want)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def test_n_bin_solves_take_fewer_passes(self, passes):
        counts = []
        for bias in (s * b for b in self.BIASES for s in (1.0, -1.0)):
            for n_bins in range(3, 25):
                new, p = passes(lambda: solve_n_bins_gauss(0.0, 1.0, bias, n_bins))
                init = Partition((-math.inf, *equal_width(bias, n_bins - 1),
                                  math.inf), STD_GAUSS, bias)
                old, q = passes(lambda: solve_n_bins_gauss(0.0, 1.0, bias, n_bins,
                                                           init=init))
                assert new <= old, (bias, n_bins)
                self.assert_same_root(p.interior_edges, q.interior_edges)
                counts.append(new)
        assert np.mean(counts) <= 4.6

    def test_ladders_take_fewer_passes(self, passes):
        counts = []
        for bias in (s * b for b in self.BIASES for s in (1.0, -1.0)):
            new, res = passes(lambda: solve_truncated_ladder(STD_GAUSS, bias))
            old, ref = passes(lambda: solve_truncated_ladder(
                STD_GAUSS, bias, init=equal_width_ladder(bias, 40)))
            assert res.converged and ref.converged
            assert new <= old, bias
            self.assert_same_root(res.partition.interior_edges,
                                  ref.partition.interior_edges)
            counts.append(new)
        assert np.mean(counts) <= 5.0


class TestFloatingPointErrors:
    """No solve divides by zero, overflows or forms an invalid value such
    as 0 * inf at an infinite end: the solve loop sets no np.errstate of
    its own, so any of these raises here. Underflow in the far tails is
    legitimate."""

    RAISE = {"invalid": "raise", "divide": "raise", "over": "raise"}

    def test_n_bin_solves(self):
        with np.errstate(**self.RAISE):
            for n_bins in range(2, 25):
                for bias in (k / 10.0 for k in range(-5, 6)):
                    p = solve_n_bins_gauss(0.0, 1.0, bias, n_bins)
                    assert p.n_bins == n_bins

    @pytest.mark.parametrize("bias", [-0.5, -0.3, -0.1, 0.1, 0.2, 0.4, 0.5])
    def test_ladder_solves(self, bias):
        with np.errstate(**self.RAISE):
            res = solve_truncated_ladder(STD_GAUSS, bias)
        assert res.converged and res.certificate.verdict

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_far_scale_solves(self, scale):
        # bias/std = scale: the outer bins span more than 1e154 std, where
        # an unbounded end offset would overflow the slope exponent. The
        # ladder does not converge at these scales; it must still return.
        with np.errstate(**self.RAISE):
            p = solve_n_bins_gauss(0.0, 1.0, scale, 3)
            res = solve_truncated_ladder(STD_GAUSS, scale)
        assert certify(p).verdict
        assert res.ladder.n_edges == 40

    def test_ladder_keeps_its_closing_bin(self):
        # at bias 1e-12 the ladder's closing step, 2e-12 in std units, is
        # under half an ulp of a last edge past |z| = 32768, where Newton's
        # line search takes it: once a trial's closing edge rounded onto
        # its last edge, the kernel divided that bin's 0 by its 0 mass.
        # The trial is rejected now, and the solve stops at max_iter
        with np.errstate(**self.RAISE):
            res = solve_truncated_ladder(STD_GAUSS, 1e-12, n_edges=10,
                                         max_iter=300)
        assert not res.converged and res.iterations == 300
        last = res.partition.edges[-2]
        assert last + 2e-12 > last

    def test_solve_through_a_restart_block(self, monkeypatch):
        blocks = restart_blocks(monkeypatch)
        with np.errstate(**self.RAISE):
            _, converged, _, _ = _solve_edges(
                STD_GAUSS, -0.4, np.array((-1.4, 1.4, 1.8, 2.0, 3.1)), 0.5,
                100_000, 1e-10)
        assert converged and blocks == [8]


def dense(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


class TestThomas:
    def test_matches_dense_solve(self):
        # random systems whose rows are diagonally dominant, as every
        # Newton Jacobian's are
        rng = np.random.default_rng(11)
        for n in range(1, 201):
            sub, sup = rng.uniform(-0.5, 0.5, (2, n - 1))
            diag = (rng.uniform(0.01, 1.0, n) + np.abs(np.r_[0.0, sub])
                    + np.abs(np.r_[sup, 0.0]))
            rhs = rng.normal(size=n)
            got = _thomas(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
            want = np.linalg.solve(dense(sub, diag, sup), rhs)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("bias, n_bins",
                             [(0.05, None), (0.3, None), (0.5, None), (0.3, 12)],
                             ids=["0.05", "0.3", "0.5", "12-bin game"])
    def test_ladder_jacobian_with_its_closing_row(self, bias, n_bins):
        # the Jacobian _newton_step builds at a solved ladder, closing
        # edge e_last + 2b included, or at a finite game, closing at +inf:
        # each row's diagonal exceeds its off-diagonals by the mean
        # variance of its two bins
        if n_bins is None:
            edges = np.array(solve_truncated_ladder(STD_GAUSS, bias)
                             .partition.interior_edges)
            close = edges[-1] + 2.0 * bias
        else:
            edges = np.array(solve_n_bins_gauss(0.0, 1.0, bias, n_bins)
                             .interior_edges)
            close = math.inf
        z = np.concatenate(([-np.inf], edges, [close]))
        _, lo, hi = _std_interval_slopes(z[:-1], z[1:])
        if n_bins is not None:
            # the closing row's added slope is exactly +0.0 at +inf
            assert hi[-1] == 0.0 and math.copysign(1.0, hi[-1]) == 1.0
        sub, sup = -0.5 * lo[1:-1], -0.5 * hi[1:-1]
        diag = 1.0 - 0.5 * (hi[:-1] + lo[1:])
        diag[-1] -= 0.5 * hi[-1]
        var = STD_GAUSS.bin_variances(z)
        margin = diag - np.abs(np.r_[0.0, sub]) - np.abs(np.r_[sup, 0.0])
        assert np.allclose(margin, 0.5 * (var[:-1] + var[1:]), rtol=0.0,
                           atol=1e-13)
        rhs = np.linspace(-1.0, 1.0, edges.size)
        got = _thomas(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
        want = np.linalg.solve(dense(sub, diag, sup), rhs)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_zero_or_non_finite_pivot_gives_none(self):
        assert _thomas([], [0.0], [], [1.0]) is None
        # the second pivot is 1 - 1*1 = 0
        assert _thomas([1.0], [1.0, 1.0], [1.0], [1.0, 2.0]) is None
        assert _thomas([math.inf], [1.0, 1.0], [1.0], [1.0, 2.0]) is None
        assert _thomas([0.5], [math.nan, 1.0], [0.5], [1.0, 2.0]) is None
        assert _thomas([], [2.0], [], [1.0]) == [0.5]
