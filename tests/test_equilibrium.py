"""Partitions, best responses, certificates, and cost reports."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheaptalk import sources
from cheaptalk.equilibrium import (
    _MC_BLOCK,
    ActionProfile,
    Partition,
    certify,
    decoder_best_response,
    decoder_cost,
    encoder_best_response,
    monte_carlo_cost,
)
from cheaptalk.dynamics import basin_probe, lloyd_method_i
from cheaptalk.errors import BinCollapseError, DomainError
from cheaptalk.exponential import (
    infinite_equilibrium,
    solve_n_bins,
    solve_two_bin,
)
from cheaptalk.gaussian import (
    TruncatedLadder,
    solve_n_bins_gauss,
    solve_truncated_ladder,
    solve_two_bin_gauss,
)
from cheaptalk.sources import SourceModel

EXP = SourceModel.exponential(1.0)
GAUSS = SourceModel.gaussian(0.0, 1.0)


def certified_examples():
    return [
        solve_two_bin(1.0, 0.0),
        solve_n_bins(1.0, 0.5, 4),
        solve_n_bins(2.0, -0.1, 2),
        solve_two_bin_gauss(0.0, 1.0, 0.5),
        solve_n_bins_gauss(1.0, 2.0, -0.3, 3),
    ]


class TestPartition:
    def test_requires_support_endpoints(self):
        with pytest.raises(DomainError):
            Partition((0.0, 1.0, 2.0), EXP, 0.0)  # missing the inf tail
        with pytest.raises(DomainError):
            Partition((0.5, 1.0, math.inf), EXP, 0.0)  # wrong lower endpoint
        with pytest.raises(DomainError):
            Partition((0.0, 1.0, math.inf), GAUSS, 0.0)

    def test_requires_strict_ordering(self):
        with pytest.raises(DomainError):
            Partition((0.0, 2.0, 1.0, math.inf), EXP, 0.0)
        with pytest.raises(DomainError):
            Partition((0.0, 1.0, 1.0, math.inf), EXP, 0.0)

    def test_rejects_nan_edges_and_bias(self):
        with pytest.raises(DomainError):
            Partition((0.0, math.nan, math.inf), EXP, 0.0)
        with pytest.raises(DomainError):
            Partition((0.0, 1.0, math.inf), EXP, math.nan)

    @pytest.mark.parametrize("edges, src", [
        ((0.0, math.nan, math.inf), EXP),
        ((0.0, 1.0, 1.0, math.inf), EXP),
        ((-math.inf, 1.0, 0.5, math.inf), GAUSS),
        ((-math.inf, -math.inf, 0.0, math.inf), GAUSS),
        ((0.0, 1.0, math.inf, math.inf), EXP),
        ((0.0,), EXP),
        ((), GAUSS),
    ])
    def test_edges_fail_the_sources_check(self, edges, src):
        # the one edge check of the bin methods, with bin_means' message
        with pytest.raises(DomainError, match="strictly increasing sequence"):
            Partition(edges, src, 0.1)
        with pytest.raises(DomainError, match="strictly increasing sequence"):
            src.bin_means(edges)

    def test_accessors(self):
        p = Partition((0.0, 1.0, 3.0, math.inf), EXP, 0.2)
        assert p.n_bins == 3
        assert p.interior_edges == (1.0, 3.0)
        assert p.lengths == (1.0, 2.0, math.inf)

    def test_from_interior_normalizes_idempotently(self):
        p = Partition.from_interior((1.0, 3.0), EXP, 0.2)
        assert p.edges == (0.0, 1.0, 3.0, math.inf)
        # feeding back edges that already carry the endpoints is a no-op
        q = Partition.from_interior(p.edges, EXP, 0.2)
        assert q.edges == p.edges

    def test_single_bin(self):
        p = Partition((0.0, math.inf), EXP, -3.0)
        assert p.n_bins == 1
        assert p.interior_edges == ()

    @pytest.mark.parametrize("make", (
        tuple, list, np.array, lambda v: (x for x in v),
        lambda v: [Fraction(x) if math.isfinite(x) else x for x in v],
        lambda v: [Decimal(x) for x in v],
        lambda v: [np.float32(x) for x in v],
        lambda v: [int(x) if math.isfinite(x) else x for x in v],
        lambda v: [mpmath.mpf(x) for x in v],
    ))
    def test_every_iterable_of_reals_is_read(self, make):
        # the edges are converted once, by the source's check, whatever
        # iterable of reals holds them
        values = (0.0, 1.0, 3.0, math.inf)
        p = Partition(make(values), EXP, 0.2)
        assert p.edges == values
        assert all(type(e) is float for e in p.edges)
        assert p._edge_array.tolist() == list(values)

    @pytest.mark.parametrize("bad", (None, "a", 1j))
    def test_an_edge_that_is_not_a_number_is_a_domain_error(self, bad):
        edges = (0.0, bad, math.inf)
        with pytest.raises(DomainError, match=re.escape(repr(list(edges)))):
            Partition(edges, EXP, 0.2)

    def test_a_partition_has_one_edge_sequence(self):
        with pytest.raises(DomainError, match="one edge sequence"):
            Partition(np.array([[0.0, 1.0, math.inf]] * 2), EXP, 0.2)

    def test_edge_array_is_its_own_read_only_copy(self):
        values = (0.0, 0.4, 1.1, 2.0, math.inf)
        given = np.array(values)
        p = Partition(given, EXP, 0.2)
        given[1:4] = (0.1, 0.2, 0.3)  # the caller reuses its array
        assert not np.shares_memory(p._edge_array, given)
        assert not p._edge_array.flags.writeable
        with pytest.raises(ValueError):
            p._edge_array[1] = 0.9
        assert p.edges == values and p._edge_array.tolist() == list(values)
        fresh = Partition(values, EXP, 0.2)
        for got, want in zip(p._moments, fresh._moments):
            assert got.tobytes() == want.tobytes()
        assert certify(p) == certify(fresh)


class TestBinMoments:
    # one fresh partition per family, neither solved nor certified before
    FRESH = (
        ((0.0, 0.4, 1.1, 2.0, 3.5, 6.0, math.inf), EXP, 0.2),
        ((-math.inf, -2.1, -1.2, -0.5, 0.1, 0.8, 1.6, 2.7, math.inf),
         GAUSS, 0.1),
    )

    @pytest.mark.parametrize("edges, src, bias", FRESH)
    def test_one_kernel_pass_per_partition(self, monkeypatch, edges, src,
                                           bias):
        # a record takes its three moments from one kernel call, which on
        # a Gaussian source is one pass of the rule
        calls = []
        kernel = SourceModel._bin_moments

        def counted(self, e):
            calls.append("_bin_moments")
            return kernel(self, e)

        monkeypatch.setattr(SourceModel, "_bin_moments", counted)
        rule = sources._std_rule

        def counted_rule(za, zb):
            calls.append("_std_rule")
            return rule(za, zb)

        monkeypatch.setattr(sources, "_std_rule", counted_rule)
        p = Partition(edges, src, bias)
        certify(p)
        decoder_cost(p)
        decoder_best_response(p)
        monte_carlo_cost(p, 1000, seed=3)
        assert calls == ["_bin_moments"] + (
            [] if src.kind == "exponential" else ["_std_rule"])

    @pytest.mark.parametrize("edges, src, bias", FRESH)
    def test_record_is_read_only_and_exact(self, edges, src, bias):
        p = Partition(edges, src, bias)
        probs, means, variances = p._moments
        for got, method in ((probs, src.bin_probs), (means, src.bin_means),
                            (variances, src.bin_variances)):
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
            assert got.tobytes() == method(edges).tobytes()

    @pytest.mark.parametrize("edges, src, bias", FRESH)
    def test_record_leaves_equality_and_hash(self, edges, src, bias):
        filled, fresh = Partition(edges, src, bias), Partition(edges, src, bias)
        filled._moments
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert {filled, fresh} == {fresh}


def _profile_error(values):
    """The message of ActionProfile's checks as a per-element loop reads
    them: finiteness over every action first, then the first pair out of
    order."""
    c = [float(v) for v in values]
    if not c:
        return "an action profile needs at least one action"
    if any(not math.isfinite(v) for v in c):
        return "actions must be finite"
    for a, b in zip(c, c[1:]):
        if not a < b:
            return f"actions must be strictly increasing, got {a!r} before {b!r}"


def _profile(changes):
    """200 increasing actions 1.0, 1.5, ... with some entries replaced."""
    u = (1.0 + 0.5 * np.arange(200)).tolist()
    for k, v in changes.items():
        u[k] = v
    return u


class TestActionProfile:
    def test_must_increase(self):
        with pytest.raises(DomainError):
            ActionProfile((1.0, 1.0))
        with pytest.raises(DomainError):
            ActionProfile((2.0, 1.0))
        with pytest.raises(DomainError):
            ActionProfile((0.0, math.inf))

    @pytest.mark.parametrize("changes, message", [
        ({199: 100.0}, "got 100.0 before 100.0"),
        ({199: 99.0}, "got 100.0 before 99.0"),
        ({50: 25.5, 199: 99.0}, "got 25.5 before 25.5"),
        ({10: math.nan, 100: 0.0}, "actions must be finite"),
        ({20: 0.0, 150: math.nan}, "actions must be finite"),
        ({199: math.inf}, "actions must be finite"),
        ({199: -0.0}, "got 100.0 before -0.0"),
    ])
    def test_first_failure_of_200_actions(self, changes, message):
        u = _profile(changes)
        with pytest.raises(DomainError, match=message) as err:
            ActionProfile(np.array(u))
        assert str(err.value) == _profile_error(u)


class TestBestResponses:
    def test_decoder_single_bin_exponential(self):
        p = Partition((0.0, math.inf), EXP, 0.0)
        assert decoder_best_response(p).centroids[0] == pytest.approx(1.0,
                                                                      rel=1e-14)

    def test_decoder_known_three_edge_case(self):
        p = Partition((0.0, 1.0, math.inf), EXP, 0.0)
        u = decoder_best_response(p).centroids
        assert u[0] == pytest.approx(1.0 - 1.0 / (math.e - 1.0), rel=1e-13)
        assert u[1] == pytest.approx(2.0, rel=1e-14)

    def test_decoder_gaussian_split_at_mean(self):
        p = Partition((-math.inf, 0.0, math.inf), GAUSS, 0.0)
        u = decoder_best_response(p).centroids
        root = math.sqrt(2.0 / math.pi)
        assert u[0] == pytest.approx(-root, rel=1e-13)
        assert u[1] == pytest.approx(root, rel=1e-13)

    def test_encoder_midpoint_arithmetic(self):
        u = ActionProfile((0.4180, 2.0))
        p = encoder_best_response(u, EXP, 0.0)
        assert p.interior_edges[0] == pytest.approx(1.2090, abs=1e-12)

    def test_encoder_collapse_when_midpoint_undercuts(self):
        u = ActionProfile((1.0, 2.0))
        with pytest.raises(BinCollapseError) as err:
            encoder_best_response(u, EXP, -0.6)  # midpoint 1.5 - 0.6 < u_1
        assert err.value.bin_index is not None

    def test_encoder_collapse_below_support(self):
        u = ActionProfile((0.2, 0.4))
        with pytest.raises(BinCollapseError) as err:
            encoder_best_response(u, EXP, -0.5)
        assert err.value.bin_index == 1

    @pytest.mark.parametrize("src", [EXP, GAUSS])
    @pytest.mark.parametrize("bias, tight, bin_index", [
        (0.2, (199,), 200),  # the last action falls below its bin
        (0.2, (50, 199), 51),
        (-0.2, (199,), 199),  # the last but one rises above its bin
        (-0.2, (120, 199), 120),
    ])
    def test_encoder_reports_the_first_action_out_of_its_bin(
            self, src, bias, tight, bin_index):
        # 200 actions one apart, but 0.1 apart at the tight pairs: an
        # action leaves its bin where a neighbor is within 2|bias|
        gaps = np.ones(199)
        gaps[[k - 1 for k in tight]] = 0.1
        u = np.concatenate(([1.0], 1.0 + np.cumsum(gaps)))
        lo, hi = src.support
        edges = [lo, *(0.5 * (u[:-1] + u[1:]) + bias).tolist(), hi]
        actions = ActionProfile(u)
        # the failing bin of the per-action loop
        k = next(k for k, v in enumerate(actions.centroids)
                 if not edges[k] < v < edges[k + 1])
        with pytest.raises(BinCollapseError) as err:
            encoder_best_response(actions, src, bias)
        assert err.value.bin_index == k + 1 == bin_index
        assert str(err.value) == (
            f"action {actions.centroids[k]!r} left its bin ({edges[k]!r}, "
            f"{edges[k + 1]!r})")

    def test_round_trip_stability_at_equilibrium(self):
        for p in certified_examples():
            q = encoder_best_response(decoder_best_response(p),
                                      p.source, p.bias)
            for a, b in zip(q.interior_edges, p.interior_edges):
                assert a == pytest.approx(b, abs=1e-8)

    def test_centroid_interiority(self):
        for p in certified_examples():
            u = decoder_best_response(p).centroids
            for k in range(p.n_bins):
                assert p.edges[k] < u[k] < p.edges[k + 1]


class TestCertify:
    def test_single_bin_always_certifies(self):
        p = Partition((0.0, math.inf), EXP, -7.0)
        cert = certify(p)
        assert cert.verdict and cert.residuals == () and \
            cert.max_abs_residual == 0.0

    def test_two_bin_oracle_edge(self):
        p = Partition((0.0, 1.5936242600400401, math.inf), EXP, 0.0)
        assert certify(p, tol=1e-6).verdict

    def test_bias_shift_breaks_certificate(self):
        p = Partition((0.0, 1.5936242600400401, math.inf), EXP, 0.3)
        cert = certify(p, tol=1e-6)
        assert not cert.verdict
        assert cert.max_abs_residual == pytest.approx(0.3, abs=1e-6)

    def test_excluded_edges_skip_verdict_but_report(self):
        # residuals here are about +0.290 at edge 1 and -0.207 at edge 2
        p = Partition((0.0, 1.5936242600400401, 2.6, math.inf), EXP, 0.0)
        full = certify(p, tol=0.25)
        assert not full.verdict
        assert full.max_abs_residual == pytest.approx(0.2899, abs=1e-3)
        partial = certify(p, tol=0.25, excluded_edges=(1,))
        assert partial.verdict
        assert partial.max_abs_residual == pytest.approx(0.2069, abs=1e-3)
        # the excluded residual is still reported, just not judged
        assert len(partial.residuals) == 2
        assert partial.residuals == full.residuals
        assert partial.excluded_edges == (1,)

    def test_excluded_edges_validated(self):
        p = Partition((0.0, 1.0, math.inf), EXP, 0.0)
        with pytest.raises(DomainError):
            certify(p, excluded_edges=(0,))
        with pytest.raises(DomainError):
            certify(p, excluded_edges=(5,))

    # six interior edges whose residuals take both signs
    SIX = (0.0, 0.5, 1.5936242600400401, 2.6, 3.0, 4.5, 5.0, math.inf)

    @pytest.mark.parametrize("excluded", [
        (), (3, 1, 3), (6, 2, 2, 6), (5, 4, 3, 2, 1, 6), (2, 2)])
    def test_excluded_edges_match_the_delete_form(self, excluded):
        p = Partition(self.SIX, EXP, 0.1)
        full = certify(p)
        cert = certify(p, excluded_edges=excluded)
        kept = np.delete(np.array(full.residuals), [k - 1 for k in set(excluded)])
        assert cert.max_abs_residual == float(np.max(np.abs(kept), initial=0.0))
        assert cert.residuals == full.residuals
        assert cert.excluded_edges == tuple(sorted(set(excluded)))

    @pytest.mark.parametrize("nan_bin, edge", [(0, 1), (-1, 6)])
    def test_nan_residual_counts_only_where_kept(self, nan_bin, edge):
        p = Partition(self.SIX, EXP, 0.1)
        probs, means, variances = p._moments
        means = means.copy()
        means[nan_bin] = math.nan  # the NaN reaches only one residual
        p.__dict__["_moments"] = (probs, means, variances)
        kept = certify(p, tol=10.0)
        assert math.isnan(kept.residuals[edge - 1])
        assert math.isnan(kept.max_abs_residual) and not kept.verdict
        dropped = certify(p, tol=10.0, excluded_edges=(edge, 3))
        assert dropped.verdict
        np.testing.assert_array_equal(dropped.residuals, kept.residuals)
        rest = np.delete(np.array(kept.residuals), [edge - 1, 2])
        assert dropped.max_abs_residual == float(np.max(np.abs(rest)))

    def test_out_of_range_excluded_edge_names_the_smallest(self):
        p = Partition(self.SIX, EXP, 0.1)
        with pytest.raises(DomainError, match=r"excluded edge 0 out of range 1\.\.6"):
            certify(p, excluded_edges=(3, 9, 0))
        with pytest.raises(DomainError, match=r"excluded edge 7 out of range 1\.\.6"):
            certify(p, excluded_edges=(9, 2, 7))

    def test_certification_survives_endpoint_normalization(self):
        for p in certified_examples():
            renorm = Partition.from_interior(p.interior_edges, p.source, p.bias)
            assert certify(renorm, tol=1e-8).verdict


class TestCosts:
    def test_single_bin_exponential_is_marginal_variance(self):
        p = Partition((0.0, math.inf), EXP, 0.0)
        report = decoder_cost(p)
        assert report.decoder_cost == pytest.approx(1.0, rel=1e-13)
        assert report.per_bin == ((1.0, report.per_bin[0][1]),)

    def test_cost_identity(self):
        for p in certified_examples():
            r = decoder_cost(p)
            assert abs(r.encoder_cost - r.decoder_cost - p.bias ** 2) <= 1e-12

    def test_per_bin_decomposition_sums(self):
        p = solve_n_bins(1.0, 0.5, 5)
        r = decoder_cost(p)
        total = math.fsum(prob * var for prob, var in r.per_bin)
        assert r.decoder_cost == pytest.approx(total, rel=1e-14)
        assert math.fsum(prob for prob, _ in r.per_bin) == pytest.approx(
            1.0, abs=1e-12)

    def test_cost_against_quadrature(self):
        p = solve_n_bins_gauss(0.5, 1.5, 0.2, 3)
        src = p.source
        parts = []
        for k in range(p.n_bins):
            lo, hi = p.edges[k], p.edges[k + 1]
            m1 = src.quadrature_moment(lo, hi, 1)
            m2 = src.quadrature_moment(lo, hi, 2)
            parts.append(src.interval_prob(lo, hi) * (m2 - m1 * m1))
        assert decoder_cost(p).decoder_cost == pytest.approx(
            math.fsum(parts), abs=1e-9)

    @given(st.floats(min_value=-0.4, max_value=2.0),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_cost_identity_property(self, bias, n):
        try:
            p = solve_n_bins(1.0, bias, n)
        except Exception:
            return
        r = decoder_cost(p)
        assert abs(r.encoder_cost - r.decoder_cost - bias * bias) <= 1e-12


class TestMonteCarlo:
    def test_single_bin_close_to_one(self):
        p = Partition((0.0, math.inf), EXP, 0.0)
        est, se = monte_carlo_cost(p, 1_000_000, seed=7)
        assert abs(est - 1.0) <= 4.0 * se

    def test_fixed_seed_reproducible(self):
        p = solve_n_bins(1.0, 0.5, 3)
        a = monte_carlo_cost(p, 50_000, seed=123)
        b = monte_carlo_cost(p, 50_000, seed=123)
        assert a == b

    def test_agreement_with_closed_form(self):
        for p in certified_examples():
            est, se = monte_carlo_cost(p, 400_000, seed=99)
            closed = decoder_cost(p).decoder_cost
            assert abs(est - closed) <= 4.0 * se

    @pytest.mark.parametrize("n", [2, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                   3 * _MC_BLOCK + 5])
    @pytest.mark.parametrize("p", [solve_n_bins(1.3, 0.2, 4),
                                   solve_n_bins_gauss(0.2, 1.4, 0.3, 5)],
                             ids=["exp", "gauss"])
    def test_blocks_match_one_whole_draw(self, p, n):
        x = p.source.sample(np.random.default_rng(31), n)
        u = np.asarray(decoder_best_response(p).centroids)
        sq = (x - u[np.searchsorted(p.interior_edges, x, side="right")]) ** 2
        est, se = monte_carlo_cost(p, n, seed=31)
        assert est == pytest.approx(float(np.mean(sq)), rel=1e-13, abs=0.0)
        assert se == pytest.approx(float(np.std(sq, ddof=1)) / math.sqrt(n),
                                   rel=1e-13, abs=0.0)

    def test_one_sample_has_infinite_standard_error(self):
        est, se = monte_carlo_cost(solve_n_bins(1.0, 0.5, 3), 1, seed=4)
        assert math.isfinite(est) and se == math.inf

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, 0, -3])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, n):
        with pytest.raises(DomainError):
            monte_carlo_cost(solve_n_bins(1.0, 0.5, 3), n, seed=4)

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, None, "7"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # numpy's own ValueError / TypeError (or fresh entropy, for None)
        # would otherwise decide
        with pytest.raises(DomainError):
            monte_carlo_cost(solve_n_bins(1.0, 0.5, 3), 100, seed)

    def test_accepts_numpy_integer_seeds(self):
        p = solve_n_bins(1.0, 0.5, 3)
        assert monte_carlo_cost(p, 100, np.int64(4)) == monte_carlo_cost(p, 100, 4)

    def test_accepts_integral_floats_and_numpy_integers(self):
        p = solve_n_bins(1.0, 0.5, 3)
        expected = monte_carlo_cost(p, 1000, seed=4)
        assert monte_carlo_cost(p, 1000.0, seed=4) == expected
        assert monte_carlo_cost(p, np.int64(1000), seed=4) == expected


# every count argument, as (call of the count, a valid count)
COUNTS = {
    "solve_n_bins n_bins": (lambda n: solve_n_bins(1.0, 0.5, n), 3),
    "solve_n_bins_gauss n_bins": (
        lambda n: solve_n_bins_gauss(0.0, 1.0, 0.1, n), 3),
    "solve_n_bins_gauss max_iter": (
        lambda n: solve_n_bins_gauss(0.0, 1.0, 0.1, 3, max_iter=n), 50),
    "infinite_equilibrium n_edges": (
        lambda n: infinite_equilibrium(1.0, 0.5, n), 4),
    "solve_truncated_ladder n_edges": (
        lambda n: solve_truncated_ladder(GAUSS, 0.2, n_edges=n), 10),
    "solve_truncated_ladder margin": (
        lambda n: solve_truncated_ladder(GAUSS, 0.2, n_edges=10, margin=n), 3),
    "TruncatedLadder margin": (
        lambda n: TruncatedLadder(0.5, (0.4, 0.4, 0.4), margin=n), 2),
    "basin_probe n_bins": (lambda n: basin_probe(GAUSS, 0.2, n, 2, 1), 3),
    "basin_probe n_inits": (lambda n: basin_probe(GAUSS, 0.2, 3, n, 1), 2),
    "lloyd_method_i max_iter": (
        lambda n: lloyd_method_i(EXP, 0.5, solve_n_bins(1.0, 0.5, 3),
                                 max_iter=n), 5),
}


@pytest.mark.parametrize("call, count", COUNTS.values(), ids=COUNTS)
def test_a_count_is_any_integer_but_a_bool(call, count):
    # a numpy integer is read as the Python int (the result's repr would
    # show an np.int64 kept anywhere), and True is not the count 1
    expected = call(count)
    got = call(np.int64(count))
    assert got == expected and repr(got) == repr(expected)
    with pytest.raises(DomainError):
        call(True)
