"""Partitions, best responses, certificates, and cost reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cheaptalk.errors import BinCollapseError, DomainError
from cheaptalk.exponential import solve_n_bins, solve_two_bin
from cheaptalk.gaussian import solve_n_bins_gauss, solve_two_bin_gauss
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
        calls = []
        for name in ("_bin_moments", "_bin_variances"):
            kernel = getattr(SourceModel, name)

            def counted(self, e, kernel=kernel, name=name):
                calls.append(name)
                return kernel(self, e)

            monkeypatch.setattr(SourceModel, name, counted)
        p = Partition(edges, src, bias)
        certify(p)
        decoder_cost(p)
        decoder_best_response(p)
        monte_carlo_cost(p, 1000, seed=3)
        assert sorted(calls) == ["_bin_moments", "_bin_variances"]

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


class TestActionProfile:
    def test_must_increase(self):
        with pytest.raises(DomainError):
            ActionProfile((1.0, 1.0))
        with pytest.raises(DomainError):
            ActionProfile((2.0, 1.0))
        with pytest.raises(DomainError):
            ActionProfile((0.0, math.inf))


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
