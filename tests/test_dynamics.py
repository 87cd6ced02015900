"""Iteration engines: traces, outcomes, collapse, and basin probing."""

import math

import numpy as np
import pytest

from cheaptalk import sources
from cheaptalk.dynamics import (
    COLLAPSE_LENGTH,
    COLLAPSE_PROB,
    IterationTrace,
    _random_start,
    _run_rows,
    basin_probe,
    fixed_point_iterate,
    lloyd_method_i,
)
from cheaptalk.equilibrium import Partition, certify
from cheaptalk.errors import DomainError
from cheaptalk.exponential import (
    empirical_max_bins,
    solve_n_bins,
    solve_two_bin,
)
from cheaptalk.gaussian import _default_interior
from cheaptalk.sources import SourceModel

EXP = SourceModel.exponential(1.0)
GAUSS = SourceModel.gaussian(0.0, 1.0)


def exp_partition(interior, bias):
    return Partition((0.0, *interior, math.inf), EXP, bias)


def probe_one_at_a_time(source, bias, n_bins, n_inits, seed, method,
                        max_iter):
    """basin_probe's draws, each run alone through the public engines and
    clustered greedily in start order; returns ((status, iterations) per
    start, distinct limits, cluster sizes)."""
    rng = np.random.default_rng(seed)
    outcomes, reps, sizes = [], [], []
    for _ in range(n_inits):
        init = _random_start(source, bias, n_bins, rng)
        if method == "lloyd":
            trace = lloyd_method_i(source, bias, init, max_iter)
        else:
            trace = fixed_point_iterate(source, bias, init, 0.5, max_iter)
        outcomes.append((trace.outcome.status, trace.iterations))
        if trace.outcome.status != "converged":
            continue
        limit = trace.final_partition.interior_edges
        for j, rep in enumerate(reps):
            if max(abs(x - y) for x, y in zip(limit, rep)) <= 1e-6:
                sizes[j] += 1
                break
        else:
            reps.append(limit)
            sizes.append(1)
    return outcomes, tuple(reps), tuple(sizes)


class TestFixedPointsAreImmediate:
    def test_equilibrium_converges_in_one_step(self):
        eq = solve_n_bins(1.0, 0.5, 4)
        trace = lloyd_method_i(EXP, 0.5, eq)
        assert trace.outcome.status == "converged"
        assert trace.iterations == 1
        assert trace.final_residual <= 1e-10

    def test_equilibrium_fixed_for_every_damping(self):
        eq = solve_two_bin(1.0, 0.3)
        for theta in (0.1, 0.5, 1.0):
            trace = fixed_point_iterate(EXP, 0.3, eq, damping=theta)
            assert trace.outcome.status == "converged"
            assert trace.iterations == 1


class TestLloydConvergence:
    def test_equal_width_init_reaches_known_equilibrium(self):
        eq = solve_n_bins(1.0, 0.5, 4)
        init = exp_partition((1.0, 2.0, 3.0), 0.5)
        trace = lloyd_method_i(EXP, 0.5, init)
        assert trace.outcome.status == "converged"
        final = trace.final_partition.interior_edges
        for a, b in zip(final, eq.interior_edges):
            assert a == pytest.approx(b, abs=1e-8)

    def test_converged_limit_certifies_at_ten_tol(self):
        init = exp_partition((0.5, 1.2), 0.2)
        trace = lloyd_method_i(EXP, 0.2, init, tol=1e-9)
        assert trace.outcome.status == "converged"
        assert trace.final_residual <= 1e-9
        assert certify(trace.final_partition, tol=1e-8).verdict

    def test_gaussian_damped_run_certifies(self):
        init = Partition((-math.inf, -0.5, 0.7, math.inf), GAUSS, 0.2)
        trace = fixed_point_iterate(GAUSS, 0.2, init, damping=0.5)
        assert trace.outcome.status == "converged"
        assert certify(trace.final_partition, tol=1e-9).verdict


class TestMethodAgreement:
    def test_undamped_iteration_is_lloyd(self):
        init = exp_partition((1.5, 4.0), 0.5)
        a = lloyd_method_i(EXP, 0.5, init)
        b = fixed_point_iterate(EXP, 0.5, init, damping=1.0)
        assert a.outcome == b.outcome
        assert a.recorded_steps == b.recorded_steps
        assert a.residual_history == b.residual_history
        assert all(x.edges == y.edges
                   for x, y in zip(a.iterates, b.iterates))

    def test_both_methods_find_the_same_limit(self):
        init = exp_partition((1.5, 4.0), 0.5)
        a = lloyd_method_i(EXP, 0.5, init)
        b = fixed_point_iterate(EXP, 0.5, init, damping=0.5)
        assert a.outcome.status == b.outcome.status == "converged"
        for x, y in zip(a.final_partition.interior_edges,
                        b.final_partition.interior_edges):
            assert x == pytest.approx(y, abs=1e-7)


class TestCollapse:
    def test_three_bins_at_steep_negative_bias(self):
        # only two bins can coexist at bias -0.4; the first one dies
        init = exp_partition((1.0, 2.0), -0.4)
        for runner in (lloyd_method_i,
                       lambda s, b, i: fixed_point_iterate(s, b, i,
                                                           damping=0.5)):
            trace = runner(EXP, -0.4, init)
            assert trace.outcome.status == "collapsed"
            assert trace.outcome.bin_index is not None
            assert trace.outcome.iteration == trace.iterations

    def test_collapse_is_the_only_outcome_past_the_cap(self):
        cap = empirical_max_bins(1.0, -0.3)
        summary = basin_probe(EXP, -0.3, cap + 1, 10, seed=5)
        assert summary.fraction_converged == 0.0
        assert summary.collapsed + summary.hit_max_iter == 10

    def test_dead_bin_in_initial_partition(self):
        init = exp_partition((1.0, 1.0 + 1e-13), 0.5)
        trace = lloyd_method_i(EXP, 0.5, init)
        assert trace.outcome.status == "collapsed"
        assert trace.outcome.bin_index == 2
        assert trace.outcome.iteration == 0

    def test_crossed_initial_centroids_are_a_collapse(self, monkeypatch):
        # every bin is wider than COLLAPSE_LENGTH and heavier than
        # COLLAPSE_PROB, and the kernels keep each such bin's centroid
        # inside it, so no real start reaches this branch; reversed
        # centroids stand in for centroids that do not increase, which
        # leave no decoder profile to start from; the dynamics read the
        # centroids from the unchecked _bin_moments
        bin_moments = SourceModel._bin_moments

        def reversed_means(self, edges):
            probs, means = bin_moments(self, edges)
            return probs, means[..., ::-1]

        monkeypatch.setattr(SourceModel, "_bin_moments", reversed_means)
        edges = (-math.inf, -3.0, -3.0 + 5e-12, -3.0 + 1e-11, -3.0 + 1.5e-11,
                 math.inf)
        init = Partition(edges, GAUSS, 0.1)
        for runner in (lloyd_method_i,
                       lambda s, b, i: fixed_point_iterate(s, b, i,
                                                           damping=0.5)):
            trace = runner(GAUSS, 0.1, init)
            assert trace.outcome.status == "collapsed"
            assert trace.outcome.iteration == 0
            assert trace.outcome.bin_index is None
            assert trace.recorded_steps == (0,)
            assert trace.iterates[0].edges == edges


def run_alone(source, bias, edges, damping, max_iter=10_000):
    """One start through the shared loop: its outcome and its edges at
    the step it stopped, which for an edge crossing are the crossed
    edges the public trace does not record."""
    (outcome,), final = _run_rows(source, bias, np.array([edges]),
                                  max_iter, 1e-10, damping)
    return outcome, tuple(final[0].tolist())


GAUSS_3 = (-math.inf, -0.5, 0.7, math.inf)
GAUSS_24 = (-math.inf, *_default_interior(0.0, 1.0, 0.05, 24), math.inf)

# name -> ((source, bias, start edges, damping, max_iter),
#          (status, stop step, bin_index), final edges)
STOP_PATHS = {
    # the first edge falls below the exponential support at step 4
    "edge-crossing": ((EXP, -0.4, (0.0, 1.0, 2.0, math.inf), 1.0, 10_000),
                      ("collapsed", 4, 1),
                      (0.0, -0.1381566356800764, 0.9702484618022774,
                       math.inf)),
    # the same run with the bias tuned so that the first edge lands
    # 4.4e-13 above 0 at step 3: shorter than COLLAPSE_LENGTH, yet
    # heavier than COLLAPSE_PROB
    "length-floor": ((EXP, -0.411601180487, (0.0, 1.0, 2.0, math.inf),
                      1.0, 10_000),
                     ("collapsed", 3, 1),
                     (0.0, 4.4314552027913123e-13, 1.1964377735397966,
                      math.inf)),
    # N(0, 1), 24 bins, b = 0.05, from the solver's default seed: the top
    # bin of a certified equilibrium carries about 1e-14, so the absolute
    # COLLAPSE_PROB floor ends the run there; a floor tied to what the
    # kernels resolve (ROADMAP item 5) will re-pin these two
    "probability-floor-lloyd": (
        (GAUSS, 0.05, GAUSS_24, 1.0, 10_000), ("collapsed", 77, 24),
        (-math.inf, -0.7902276228592942, 0.10554119191965917,
         0.7931159586151635, 1.3783915902177217, 1.8999776137500493,
         2.3768648070575384, 2.8199107579128597, 3.2358964820347937,
         3.629285633876292, 4.003096710073741, 4.359382100783415,
         4.699518624015269, 5.0244065608277415, 5.334628298375992,
         5.630594431096239, 5.912690570271768, 6.181429263682333,
         6.437614506028102, 6.6825606520154635, 6.918524267712809,
         7.149877517812986, 7.386977208605907, 7.663420594729956,
         math.inf)),
    "probability-floor-damped": (
        (GAUSS, 0.05, GAUSS_24, 0.5, 10_000), ("collapsed", 154, 24),
        (-math.inf, -0.7903541114875314, 0.1053586924054234,
         0.7928630875595841, 1.378045327391451, 1.8995052074899512,
         2.3762217712993543, 2.8190388423456736, 3.234722255401521,
         3.6277205030292006, 4.001039439146359, 4.356725031427381,
         4.696158615661206, 5.020260905942656, 5.329654331560565,
         5.624809376241954, 5.90618607684793, 6.174374338950997,
         6.430242306801282, 6.675138800012661, 6.9113132312973535,
         7.143084939398637, 7.3807180928786495, 7.657701093835904,
         math.inf)),
    "converged": ((GAUSS, 0.2, GAUSS_3, 0.5, 10_000), ("converged", 178, None),
                  (-math.inf, 0.33676662391709733, 1.6827857223444558,
                   math.inf)),
    "max-iter": ((GAUSS, 0.2, GAUSS_3, 0.5, 50), ("max_iter", 50, None),
                 (-math.inf, 0.33478504877452925, 1.679900408563133,
                  math.inf)),
}


class TestStopPaths:
    """Every way a run stops, pinned by outcome, stop step and final
    edges (within 1e-12), through the shared loop and the public
    engines."""

    @pytest.mark.parametrize("name", sorted(STOP_PATHS))
    def test_stop_path_is_pinned(self, name):
        (source, bias, start, damping, max_iter), want, edges = \
            STOP_PATHS[name]
        outcome, final = run_alone(source, bias, start, damping, max_iter)
        assert (outcome.status, outcome.iteration, outcome.bin_index) == want
        assert len(final) == len(edges)
        assert all(x == y or abs(x - y) <= 1e-12
                   for x, y in zip(final, edges)), final
        init = Partition(start, source, bias)
        trace = fixed_point_iterate(source, bias, init, damping, max_iter)
        assert trace.outcome == outcome
        if damping == 1.0:
            assert lloyd_method_i(source, bias, init, max_iter).outcome \
                == outcome

    def test_length_floor_is_not_the_probability_floor(self):
        (source, bias, start, damping, _), _, _ = STOP_PATHS["length-floor"]
        _, final = run_alone(source, bias, start, damping)
        assert 0.0 < final[1] < COLLAPSE_LENGTH
        assert source.bin_probs(final).min() >= COLLAPSE_PROB

    def test_probability_floor_is_not_the_length_floor(self):
        for name in ("probability-floor-lloyd", "probability-floor-damped"):
            (source, bias, start, damping, _), _, _ = STOP_PATHS[name]
            _, final = run_alone(source, bias, start, damping)
            assert np.diff(final).min() >= COLLAPSE_LENGTH
            assert source.bin_probs(final)[-1] < COLLAPSE_PROB

    def test_centroids_crossing_mid_run(self, monkeypatch):
        # as in TestCollapse, reversed centroids stand in for crossed
        # ones, here from the sixth step (step 5) on; the run stops at
        # that step with the edges it moved to, and its trace ends with
        # step 4
        bin_moments = SourceModel._bin_moments
        calls = []

        def reversed_late(self, edges):
            probs, means = bin_moments(self, edges)
            calls.append(None)
            return probs, (means if len(calls) <= 5 else means[..., ::-1])

        _, want = run_alone(GAUSS, 0.2, GAUSS_3, 0.5, max_iter=5)
        monkeypatch.setattr(SourceModel, "_bin_moments", reversed_late)
        outcome, final = run_alone(GAUSS, 0.2, GAUSS_3, 0.5)
        assert (outcome.status, outcome.iteration, outcome.bin_index) \
            == ("collapsed", 5, None)
        assert final == want
        calls.clear()
        trace = fixed_point_iterate(GAUSS, 0.2, Partition(GAUSS_3, GAUSS, 0.2))
        assert trace.outcome == outcome
        assert trace.recorded_steps == (0, 1, 2, 3, 4)


class TestStepWork:
    def test_gaussian_step_makes_one_rule_pass_and_no_variance(
            self, monkeypatch):
        # a step reads probs and means from one pass of the rule and
        # never reduces that pass to variances; a Partition record does,
        # once
        passes, spreads = [], []
        rule = sources._std_rule

        def counted(za, zb):
            near, mass, mean, spread = rule(za, zb)
            passes.append(za.shape)

            def counted_spread():
                spreads.append(za.shape)
                return spread()

            return near, mass, mean, counted_spread

        monkeypatch.setattr(sources, "_std_rule", counted)
        rng = np.random.default_rng(5)
        starts = np.array([_random_start(GAUSS, 0.2, 8, rng).edges
                           for _ in range(3)])
        outcomes, _ = _run_rows(GAUSS, 0.2, starts, 5, 1e-10, 1.0)
        assert [o.status for o in outcomes] == ["max_iter"] * 3
        assert passes == [(3, 8)] * 6
        assert spreads == []
        passes.clear()
        Partition(starts[0], GAUSS, 0.2)._moments
        assert passes == spreads == [(8,)]


class TestTraceShape:
    def test_initial_partition_is_recorded_first(self):
        init = exp_partition((1.0, 2.0, 3.0), 0.5)
        trace = lloyd_method_i(EXP, 0.5, init)
        assert trace.recorded_steps[0] == 0
        assert trace.iterates[0].edges == init.edges

    def test_history_lengths_agree(self):
        init = exp_partition((0.7, 1.9), 0.4)
        trace = fixed_point_iterate(EXP, 0.4, init, damping=0.3)
        assert len(trace.iterates) == len(trace.residual_history) \
            == len(trace.recorded_steps)

    def test_thinning_past_one_thousand_steps(self):
        init = Partition((-math.inf, -0.5, 0.7, math.inf), GAUSS, 0.2)
        trace = fixed_point_iterate(GAUSS, 0.2, init, damping=0.01,
                                    tol=1e-12)
        assert trace.outcome.status == "max_iter"
        assert trace.iterations == 10_000
        steps = trace.recorded_steps
        dense = [s for s in steps if s <= 1000]
        assert dense == list(range(0, 1001))
        sparse = [s for s in steps if s > 1000]
        assert all(s % 10 == 0 for s in sparse[:-1])
        assert steps[-1] == 10_000

    def test_trace_field_validation(self):
        with pytest.raises(DomainError):
            IterationTrace(iterates=(), residual_history=(0.1,),
                           recorded_steps=(0,), outcome=None, iterations=1)

    def test_deterministic_reruns(self):
        init = exp_partition((0.9, 2.2), 0.5)
        a = lloyd_method_i(EXP, 0.5, init)
        b = lloyd_method_i(EXP, 0.5, init)
        assert a.recorded_steps == b.recorded_steps
        assert a.residual_history == b.residual_history
        assert all(x.edges == y.edges for x, y in zip(a.iterates, b.iterates))


class TestBasinProbe:
    def test_positive_bias_has_one_basin(self):
        summary = basin_probe(EXP, 0.5, 3, 12, seed=42)
        assert summary.fraction_converged == 1.0
        assert summary.n_distinct == 1
        assert summary.cluster_sizes == (12,)

    def test_seed_reproducibility(self):
        a = basin_probe(EXP, 0.5, 3, 8, seed=7)
        b = basin_probe(EXP, 0.5, 3, 8, seed=7)
        assert a == b
        c = basin_probe(EXP, 0.5, 3, 8, seed=8)
        assert a != c

    def test_methods_accepted(self):
        for method in ("lloyd", "fixed-point"):
            summary = basin_probe(EXP, 0.4, 2, 4, seed=3, method=method)
            assert summary.method == method
            assert summary.fraction_converged == 1.0
        with pytest.raises(DomainError):
            basin_probe(EXP, 0.4, 2, 4, seed=3, method="newton")

    @pytest.mark.parametrize("seed", [-1, 2.5, True, None])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(DomainError):
            basin_probe(EXP, 0.4, 2, 4, seed=seed)

    def test_needs_at_least_one_init(self):
        with pytest.raises(DomainError):
            basin_probe(EXP, 0.4, 2, 0, seed=3)

    def test_counts_partition_the_runs(self):
        summary = basin_probe(EXP, -0.3, 2, 10, seed=11)
        converged = round(summary.fraction_converged * summary.n_inits)
        assert converged + summary.collapsed + summary.hit_max_iter == 10
        assert sum(summary.cluster_sizes) == converged

    # positive biases converge; below bias -0.291 exp(1) has no 3-bin
    # equilibrium, so from 3 bins up every start collapses; max_iter=5
    # stops rows by collapse and by the cap within one batch
    @pytest.mark.parametrize("method", ("lloyd", "fixed-point"))
    @pytest.mark.parametrize("source, bias, max_iter", (
        (GAUSS, 0.15, 10_000),
        (EXP, 0.4, 10_000),
        (EXP, -0.35, 10_000),
        (EXP, -0.35, 5),
    ))
    def test_batched_starts_equal_one_at_a_time(self, source, bias,
                                                max_iter, method):
        n_inits = 4
        mixed = False
        for n_bins in range(2, 9):
            summary = basin_probe(source, bias, n_bins, n_inits,
                                  seed=n_bins, method=method,
                                  max_iter=max_iter)
            outcomes, reps, sizes = probe_one_at_a_time(
                source, bias, n_bins, n_inits, n_bins, method, max_iter)
            statuses = [status for status, _ in outcomes]
            assert summary.collapsed == statuses.count("collapsed")
            assert summary.hit_max_iter == statuses.count("max_iter")
            assert summary.fraction_converged == \
                statuses.count("converged") / n_inits
            assert summary.cluster_sizes == sizes
            assert summary.distinct_limits == reps
            mixed |= len({steps for _, steps in outcomes}) > 1
        # some batch had rows leave the loop at different steps
        assert mixed
