"""Iteration engines: traces, outcomes, collapse, and basin probing."""

import math

import numpy as np
import pytest

from cheaptalk import sources
from cheaptalk.dynamics import (
    _MAX_DRAWS,
    COLLAPSE_LENGTH,
    IterationOutcome,
    IterationTrace,
    _random_starts,
    _Recorder,
    _run_rows,
    basin_probe,
    fixed_point_iterate,
    lloyd_method_i,
)
from cheaptalk.equilibrium import Partition, _midpoints, certify
from cheaptalk.errors import DomainError
from cheaptalk.exponential import (
    empirical_max_bins,
    solve_n_bins,
    solve_two_bin,
)
from cheaptalk.gaussian import (
    _full_edges,
    _solve_edges,
    solve_n_bins_gauss,
)
from cheaptalk.sources import SourceModel
import seeds
from seeds import equal_width

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
    for edges in _random_starts(source, n_bins, n_inits, rng):
        init = Partition(edges, source, bias)
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

    @pytest.mark.parametrize("bias, steps", ((0.36, 88), (0.6, 66)))
    def test_eight_gaussian_bins_past_bias_0_345(self, bias, steps):
        # from the k/8 quantiles Lloyd reaches the solver's equilibrium,
        # whose last bin carries under 1e-14
        root = solve_n_bins_gauss(0.0, 1.0, bias, 8)
        assert certify(root).verdict
        assert GAUSS.bin_probs(root.edges)[-1] < 1e-14
        edges = (-math.inf, *(GAUSS.quantile(k / 8) for k in range(1, 8)),
                 math.inf)
        trace = lloyd_method_i(GAUSS, bias, Partition(edges, GAUSS, bias))
        assert (trace.outcome.status, trace.iterations) == ("converged", steps)
        assert max(abs(x - y) for x, y in
                   zip(trace.final_partition.interior_edges,
                       root.interior_edges)) <= 30 * 1e-10

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
        # every bin is wider than COLLAPSE_LENGTH, and the kernels keep
        # each such bin's centroid inside it, so no real start reaches
        # this branch; reversed centroids stand in for centroids that do
        # not increase, which leave no decoder profile to start from; the
        # dynamics read the centroids, in their frame, from _frame_means
        bin_means = SourceModel._frame_means

        def reversed_means(self, z, gaps):
            return bin_means(self, z, gaps)[..., ::-1]

        monkeypatch.setattr(SourceModel, "_frame_means", reversed_means)
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
# the equal-width seed the 24-bin solver took by default when the runs
# below were pinned: 23 edges 1/4 apart up from the two-bin edge
GAUSS_24 = (-math.inf, *equal_width(0.05, 23), math.inf)

# name -> ((source, bias, start edges, damping, max_iter),
#          (status, stop step, bin_index), final edges)
STOP_PATHS = {
    # the first edge falls below the exponential support at step 4
    "edge-crossing": ((EXP, -0.4, (0.0, 1.0, 2.0, math.inf), 1.0, 10_000),
                      ("collapsed", 4, 1),
                      (0.0, -0.1381566356800764, 0.9702484618022774,
                       math.inf)),
    # the same run with the bias tuned so that the first edge lands
    # 4.4e-13 above 0 at step 3, shorter than COLLAPSE_LENGTH
    "length-floor": ((EXP, -0.411601180487, (0.0, 1.0, 2.0, math.inf),
                      1.0, 10_000),
                     ("collapsed", 3, 1),
                     (0.0, 4.4314552027913123e-13, 1.1964377735397966,
                      math.inf)),
    # N(0, 1), 24 bins, b = 0.05, from the equal-width seed above: both
    # runs converge to the solver's equilibrium, whose top three bins
    # carry 1.0e-14, 1.0e-15 and 8.4e-17; no floor on mass stops them
    "light-top-bin-lloyd": (
        (GAUSS, 0.05, GAUSS_24, 1.0, 10_000), ("converged", 488, None),
        (-math.inf, -0.7838520244536344, 0.11447278072192095,
         0.8049350789161684, 1.393627397538533, 1.9193355525758051,
         2.4012536716641986, 2.850488937204402, 3.274132202945853,
         3.677029136973341, 4.062661410332193, 4.433628963335988,
         4.791933589937812, 5.139155340869125, 5.476567359695005,
         5.805213546327592, 6.125962988040135, 6.43955008723913,
         6.746608791411819, 7.047719094521292, 7.3435360444822715,
         7.635324444082381, 7.927526246523459, 8.242604705864865,
         math.inf)),
    "light-top-bin-damped": (
        (GAUSS, 0.05, GAUSS_24, 0.5, 10_000), ("converged", 985, None),
        (-math.inf, -0.7838520244552958, 0.1144727807196079,
         0.8049350789131398, 1.3936273975346882, 1.9193355525710207,
         2.4012536716583273, 2.850488937197275, 3.274132202937274,
         3.6770291369630863, 4.062661410320008, 4.433628963321581,
         4.79193358992085, 5.1391553408492365, 5.476567359671763,
         5.805213546300515, 6.1259629880086806, 6.439550087202683,
         6.746608791369695, 7.047719094472738, 7.343536044426509,
         7.635324444018748, 7.927526246451854, 8.242604705786807,
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
        # the dead bin is short, not crossed, and holds 4.4e-13: its
        # length alone ends the run
        (source, bias, start, damping, _), _, _ = STOP_PATHS["length-floor"]
        _, final = run_alone(source, bias, start, damping)
        assert 0.0 < final[1] < COLLAPSE_LENGTH
        assert source.bin_probs(final)[0] > 1e-13

    def test_light_top_bin_limit_is_the_solver_root(self):
        # the limit certifies and lies within 30 tol of the solver's
        # edges (the runs stop on movement, not on distance to the
        # root), with a top bin lighter than 1e-14
        root = solve_n_bins_gauss(0.0, 1.0, 0.05, 24).interior_edges
        for name in ("light-top-bin-lloyd", "light-top-bin-damped"):
            (source, bias, start, damping, _), _, _ = STOP_PATHS[name]
            _, final = run_alone(source, bias, start, damping)
            limit = Partition(final, source, bias)
            assert certify(limit, tol=1e-10).verdict
            assert max(abs(x - y) for x, y in
                       zip(limit.interior_edges, root)) <= 30 * 1e-10
            assert source.bin_probs(final)[-1] < 1e-14

    def test_centroids_crossing_mid_run(self, monkeypatch):
        # as in TestCollapse, reversed centroids stand in for crossed
        # ones, here from the sixth step (step 5) on; the run stops at
        # that step with the edges it moved to, and its trace ends with
        # step 4
        bin_means = SourceModel._frame_means
        calls = []

        def reversed_late(self, z, gaps):
            means = bin_means(self, z, gaps)
            calls.append(None)
            return means if len(calls) <= 5 else means[..., ::-1]

        _, want = run_alone(GAUSS, 0.2, GAUSS_3, 0.5, max_iter=5)
        monkeypatch.setattr(SourceModel, "_frame_means", reversed_late)
        outcome, final = run_alone(GAUSS, 0.2, GAUSS_3, 0.5)
        assert (outcome.status, outcome.iteration, outcome.bin_index) \
            == ("collapsed", 5, None)
        assert final == want
        calls.clear()
        trace = fixed_point_iterate(GAUSS, 0.2, Partition(GAUSS_3, GAUSS, 0.2))
        assert trace.outcome == outcome
        assert trace.recorded_steps == (0, 1, 2, 3, 4)

    def test_nan_centroid_mid_run(self, monkeypatch):
        # with no floor on mass, a mean that is not finite ends the run
        # through the same centroid test
        bin_means = SourceModel._frame_means
        calls = []

        def nan_late(self, z, gaps):
            means = bin_means(self, z, gaps)
            calls.append(None)
            if len(calls) > 5:
                means[..., -1] = math.nan
            return means

        monkeypatch.setattr(SourceModel, "_frame_means", nan_late)
        outcome, _ = run_alone(GAUSS, 0.2, GAUSS_3, 0.5)
        assert (outcome.status, outcome.iteration, outcome.bin_index) \
            == ("collapsed", 5, None)


@pytest.fixture
def exps(monkeypatch):
    """The shape of the argument of every exp that sources.py takes. A
    mass takes one of its own in either family; an exponential mean takes
    none, a Gaussian mean only the rule's weights over its 48 nodes."""
    log = []

    class LoggedNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            log.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(sources, "np", LoggedNumpy())
    return log


def three_starts(source):
    return _random_starts(source, 8, 3, np.random.default_rng(5))


class TestStepWork:
    def test_gaussian_step_makes_one_rule_pass_and_no_variance(
            self, monkeypatch, exps):
        # a step reads means from one pass of the rule and never reduces
        # that pass to masses or variances; a Partition record does, once
        passes, spreads = [], []
        rule = sources._std_rule
        moments = SourceModel._bin_moments

        def counted(za, zb):
            passes.append(za.shape)
            return rule(za, zb)

        def counted_moments(self, e):
            # the one place a pass is reduced to masses and variances
            spreads.append(e[..., 1:].shape)
            return moments(self, e)

        monkeypatch.setattr(sources, "_std_rule", counted)
        monkeypatch.setattr(SourceModel, "_bin_moments", counted_moments)
        starts = three_starts(GAUSS)
        outcomes, _ = _run_rows(GAUSS, 0.2, starts, 5, 1e-10, 1.0)
        assert [o.status for o in outcomes] == ["max_iter"] * 3
        assert passes == [(3, 8)] * 6
        assert spreads == []
        assert exps == [(3, 8, 48)] * 6
        passes.clear()
        exps.clear()
        Partition(starts[0], GAUSS, 0.2)._moments
        assert passes == spreads == [(8,)]
        assert exps == [(8, 48), (8,)]

    def test_exponential_step_forms_no_mass(self, exps):
        starts = three_starts(EXP)
        outcomes, _ = _run_rows(EXP, 0.2, starts, 5, 1e-10, 1.0)
        assert [o.status for o in outcomes] == ["max_iter"] * 3
        assert exps == []
        Partition(starts[0], EXP, 0.2)._moments
        assert exps == [(8,)]

    def test_restart_block_step_forms_no_mass(self, monkeypatch, exps):
        # a restart round's damped step reads its midpoints from a pass of
        # the solve loop, as a Newton iterate does: the rule's exp and
        # the edge slopes', no mass. The loop runs in std units; from this
        # start Newton breaks down after 11 steps, so a cap of 12 leaves
        # one damped step, from the start
        passes = []
        rule = sources._std_rule

        def counted(za, zb):
            passes.append(za.shape)
            return rule(za, zb)

        monkeypatch.setattr(sources, "_std_rule", counted)
        z, bias = np.array((-1.4, 1.4, 1.8, 2.0, 3.1)), -0.4
        for source in (GAUSS, SourceModel.gaussian(0.3, 1.7)):
            exps.clear()
            passes.clear()
            step, converged, steps, _ = _solve_edges(source, bias, z, 0.5,
                                                     12, 1e-10)
            assert (converged, steps) == (False, 12)
            assert passes == [(6,)] * len(passes)
            assert exps == [(6, 48), (2, 6)] * len(passes)
            # one step is the damped midpoint map of the frame means
            means = source._frame_means(_full_edges(z), None)
            assert np.array_equal(step, 0.5 * z + 0.5 * _midpoints(means, bias))
            # and in x the map of the public bin means, to 2 ulps of each
            # edge (1 ulp measured on N(0.3, 1.7); N(0, 1) is exact)
            edges = source._from_frame(z)
            want = 0.5 * edges + 0.5 * _midpoints(
                source.bin_means(_full_edges(edges)), bias * source.std)
            assert np.all(np.abs(source._from_frame(step) - want)
                          <= 2 * np.spacing(np.abs(want)))


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
        for make in (
            lambda: IterationTrace(iterates=(), residual_history=(0.1,),
                                   recorded_steps=(0,), outcome=None,
                                   iterations=1),
            lambda: IterationTrace(iterates=(), residual_history=(),
                                   recorded_steps=(), outcome=None,
                                   iterations=0),
            lambda: IterationOutcome("stalled", 3),
            lambda: IterationOutcome("converged", 3, bin_index=2),
        ):
            with pytest.raises(DomainError):
                make()

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
        # and at least two bins
        for n_bins, n_inits in ((2, 0), (1, 4)):
            with pytest.raises(DomainError):
                basin_probe(EXP, 0.4, n_bins, n_inits, seed=3)

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
        (SourceModel.gaussian(0.3, 1.7), 0.25, 10_000),
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


def old_random_start(source, n_bins, rng):
    """The draw of one start as each start made it alone, solving its
    own quantile box: sorted uniforms between the 0.001 and 0.999
    quantiles, redrawn until strictly increasing."""
    while True:
        draws = np.sort(rng.uniform(source.quantile(0.001),
                                    source.quantile(0.999), size=n_bins - 1))
        if draws.size < 2 or np.all(np.diff(draws) > 0.0):
            return (source.support[0], *draws.tolist(), source.support[1])


class TestRandomStarts:
    @pytest.mark.parametrize("source", (EXP, GAUSS,
                                        SourceModel.gaussian(0.3, 1.7)))
    @pytest.mark.parametrize("n_bins", (2, 3, 9))
    def test_rows_are_the_draws_of_one_start_at_a_time(self, source, n_bins):
        starts = _random_starts(source, n_bins, 5, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for row in starts:
            assert tuple(row.tolist()) == old_random_start(source, n_bins, rng)

    def test_a_tied_draw_is_redrawn_in_turn(self):
        # ties among sorted uniforms do not happen in practice, so a
        # scripted generator forces one in the first start's first draw
        script = [np.array([0.7, 0.2, 0.7]), np.array([0.1, 0.6, 0.4]),
                  np.array([0.5, 0.3, 0.9])]
        calls = []

        class Scripted:
            def uniform(self, lo, hi, size):
                calls.append((lo, hi, size))
                return script[len(calls) - 1]

        starts = _random_starts(EXP, 4, 2, Scripted())
        box = (EXP.quantile(0.001), EXP.quantile(0.999), 3)
        assert calls == [box] * 3
        assert starts.tolist() == [[0.0, 0.1, 0.4, 0.6, math.inf],
                                   [0.0, 0.3, 0.5, 0.9, math.inf]]

    def test_a_probe_solves_one_quantile_box(self, monkeypatch):
        levels = []
        quantile = SourceModel.quantile

        def counted(self, q):
            levels.append(q)
            return quantile(self, q)

        monkeypatch.setattr(SourceModel, "quantile", counted)
        basin_probe(GAUSS, 0.2, 4, 6, seed=1, max_iter=5)
        assert levels == [0.001, 0.999]

    @pytest.mark.parametrize("source", (
        SourceModel.exponential(5e-324),   # both quantiles are inf
        SourceModel.gaussian(0.0, 1e308),  # so are both here
        SourceModel.gaussian(0.0, 5e307),  # finite ends 3.1e308 apart
    ))
    def test_a_range_that_is_not_finite_is_refused_before_a_draw(self,
                                                                 source):
        class NoDraws:
            def uniform(self, lo, hi, size):
                raise AssertionError("a start was drawn")

        with pytest.raises(DomainError, match="need a finite range"):
            _random_starts(source, 3, 2, NoDraws())
        with pytest.raises(DomainError, match="need a finite range"):
            basin_probe(source, 0.1, 3, 2, seed=1)

    def test_a_range_of_too_few_floats_is_refused_before_a_draw(self):
        # both quantiles of N(1.7e11, 5e-125) round to the mean itself
        source = SourceModel.gaussian(1.7e11, 5e-125)
        assert source.quantile(0.001) == source.quantile(0.999) == 1.7e11
        with pytest.raises(DomainError, match="fewer than 4 floats"):
            basin_probe(source, 1e-126, 5, 3, seed=1)
        # one float is enough for the one interior edge of two bins
        assert basin_probe(source, 1e-126, 2, 3, seed=1).n_inits == 3

    def test_the_range_needs_one_float_per_interior_edge(self, monkeypatch):
        # a range of exactly four floats holds the 4 edges of 5 bins,
        # not the 5 of 6; a draw of 4 distinct ones is taken
        top = math.nextafter(math.nextafter(math.nextafter(1.0, 2.0), 2.0),
                             2.0)
        monkeypatch.setattr(SourceModel, "quantile",
                            lambda self, q: 1.0 if q < 0.5 else top)
        draws = np.array((top, 1.0, math.nextafter(1.0, 2.0),
                          math.nextafter(top, 0.0)))

        class Drawn:
            def uniform(self, lo, hi, size):
                assert (lo, hi, size) == (1.0, top, 4)
                return draws

        (row,) = _random_starts(EXP, 5, 1, Drawn())
        assert row[1:-1].tolist() == sorted(draws.tolist())
        with pytest.raises(DomainError, match="fewer than 5 floats"):
            _random_starts(EXP, 6, 1, Drawn())

    def test_draws_that_keep_tying_end_in_a_domain_error(self):
        calls = []

        class Tied:
            def uniform(self, lo, hi, size):
                calls.append(size)
                return np.full(size, 0.5)

        with pytest.raises(DomainError, match=f"{_MAX_DRAWS} draws of 3 "):
            _random_starts(EXP, 4, 2, Tied())
        assert calls == [3] * _MAX_DRAWS

    def test_probe_rejects_a_bias_that_is_not_finite(self):
        for bias in (math.nan, math.inf):
            with pytest.raises(DomainError, match="bias must be finite"):
                basin_probe(GAUSS, bias, 3, 2, seed=1)

    def test_probe_rejects_a_cluster_tol_that_is_nan_or_negative(
            self, monkeypatch):
        # no limit is within NaN or -1 of another, so each run would read
        # as its own limit: 3 here, where the default reads 1
        assert basin_probe(EXP, 0.3, 3, 3, seed=1).n_distinct == 1

        def run_rows(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr("cheaptalk.dynamics._run_rows", run_rows)
        for cluster_tol in (math.nan, -1.0):
            with pytest.raises(DomainError, match="cluster_tol"):
                basin_probe(EXP, 0.3, 3, 3, seed=1, cluster_tol=cluster_tol)


SCALED = SourceModel.gaussian(0.3, 1.7)


def ulps_apart(xs, ys):
    return max((abs(x - y) / math.ulp(max(abs(x), abs(y)))
                for x, y in zip(xs, ys) if x != y), default=0.0)


class TestFrame:
    """A Gaussian run works in std units, with its bias, tol and
    COLLAPSE_LENGTH divided by the std, and maps back to x."""

    @pytest.mark.parametrize("bias, interior, max_iter", (
        (0.2, (-0.5, 0.7), 10_000),
        (-0.35, (-2.0, -1.0, 0.0, 1.0, 2.0), 10_000),
        (0.5, (-1.0, 0.0, 1.0), 40),
    ))
    @pytest.mark.parametrize("damping", (1.0, 0.5))
    def test_scaled_run_is_the_unit_run_at_scaled_bias(self, bias, interior,
                                                       max_iter, damping):
        unit_start = Partition((-math.inf, *interior, math.inf), GAUSS,
                               bias / 1.7)
        unit = fixed_point_iterate(GAUSS, bias / 1.7, unit_start, damping,
                                   max_iter, tol=1e-10 / 1.7)
        start = Partition((-math.inf, *(0.3 + 1.7 * z for z in interior),
                           math.inf), SCALED, bias)
        run = fixed_point_iterate(SCALED, bias, start, damping, max_iter)
        assert run.outcome == unit.outcome
        assert run.recorded_steps == unit.recorded_steps
        want = [0.3 + 1.7 * z for z in unit.final_partition.interior_edges]
        assert ulps_apart(run.final_partition.interior_edges, want) <= 4
        assert run.iterates[0] == start

    @pytest.mark.parametrize("method", ("lloyd", "fixed-point"))
    # at bias 0.6 the caps of 80 and 150 steps stop some starts of each
    # method before they converge and not others
    @pytest.mark.parametrize("bias, max_iter", ((0.2, 10_000), (-0.3, 10_000),
                                                (0.6, 80), (0.6, 150)))
    def test_scaled_probe_is_the_unit_probe_at_scaled_bias(self, method,
                                                           bias, max_iter):
        for n_bins in range(2, 7):
            unit = basin_probe(GAUSS, bias / 1.7, n_bins, 4, seed=n_bins,
                               method=method, max_iter=max_iter,
                               tol=1e-10 / 1.7)
            run = basin_probe(SCALED, bias, n_bins, 4, seed=n_bins,
                              method=method, max_iter=max_iter)
            assert (run.fraction_converged, run.collapsed, run.hit_max_iter,
                    run.cluster_sizes) == (unit.fraction_converged,
                                           unit.collapsed, unit.hit_max_iter,
                                           unit.cluster_sizes)
            for got, limit in zip(run.distinct_limits, unit.distinct_limits):
                assert ulps_apart(got, [0.3 + 1.7 * z for z in limit]) <= 4

    def test_start_past_dbl_max_std_is_a_domain_error(self):
        # 1e10 and 1e20 are past DBL_MAX std from the mean at std 1e-300:
        # both map to +inf in std units, with no RuntimeWarning, and the
        # bin between them is named
        source = SourceModel.gaussian(0.0, 1e-300)
        init = Partition((-math.inf, 1e10, 1e20, math.inf), source, 0.1)
        for run in (lloyd_method_i, fixed_point_iterate):
            with pytest.raises(DomainError, match=(
                    r"bin \[10000000000\.0, 1e\+20\] has both ends at inf")):
                run(source, 0.1, init)

    @pytest.mark.parametrize("width, collapses", ((5e-13, True),
                                                  (2e-12, False)))
    def test_collapse_length_stays_in_x(self, width, collapses):
        # at std 1e-3 these bins are 5e-10 and 2e-9 std wide: the floor
        # is COLLAPSE_LENGTH / std in the frame, not COLLAPSE_LENGTH
        source = SourceModel.gaussian(0.3, 1e-3)
        edges = (-math.inf, 0.3, 0.3 + width, math.inf)
        trace = lloyd_method_i(source, 1e-4, Partition(edges, source, 1e-4))
        if collapses:
            assert (trace.outcome.status, trace.outcome.iteration,
                    trace.outcome.bin_index) == ("collapsed", 0, 2)
        else:
            assert trace.outcome.status == "converged"
            assert trace.recorded_steps[:2] == (0, 1)

    @pytest.mark.parametrize("source, interior, bias", (
        (SCALED, (-1.0, 0.5, 2.0), 0.2),
        (SCALED, (-3.0, -1.0, 0.5, 2.0, 4.0), -0.3),
        (SourceModel.exponential(2.5), (0.3, 0.7, 1.5), 0.1),
    ))
    @pytest.mark.parametrize("damping", (1.0, 0.5))
    def test_residuals_are_in_x(self, source, interior, bias, damping):
        # each recorded residual is the iterate's own certificate residual,
        # in x units: to 1e-12 relative, or to a few ulps of the largest
        # edge once the residual itself is that small (certify rounds its
        # x edges, the run its std-unit ones); an exponential run works
        # in x, so there they are the same number
        lo, hi = source.support
        init = Partition((lo, *interior, hi), source, bias)
        trace = fixed_point_iterate(source, bias, init, damping)
        assert trace.outcome.status == "converged"
        for p, r in zip(trace.iterates, trace.residual_history):
            c = certify(p).max_abs_residual
            slack = 4 * math.ulp(max(map(abs, p.interior_edges)))
            if source.kind == "exponential":
                assert r == c
            else:
                assert abs(r - c) <= 1e-12 * c + slack
        assert trace.residual_history[1] > 1e-3


class TestAgainstReference:
    """The loop and the Gaussian rule give back the plainer references in
    tests/seeds.py bit for bit: outcomes, final edges, traces and every
    output of the rule."""

    SOURCES = ((EXP, (-0.35, 0.3)), (SourceModel.exponential(2.5), (-0.2, 0.3)),
               (GAUSS, (-0.2, 0.1)), (SCALED, (-0.2, 0.1)))
    MAX_ITER = 80

    def test_runs_are_the_reference_runs(self):
        # exp(1) has no 3-bin equilibrium below bias -0.291, so its runs
        # at -0.35 collapse; 80 steps stop some runs short of tol
        statuses = set()
        for source, biases in self.SOURCES:
            for bias in biases:
                for n_bins in range(2, 13):
                    starts = _random_starts(source, n_bins, 2,
                                            np.random.default_rng(n_bins))
                    for damping in (1.0, 0.5):
                        args = (source, bias, starts, self.MAX_ITER, 1e-10,
                                damping)
                        outcomes, edges = _run_rows(*args)
                        want, want_edges = seeds.run_rows(*args)
                        assert outcomes == want
                        assert edges.tobytes() == want_edges.tobytes()
                        statuses.update(o.status for o in outcomes)
        assert statuses == {"converged", "collapsed", "max_iter"}

    def test_traces_are_the_reference_traces(self):
        for source, biases in self.SOURCES:
            for bias in biases:
                for n_bins in (2, 5, 12):
                    (edges,) = _random_starts(source, n_bins, 1,
                                              np.random.default_rng(n_bins))
                    init = Partition(edges, source, bias)
                    for damping in (1.0, 0.5):
                        trace = fixed_point_iterate(source, bias, init,
                                                    damping, self.MAX_ITER)
                        rec = _Recorder(init)
                        (outcome,), _ = seeds.run_rows(
                            source, bias, np.array([init.edges]),
                            self.MAX_ITER, 1e-10, damping, rec)
                        want = rec.trace(outcome)
                        assert trace.outcome == want.outcome
                        assert trace.recorded_steps == want.recorded_steps
                        assert np.array(trace.residual_history).tobytes() \
                            == np.array(want.residual_history).tobytes()
                        assert np.array([p.edges for p in trace.iterates]
                                        ).tobytes() \
                            == np.array([p.edges for p in want.iterates]
                                        ).tobytes()

    def test_rule_outputs_are_the_reference_outputs(self):
        # rows of sorted edges at scales out to 1e5 std, open at -inf and,
        # on every other row, at +inf; read as strided views of the rows
        # and as each row's own contiguous bins
        rng = np.random.default_rng(36)
        scales = rng.choice((0.3, 1.0, 10.0, 1e3, 1e5), size=(40, 1))
        z = np.sort(rng.standard_normal((40, 12)) * scales, axis=1)
        z[:, 0] = -math.inf
        z[::2, -1] = math.inf
        for za, zb in ((z[:, :-1], z[:, 1:]),
                       *((row[:-1], row[1:]) for row in z)):
            got, want = sources._std_rule(za, zb), seeds.std_rule(za, zb)
            for a, b in zip((*got[:4], *got[4]), (*want[:4], *want[4])):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
