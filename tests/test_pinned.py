"""Pinned trajectories: the array bin-moment layer against recorded runs.

The literals below were recorded with the earlier implementation that
evaluated every bin through the scalar SourceModel methods. The dynamics
must reproduce each run's outcome, iteration count and recorded steps,
with edges and residuals within 1e-12; the damped Gaussian loop must
reproduce its edges bit for bit and its iteration counts exactly from the
solvers' default seeds, and the solvers (Newton since then) must land
within 1e-8 of those edges. The damped-loop edges were re-recorded when
the Gaussian kernels moved from scipy.special to the numpy Chebyshev
erfcx, which moved them by at most 1.5e-14 (iteration counts and final
changes kept).
"""

import math

import numpy as np
import pytest

from cheaptalk.dynamics import basin_probe, fixed_point_iterate, lloyd_method_i
from cheaptalk.equilibrium import Partition, certify
from cheaptalk.gaussian import (
    TruncatedLadder,
    _damped_midpoints,
    _default_interior,
    asymptotic_bin_length,
    solve_n_bins_gauss,
    solve_truncated_ladder,
    solve_two_bin_gauss,
)
from cheaptalk.sources import SourceModel

EXP = SourceModel.exponential(1.0)
GAUSS = SourceModel.gaussian(0.0, 1.0)
TOL = 1e-12


def gauss_seeded_start():
    rng = np.random.default_rng(2024)
    return tuple(np.sort(rng.uniform(-3.0, 3.0, size=7)))


RUNS = {
    "exp-4-lloyd": lambda: lloyd_method_i(
        EXP, 0.5, Partition((0.0, 1.0, 2.0, 3.0, math.inf), EXP, 0.5)),
    "gauss-8-lloyd": lambda: lloyd_method_i(
        GAUSS, 0.1,
        Partition((-math.inf, *gauss_seeded_start(), math.inf), GAUSS, 0.1)),
    "gauss-3-damped": lambda: fixed_point_iterate(
        GAUSS, 0.2, Partition((-math.inf, -0.5, 0.7, math.inf), GAUSS, 0.2),
        damping=0.5),
    "exp-collapse-lloyd": lambda: lloyd_method_i(
        EXP, -0.4, Partition((0.0, 1.0, 2.0, math.inf), EXP, -0.4)),
    "exp-collapse-damped": lambda: fixed_point_iterate(
        EXP, -0.4, Partition((0.0, 1.0, 2.0, math.inf), EXP, -0.4),
        damping=0.5),
}

# name -> ((status, stop iteration, bin index), recorded step count,
#          {step: (interior edges, max-abs residual)})
PINNED = {
    # exp(1), 4 bins, Lloyd from (1, 2, 3), bias 0.5
    "exp-4-lloyd": (('converged', 91, None), 92, {
        0: ((1.0, 2.0, 3.0),
            0.7090116465653367),
        1: ((1.4180232931306735, 2.4180232931306733, 3.7090116465653367),
            0.6096646135054984),
        2: ((1.6914260318047079, 2.8821937299188405, 4.318676260070835),
            0.5577197121030162),
        10: ((2.475396509696469, 4.833375185478993, 7.28928951911476),
             0.15681836798224058),
        46: ((2.582380657520367, 5.197364749804439, 8.01877648000343),
             1.2071570104410512e-05),
        50: ((2.5823848992334097, 5.197380227413413, 8.018810192529433),
             4.108159434856873e-06),
        91: ((2.582387087353149, 5.197388211715633, 8.018827583688019),
             6.537259622518832e-11),
    }),
    # N(0, 1), 8 bins, Lloyd from the seeded start, bias 0.1
    "gauss-8-lloyd": (('converged', 255, None), 256, {
        0: ((-2.527646797428006, -2.146609108319689, -1.714060792570454,
             -1.1432878147098497, 1.054988027887691, 1.7967965806489987,
             2.9748125931928007),
            0.5333985697603768),
        1: ((-2.4786486053464163, -2.005056271938549, -1.545740600296556,
             -0.6098892449494729, 0.7668819914324706, 1.8561841047359864,
             2.8046210211964637),
            0.27206071710353663),
        2: ((-2.4021582322082415, -1.8728758106538894, -1.2736798831930192,
             -0.36787861004218536, 0.7287653887657559, 1.7816563807464179,
             2.7373884706258402),
            0.2266406405937839),
        10: ((-1.4927073854709514, -0.7314965477216331,
              -0.08660873577625239, 0.5394792790969413, 1.1754122530575564,
              1.8372111883593487, 2.5741652117230434),
             0.1039382892062635),
        50: ((-0.3164315311058298, 0.7173087453837103, 1.521343283311377,
              2.2101912652013174, 2.828237052435789, 3.4062034189738095,
              3.9997453488894066),
             0.014508799985303883),
        128: ((-0.27979264014862426, 0.7726661299112727,
               1.5987800374500543, 2.31357745219602, 2.9606513913021852,
               3.5674908786580155, 4.181476984585183),
              1.2485130705647274e-05),
        255: ((-0.2797672779558229, 0.7727047310206828, 1.5988346065001071,
               2.313651412414018, 2.9607480819275653, 3.5676117048805662,
               4.181616835305261),
              8.675762885879124e-11),
    }),
    # N(0, 1), 3 bins, damped 0.5 from (-0.5, 0.7), bias 0.2
    "gauss-3-damped": (('converged', 178, None), 179, {
        0: ((-0.5, 0.7),
            0.18953387315288656),
        1: ((-0.4131273408801146, 0.7947669365764433),
            0.17127766265077898),
        2: ((-0.3339157677660676, 0.8804057679018327),
            0.15537098032317392),
        10: ((0.073132204578435, 1.3370334428644157),
             0.07216488735878795),
        50: ((0.3347850487745291, 1.6799004085631335),
             0.0006664147098066064),
        89: ((0.3367501709016886, 1.6827617395513967),
             5.545119258931752e-06),
        178: ((0.33676662391709733, 1.682785722344456),
              9.895378960678158e-11),
    }),
    # exp(1), 3 bins at bias -0.4, Lloyd from (1, 2)
    "exp-collapse-lloyd": (('collapsed', 4, 1), 4, {
        0: ((1.0, 2.0),
            0.4819767068693265),
        1: ((0.5180232931306735, 1.8090116465653368),
            0.29033538649450163),
        2: ((0.23254477795868767, 1.5186762600708352),
            0.2886268810402416),
        3: ((0.02659626025180556, 1.2300493790305937),
            0.2598009172283168),
    }),
    # exp(1), 3 bins at bias -0.4, damped 0.5 from (1, 2)
    "exp-collapse-damped": (('collapsed', 7, 1), 7, {
        0: ((1.0, 2.0),
            0.4819767068693265),
        1: ((0.7590116465653367, 1.9045058232826684),
            0.38066982613930167),
        2: ((0.5686767334956859, 1.7845621964629115),
            0.3117332674972707),
        3: ((0.4128100997470506, 1.652510111322486),
            0.27237824662035803),
        4: ((0.2814045058464125, 1.516320988012307),
            0.27071299990728537),
        5: ((0.16795397614210558, 1.3809644880586642),
            0.2631080621539864),
        6: ((0.06807092425615897, 1.249410456981671),
            0.25217427368321765),
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dynamics_trajectory_is_pinned(name):
    (status, stop, bin_index), recorded, snapshots = PINNED[name]
    trace = RUNS[name]()
    assert (trace.outcome.status, trace.outcome.iteration,
            trace.outcome.bin_index) == (status, stop, bin_index)
    assert trace.iterations == stop
    assert trace.recorded_steps == tuple(range(recorded))
    for step, (edges, residual) in snapshots.items():
        got = trace.iterates[step]
        assert len(got.interior_edges) == len(edges)
        for x, y in zip(got.interior_edges, edges):
            assert abs(x - y) <= TOL, (step, x, y)
        got_res = trace.residual_history[step]
        if math.isnan(residual):
            assert math.isnan(got_res), step
        else:
            assert abs(got_res - residual) <= TOL, (step, got_res, residual)


def test_basin_probe_is_pinned():
    summary = basin_probe(GAUSS, 0.15, 4, 6, seed=3, method="fixed-point")
    assert summary.fraction_converged == 1.0
    assert summary.cluster_sizes == (6,)
    assert (summary.collapsed, summary.hit_max_iter) == (0, 0)
    (limit,) = summary.distinct_limits
    pinned = (0.06330005369420713, 1.2524656086467298, 2.26518382647709)
    assert max(abs(x - y) for x, y in zip(limit, pinned)) <= TOL


def damped_ladder(source, bias, n_edges, max_iter=100_000):
    """The damped loop on the truncated ladder's default seed, in the
    reflected frame solve_truncated_ladder works in for negative bias;
    returns (spatial edges, converged, iterations, final change)."""
    width = max(2.0 * abs(bias), source.std / 4.0)
    anchor = solve_two_bin_gauss(source.mean, source.std, bias).edges[1]
    edges = TruncatedLadder(anchor, (width,) * (n_edges - 1)).edges_for(bias)
    reflect = bias < 0.0
    if reflect:
        edges = np.sort(2.0 * source.mean - edges)
    edges, converged, iterations, change = _damped_midpoints(
        source, abs(bias), edges, 0.5, max_iter, 1e-10,
        ladder_step=asymptotic_bin_length(bias))
    if reflect:
        edges = np.sort(2.0 * source.mean - edges)
    return tuple(edges.tolist()), converged, iterations, change


def damped_n_bins(mean, std, bias, n_bins, max_iter=100_000):
    """The damped loop on solve_n_bins_gauss's default seed."""
    return _damped_midpoints(
        SourceModel.gaussian(mean, std), bias,
        _default_interior(mean, std, bias, n_bins), 0.5, max_iter, 1e-10)


FINITE_BINS = {
    (0.0, 1.0, 0.2, 3): (0.3367666237113246, 1.6827857220445077),
    (0.3, 1.7, -0.15, 6): (
        -4.645833591570055, -3.414297261609863, -2.191798888027476,
        -0.815628110378896, 0.9288280801817208),
}

LADDER_EDGES = (
    -12.958316347490493, -12.089725846540487, -11.158191026264062,
    -10.194916047918733, -9.196784696111937, -8.156927605753927,
    -7.065660427927381, -5.908895183260424, -4.664733135362031,
    -3.2956491125954184, -1.7264715653318792, 0.2468289526526915)


def test_finite_bin_solver_is_bit_identical():
    for args, edges in FINITE_BINS.items():
        assert tuple(damped_n_bins(*args)[0].tolist()) == edges
    edges, converged, iterations, change = damped_n_bins(
        0.0, 1.0, 0.1, 5, max_iter=20)
    assert (converged, iterations) == (False, 20)
    assert change == 0.0192143486553924
    assert tuple(edges.tolist()) == (
        -0.33761932667004146, 0.675613344051002, 1.4699010674613684,
        2.2465956842544212)


def test_ladder_solver_is_bit_identical():
    edges, converged, iterations, change = damped_ladder(
        SourceModel.gaussian(0.3, 1.7), -0.25, 12)
    assert (converged, iterations) == (True, 370)
    assert change == 9.483613894190057e-11
    assert edges == LADDER_EDGES
    edges, converged, iterations, change = damped_ladder(
        GAUSS, 0.2, 10, max_iter=30)
    assert (converged, iterations) == (False, 30)
    assert change == 0.06812730503352427
    assert edges == (
        0.2702875461486833, 1.5089744930900892, 2.4836422438087835,
        3.3061789379053717, 4.008221002510635, 4.6033322747404934,
        5.107168948547953, 5.542403526451659, 5.934469825978718,
        6.30869815655411)


def test_public_solvers_agree_with_the_damped_literals():
    # the damped stopping rule bounds movement, not error, so the
    # literals sit within 1e-8 of the Newton roots, which certify tightly
    for (mean, std, bias, n_bins), edges in FINITE_BINS.items():
        p = solve_n_bins_gauss(mean, std, bias, n_bins)
        assert max(abs(x - y) for x, y in zip(p.interior_edges, edges)) <= 1e-8
        assert certify(p, tol=1e-12).verdict
    result = solve_truncated_ladder(SourceModel.gaussian(0.3, 1.7), -0.25,
                                    n_edges=12, cert_tol=1e-12)
    assert result.converged and result.certificate.verdict
    assert max(abs(x - y) for x, y in zip(result.partition.interior_edges,
                                          LADDER_EDGES)) <= 1e-8
