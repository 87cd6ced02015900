"""The model's exact symmetries, checked with no oracle.

- Gaussian location-scale: N(m, s) at bias b*s is N(0, 1) at bias b,
  moved to m + s*z. Edges map to m + s*z, residuals scale by s and costs
  by s^2. tol is scaled by s too, so both games stop at the same point
  in z.
- Gaussian reflection: bias -b gives the edges 2m - e, reversed,
  residuals negated and reversed, and the same cost.
- Exponential scale: rate r at bias b/r is rate 1 at bias b, with edges,
  residuals and tol divided by r and costs by r^2.

Outcomes, iteration counts, recorded steps and cluster counts must be
equal. Floats are equal only up to the rounding of the map: x holds a
point of N(m, s) to about eps*(|m| + s*|z|), which is eps*(|m|/s + |z|)
in std units, and each Gaussian bound below is a multiple of that scale
(ulps_of_x) or, for a cost, of its std-unit form. Each bound is about
twice the worst value measured on this grid, and at least 4 where that
value is smaller; the comment at each bound states the value. The grid
holds (m, s) = (3e5, 1e-3) and (1e6, 1e-3), where one ulp of x is
several times 1e-10 and a solve loop whose tolerances are absolute in x
does not stop.
"""

import functools
import math

import numpy as np
import pytest

from cheaptalk.dynamics import basin_probe, fixed_point_iterate, lloyd_method_i
from cheaptalk.equilibrium import Partition, certify, decoder_cost
from cheaptalk.exponential import solve_n_bins
from cheaptalk.gaussian import solve_n_bins_gauss, solve_truncated_ladder
from cheaptalk.sources import SourceModel

EPS = np.finfo(float).eps
UNIT = SourceModel.gaussian(0.0, 1.0)
GRID = ((0.3, 1.7), (3.0, 2.0), (100.0, 1e-3), (1e3, 1e-3), (3e5, 1e-3),
        (1e6, 1e-3), (-7.5, 1e5), (0.0, 1e-6))
BIASES = (0.1, -0.25)
# a start of the dynamics in std units
START = (-math.inf, -1.0, 0.2, 1.5, math.inf)


def ulps_of_x(got, want, m, s, z):
    """The largest |got - want| over the finite edges, in units of
    eps*(|m| + s*|z|), the rounding of the point m + s*z in x."""
    got, want, z = (np.asarray(v, dtype=float) for v in (got, want, z))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    gap = np.abs(got[finite] - want[finite])
    return float((gap / (EPS * (abs(m) + s * np.abs(z[finite])))).max())


@functools.cache
def unit_runs(bias):
    """Every call of the grid on N(0, 1) at this bias, tol 1e-10."""
    init = Partition(START, UNIT, bias)
    return {
        "n_bins": solve_n_bins_gauss(0.0, 1.0, bias, 6),
        "ladder": solve_truncated_ladder(UNIT, bias, n_edges=16, margin=3),
        "lloyd": lloyd_method_i(UNIT, bias, init),
        "damped": fixed_point_iterate(UNIT, bias, init, 0.5),
        "basin": basin_probe(UNIT, bias, 4, 4, seed=7),
        "residuals": certify(init).residuals,
    }


@pytest.mark.parametrize("bias", BIASES)
@pytest.mark.parametrize("m, s", GRID)
class TestGaussianLocationScale:
    def test_n_bins_solve(self, m, s, bias):
        unit = unit_runs(bias)["n_bins"]
        p = solve_n_bins_gauss(m, s, bias * s, 6, tol=1e-10 * s)
        z = np.array(unit.edges)
        # measured 0: the solve seeds and runs in z, so it is the N(0, 1)
        # solve mapped back once
        assert ulps_of_x(p.edges, m + s * z, m, s, z) <= 4
        # a cost moves with its edges' rounding in std units: measured 0.68
        # times eps*(|m|/s + 1), relative
        want = s * s * decoder_cost(unit).decoder_cost
        assert (abs(decoder_cost(p).decoder_cost - want)
                <= 4 * EPS * (abs(m) / s + 1.0) * want)

    def test_ladder(self, m, s, bias):
        unit = unit_runs(bias)["ladder"]
        res = solve_truncated_ladder(SourceModel.gaussian(m, s), bias * s,
                                     n_edges=16, margin=3, tol=1e-10 * s)
        assert (res.converged, res.iterations) == (unit.converged,
                                                   unit.iterations)
        assert res.converged and res.final_change <= 1e-10 * s
        z = np.array(unit.partition.edges)
        # measured 0, as for the finite solve
        assert ulps_of_x(res.partition.edges, m + s * z, m, s, z) <= 4

    def test_certificate_residuals(self, m, s, bias):
        # away from a root, where a residual is not rounding noise
        p = Partition(tuple(m + s * np.array(START)),
                      SourceModel.gaussian(m, s), bias * s)
        want = s * np.array(unit_runs(bias)["residuals"])
        # measured 1.35
        assert ulps_of_x(certify(p).residuals, want, m, s, START[1:-1]) <= 4

    @pytest.mark.parametrize("method", ("lloyd", "damped"))
    def test_dynamics(self, m, s, bias, method):
        unit = unit_runs(bias)[method]
        source = SourceModel.gaussian(m, s)
        init = Partition(tuple(m + s * np.array(START)), source, bias * s)
        damping = 1.0 if method == "lloyd" else 0.5
        run = fixed_point_iterate(source, bias * s, init, damping,
                                  tol=1e-10 * s)
        assert (run.outcome, run.iterations, run.recorded_steps) == (
            unit.outcome, unit.iterations, unit.recorded_steps)
        z = np.array(unit.final_partition.edges)
        # measured 0: the two runs reach one float fixed point in z
        assert ulps_of_x(run.final_partition.edges, m + s * z, m, s, z) <= 4
        # residuals in units of eps*(|m| + 4s): measured 0.23
        gap = np.abs(np.array(run.residual_history)
                     - s * np.array(unit.residual_history))
        assert float(gap.max()) <= EPS * (abs(m) + 4.0 * s)

    def test_basin_probe(self, m, s, bias):
        unit = unit_runs(bias)["basin"]
        probe = basin_probe(SourceModel.gaussian(m, s), bias * s, 4, 4, seed=7,
                            tol=1e-10 * s, cluster_tol=1e-6 * s)
        assert (probe.fraction_converged, probe.collapsed, probe.hit_max_iter,
                probe.cluster_sizes) == (unit.fraction_converged,
                                         unit.collapsed, unit.hit_max_iter,
                                         unit.cluster_sizes)
        for got, z in zip(probe.distinct_limits, unit.distinct_limits):
            # measured 0, as in test_dynamics
            assert ulps_of_x(got, m + s * np.array(z), m, s, z) <= 4


@pytest.mark.parametrize("bias", BIASES)
@pytest.mark.parametrize("m, s", GRID)
class TestGaussianReflection:
    def test_n_bins_solve(self, m, s, bias):
        p = solve_n_bins_gauss(m, s, bias * s, 6, tol=1e-10 * s)
        q = solve_n_bins_gauss(m, s, -bias * s, 6, tol=1e-10 * s)
        e = np.array(p.edges)
        z = np.array(unit_runs(bias)["n_bins"].edges)
        # measured 3.9
        assert ulps_of_x(q.edges, 2.0 * m - e[::-1], m, s, -z[::-1]) <= 8
        # measured 9.1 times eps*(|m|/s + 1), relative: the two solves stop
        # at different points within tol, on N(0, 1) as well
        cost, mirrored = decoder_cost(p).decoder_cost, decoder_cost(q).decoder_cost
        assert abs(mirrored - cost) <= 20 * EPS * (abs(m) / s + 1.0) * cost

    def test_ladder(self, m, s, bias):
        source = SourceModel.gaussian(m, s)
        res, mirrored = (solve_truncated_ladder(source, b, n_edges=16, margin=3,
                                                tol=1e-10 * s)
                         for b in (bias * s, -bias * s))
        assert (mirrored.converged, mirrored.iterations) == (res.converged,
                                                             res.iterations)
        e = np.array(res.partition.edges)
        z = np.array(unit_runs(bias)["ladder"].partition.edges)
        # measured 11.3
        assert ulps_of_x(mirrored.partition.edges, 2.0 * m - e[::-1], m, s,
                         -z[::-1]) <= 24
        # the excluded margin moves to the other end
        k = len(e) - 2
        assert (mirrored.certificate.excluded_edges
                == tuple(k + 1 - i for i in res.certificate.excluded_edges[::-1]))

    @pytest.mark.parametrize("method", ("lloyd", "damped"))
    def test_dynamics_and_certificate(self, m, s, bias, method):
        source = SourceModel.gaussian(m, s)
        e = m + s * np.array(START)
        init = Partition(tuple(e), source, bias * s)
        mirrored = Partition(tuple(2.0 * m - e[::-1]), source, -bias * s)
        # residuals negate and reverse, in ulps of x: measured 1.5
        r = np.array(certify(init).residuals)
        assert ulps_of_x(certify(mirrored).residuals, -r[::-1], m, s,
                         -np.array(START[-2:0:-1])) <= 4
        damping = 1.0 if method == "lloyd" else 0.5
        run, back = (fixed_point_iterate(source, b, p, damping, tol=1e-10 * s)
                     for b, p in ((bias * s, init), (-bias * s, mirrored)))
        assert (back.outcome, back.iterations, back.recorded_steps) == (
            run.outcome, run.iterations, run.recorded_steps)
        f = np.array(run.final_partition.edges)
        z = np.array(unit_runs(bias)[method].final_partition.edges)
        # measured 0.86
        assert ulps_of_x(back.final_partition.edges, 2.0 * m - f[::-1], m, s,
                         -z[::-1]) <= 4


EXP_RATES = (1e-3, 0.37, 2.5, 1e5)
EXP_START = (0.0, 0.5, 1.0, 2.0, math.inf)


@functools.cache
def exp_unit_runs(bias):
    """Every call of the grid on exp(1) at this bias, tol 1e-10."""
    unit = SourceModel.exponential(1.0)
    init = Partition(EXP_START, unit, bias)
    return {
        "lloyd": lloyd_method_i(unit, bias, init),
        "damped": fixed_point_iterate(unit, bias, init, 0.5),
        "basin": basin_probe(unit, bias, 4, 4, seed=7),
        "residuals": certify(init).residuals,
    }


def relative(got, want):
    """The largest relative gap over the finite, nonzero entries of want."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    keep = np.isfinite(want) & (want != 0.0)
    return float((np.abs(got[keep] - want[keep]) / np.abs(want[keep])).max())


@pytest.mark.parametrize("rate", EXP_RATES)
def test_exponential_solve_and_cost_scale(rate):
    # the 4-bin game exists at bias 0.3 (it has none at -0.1)
    unit = solve_n_bins(1.0, 0.3, 4)
    p = solve_n_bins(rate, 0.3 / rate, 4)
    # measured 6.7e-16 and 8.1e-16
    assert relative(np.array(p.edges) * rate, unit.edges) <= 2e-15
    assert relative(decoder_cost(p).decoder_cost * rate * rate,
                    decoder_cost(unit).decoder_cost) <= 2e-15


@pytest.mark.parametrize("bias", (0.3, -0.1))
@pytest.mark.parametrize("rate", EXP_RATES)
class TestExponentialScale:
    def test_certificate_residuals(self, rate, bias):
        source = SourceModel.exponential(rate)
        p = Partition(tuple(np.array(EXP_START) / rate), source, bias / rate)
        # measured 7.6e-15
        assert relative(np.array(certify(p).residuals) * rate,
                        exp_unit_runs(bias)["residuals"]) <= 2e-14

    @pytest.mark.parametrize("method", ("lloyd", "damped"))
    def test_dynamics(self, rate, bias, method):
        unit = exp_unit_runs(bias)[method]
        source = SourceModel.exponential(rate)
        init = Partition(tuple(np.array(EXP_START) / rate), source, bias / rate)
        damping = 1.0 if method == "lloyd" else 0.5
        run = fixed_point_iterate(source, bias / rate, init, damping,
                                  tol=1e-10 / rate)
        assert (run.outcome, run.iterations, run.recorded_steps) == (
            unit.outcome, unit.iterations, unit.recorded_steps)
        # measured 1.9e-15
        assert relative(np.array(run.final_partition.edges) * rate,
                        unit.final_partition.edges) <= 4e-15

    def test_basin_probe(self, rate, bias):
        unit = exp_unit_runs(bias)["basin"]
        probe = basin_probe(SourceModel.exponential(rate), bias / rate, 4, 4,
                            seed=7, tol=1e-10 / rate, cluster_tol=1e-6 / rate)
        assert (probe.fraction_converged, probe.collapsed, probe.hit_max_iter,
                probe.cluster_sizes) == (unit.fraction_converged,
                                         unit.collapsed, unit.hit_max_iter,
                                         unit.cluster_sizes)
        for got, want in zip(probe.distinct_limits, unit.distinct_limits):
            # measured 1.9e-15
            assert relative(np.array(got) * rate, want) <= 4e-15
