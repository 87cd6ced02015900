"""The benchmark's workloads: seeded inputs, ops, and the check of each op.

A workload is one round of ops, built from the workload seed and run in
order, whole rounds at a time, by one caller in one process. The first
op of each kind is the warm-up op of that kind. Every op returns a
result that its check judges outside the timed section: the check
returns a failure message or None, plus the facts recorded beside the
op's timing (iterations, final residual, outcome tallies).

Input ranges are stratified rather than drawn freely: a seed moves each
value inside its stratum, so a round always covers the same spread of
problem difficulty and op times depend on the code rather than on which
corner of the input space a seed happened to sample.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import cheaptalk as ct

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[Any], Any]  # tracer (or None) -> result
    check: Callable[[Any, bool], tuple]  # (result, deep) -> (failure, facts)


@dataclass
class Workload:
    ops: list[Op]
    # ops start processes: peak RSS is read over the children, and the
    # worker's reference slice is a process start (see worker.py)
    spawns: bool = False

    def warmup(self) -> list[Op]:
        first: dict[str, Op] = {}
        for op in self.ops:
            first.setdefault(op.kind, op)
        return list(first.values())


def _interleave(items: list, spread: int) -> list:
    """Reorder as k -> items[(spread*k) mod len], a fixed permutation that
    keeps neighbouring ops from sharing a difficulty level."""
    count = len(items)
    if math.gcd(spread, count) != 1:
        raise ValueError(f"spread {spread} does not permute {count} items")
    return [items[(spread * k) % count] for k in range(count)]


def _strata(rng: np.random.Generator, lo: float, hi: float, count: int,
            spread: int = 7) -> list[float]:
    """One uniform draw in each of `count` equal strata of [lo, hi],
    interleaved."""
    width = (hi - lo) / count
    return _interleave([lo + width * (k + rng.uniform()) for k in range(count)],
                       spread)


def _signs(rng: np.random.Generator, count: int) -> list[float]:
    return [float(s) for s in rng.choice([-1.0, 1.0], size=count)]


# ---------------------------------------------------------------------------
# independent checks


def _mp_std_mean(a, b, mp):
    """Standard normal mean on [a, b] at the working mpmath precision."""
    rt2 = mp.sqrt(2)

    def pdf(x):
        return mp.zero if mp.isinf(x) else mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)

    if a >= 0:
        mass = (mp.erfc(a / rt2) - mp.erfc(b / rt2)) / 2
    elif b <= 0:
        mass = (mp.erfc(-b / rt2) - mp.erfc(-a / rt2)) / 2
    else:
        mass = (mp.erf(b / rt2) - mp.erf(a / rt2)) / 2
    return (pdf(a) - pdf(b)) / mass


def mp_gauss_residuals(edges, mean: float, std: float, bias: float,
                       dps: int = 40) -> list[float]:
    """Midpoint residuals of a Gaussian partition evaluated with mpmath.

    The float edges are taken exactly; erfc-based masses keep full
    relative precision in either tail.
    """
    import mpmath

    mp = mpmath.mp
    with mpmath.workdps(dps):
        m, s = mp.mpf(mean), mp.mpf(std)
        z = [(mp.mpf(e) - m) / s for e in edges]
        mu = [m + s * _mp_std_mean(z[k], z[k + 1], mp)
              for k in range(len(edges) - 1)]
        return [float(mp.mpf(edges[k]) - (mu[k - 1] + mu[k]) / 2 - mp.mpf(bias))
                for k in range(1, len(edges) - 1)]


def _certified(cert) -> str | None:
    if not cert.verdict:
        return (f"certificate failed: max |residual| {cert.max_abs_residual:.3e} "
                f"> {cert.tolerance:.1e}")
    return None


# ---------------------------------------------------------------------------
# gauss_solve


def _costed(p, cert, ladder=None):
    """The rest of a sweep row: costs and actions of a solved partition."""
    return p, cert, ct.decoder_cost(p), ct.decoder_best_response(p), ladder


def _gauss_nbins(mean, std, bias, n_bins, _tracer):
    p = ct.solve_n_bins_gauss(mean, std, bias, n_bins)
    return _costed(p, ct.certify(p, tol=1e-8))


def _gauss_two_bin(mean, std, bias, _tracer):
    p = ct.solve_two_bin_gauss(mean, std, bias)
    return _costed(p, ct.certify(p, tol=1e-8))


def _gauss_ladder(mean, std, bias, _tracer):
    r = ct.solve_truncated_ladder(ct.SourceModel.gaussian(mean, std), bias)
    return _costed(r.partition, r.certificate, r)


def _check_gauss(mean, std, bias, sampled, result, deep):
    p, cert, cost, actions, ladder = result
    facts = {"residual": cert.max_abs_residual, "bins": p.n_bins}
    if ladder is not None:
        facts["iterations"] = ladder.iterations
        if not ladder.converged:
            return "ladder did not converge", facts
    failure = _certified(cert)
    if failure is None and len(actions) != p.n_bins:
        failure = "decoder best response has the wrong length"
    if failure is None and deep and sampled:
        exact = mp_gauss_residuals(p.edges, mean, std, bias)
        skip = set(cert.excluded_edges)
        gap = max(abs(x - y) for x, y in zip(exact, cert.residuals))
        worst = max((abs(x) for i, x in enumerate(exact, 1) if i not in skip),
                    default=0.0)
        facts["mp_gap"] = gap
        if gap > 1e-9 or worst > cert.tolerance:
            failure = (f"mpmath residuals disagree: gap {gap:.3e}, "
                       f"max |residual| {worst:.3e}")
    return failure, facts


def build_gauss_solve(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    mean, std = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    sizes = list(range(3, 25))
    # |bias|/std >= 0.05: below it the damped iteration count swings
    # threefold within +-0.01 of bias, so op time would follow the seed.
    levels = _strata(rng, 0.05, 0.5, len(sizes))
    signs = _signs(rng, len(sizes))
    nbins = [(n, std * s * v) for n, s, v in zip(sizes, signs, levels)]
    ladders = [std * s * v for s, v in zip(_signs(rng, 4), _strata(rng, 0.05, 0.5, 4, 3))]
    two_bins = [std * v for v in _strata(rng, -0.5, 0.5, 4, 3)]
    plan = []  # (kind, solver, bias, extra solver args)
    for i, (n, bias) in enumerate(nbins):
        plan.append(("gauss-nbins", _gauss_nbins, bias, (n,)))
        if i % 6 == 0:
            plan.append(("gauss-ladder", _gauss_ladder, ladders[i // 6], ()))
        if i % 6 == 3:
            plan.append(("gauss-two-bin", _gauss_two_bin, two_bins[i // 6], ()))
    # mpmath re-evaluation on a seeded third of the round
    sampled = set(rng.choice(len(plan), size=len(plan) // 3, replace=False).tolist())
    ops = [Op(kind, {"mean": mean, "std": std, "bias": bias, "n_bins": extra[0] if extra else None},
              functools.partial(solver, mean, std, bias, *extra),
              functools.partial(_check_gauss, mean, std, bias, i in sampled))
           for i, (kind, solver, bias, extra) in enumerate(plan)]
    return Workload(ops)


# ---------------------------------------------------------------------------
# basin


BASIN_TOL = 1e-10
BASIN_MAX_ITER = 2000
BASIN_PROBES_PER_CELL = 2


def _basin(source, bias, n_bins, n_inits, seed, method, _tracer):
    return ct.basin_probe(source, bias, n_bins, n_inits, seed, method,
                          max_iter=BASIN_MAX_ITER, tol=BASIN_TOL)


def _check_basin(source, bias, summary, deep):
    converged = round(summary.fraction_converged * summary.n_inits)
    facts = {"converged": converged, "collapsed": summary.collapsed,
             "max_iter": summary.hit_max_iter, "limits": summary.n_distinct}
    if converged + summary.collapsed + summary.hit_max_iter != summary.n_inits:
        return "outcome tallies do not add up to the starts", facts
    if sum(summary.cluster_sizes) != converged:
        return "cluster sizes do not add up to the converged runs", facts
    worst = 0.0
    for limit in summary.distinct_limits:
        p = ct.Partition.from_interior(limit, source, bias)
        cert = ct.certify(p, tol=10.0 * BASIN_TOL)
        worst = max(worst, cert.max_abs_residual)
        if not cert.verdict:
            return f"converged limit failed to certify: {_certified(cert)}", facts
    facts["residual"] = worst
    return None, facts


def build_basin(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    sources = {"gauss": ct.SourceModel.gaussian(0.0, 1.0),
               "exp": ct.SourceModel.exponential(1.0)}
    methods = ("lloyd", "fixed-point")
    sizes = range(3, 9)
    # Op times span 1 ms to 0.5 s, so op_ms.p50 is set by the few ops
    # nearest the middle; two probes per cell put twice as many there.
    cells = [(m, n) for m in methods for n in sizes for _ in range(BASIN_PROBES_PER_CELL)]
    # Each range stays clear of an existence threshold, so no seed flips a
    # probe between converging and collapsing: 8 Gaussian bins stop existing
    # near |bias| = 0.345, and below bias = -0.291 exp(1) has no 3-bin
    # equilibrium, so every negative-bias exp probe collapses.
    gauss_bias = [s * v for s, v in zip(_signs(rng, len(cells)),
                                        _strata(rng, 0.12, 0.3, len(cells), 5))]
    exp_bias = _interleave(_strata(rng, -0.45, -0.32, len(cells), 5)
                           + _strata(rng, 0.1, 0.8, len(cells), 5), 7)
    plan = []
    for i, (method, n) in enumerate(cells):
        plan.append(("exp", method, n, exp_bias[2 * i]))
        plan.append(("gauss", method, n, gauss_bias[i]))
        plan.append(("exp", method, n, exp_bias[2 * i + 1]))
    ops = []
    for kind, method, n, bias in plan:
        probe_seed = int(rng.integers(2**31))
        src = sources[kind]
        ops.append(Op(f"basin-{kind}-{method}",
                      {"n_bins": n, "bias": bias, "seed": probe_seed, "n_inits": 3},
                      functools.partial(_basin, src, bias, n, 3, probe_seed, method),
                      functools.partial(_check_basin, src, bias)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# verify_library


def _reverify(partition, excluded, _tracer):
    cert = ct.certify(partition, tol=1e-8, excluded_edges=excluded)
    return cert, ct.decoder_cost(partition), ct.decoder_best_response(partition)


def _check_entry(partition, stored, bins, result, deep):
    cert, cost, actions = result
    b = partition.bias
    facts = {"residual": cert.max_abs_residual, "bins": partition.n_bins}
    failure = _certified(cert)
    if failure is None and abs(cost.encoder_cost - cost.decoder_cost - b * b) > \
            1e-12 * max(1.0, cost.encoder_cost):
        failure = "encoder cost - decoder cost != bias**2"
    if failure is None and abs(cost.decoder_cost - stored) > 1e-12 * max(1.0, abs(stored)):
        failure = f"decoder cost {cost.decoder_cost!r} differs from stored {stored!r}"
    if failure is None and len(actions) != partition.n_bins:
        failure = "decoder best response has the wrong length"
    if failure is None and deep:
        e, src = partition.edges, partition.source
        for k in bins:
            m1 = src.quadrature_moment(e[k], e[k + 1], 1)
            m2 = src.quadrature_moment(e[k], e[k + 1], 2)
            oracle = m2 - m1 * m1
            var = cost.per_bin[k][1]
            if abs(var - oracle) > 1e-8 * var + 1e-11 * m2:
                failure = (f"bin {k + 1} variance {var!r} differs from the "
                           f"quadrature oracle {oracle!r}")
                break
    return failure, facts


def build_verify_library(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    mean, std = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    rate = float(rng.uniform(0.5, 2.0))
    gsrc = ct.SourceModel.gaussian(mean, std)
    lib = []  # (kind, partition, edges excluded from the certificate)
    gauss_sizes = list(range(3, 13))
    for n, s, v in zip(gauss_sizes, _signs(rng, len(gauss_sizes)),
                       _strata(rng, 0.1, 0.5, len(gauss_sizes), 3)):
        lib.append(("lib-gauss-nbins", ct.solve_n_bins_gauss(mean, std, std * s * v, n), ()))
    for v in _strata(rng, -0.5, 0.5, 2, 1):
        lib.append(("lib-gauss-two-bin", ct.solve_two_bin_gauss(mean, std, std * v), ()))
    for s, v in zip(_signs(rng, 3), _strata(rng, 0.15, 0.5, 3, 2)):
        r = ct.solve_truncated_ladder(gsrc, std * s * v)
        lib.append(("lib-gauss-ladder", r.partition, r.certificate.excluded_edges))
    exp_sizes = (2, 4, 8, 16, 32, 64, 128, 200)
    for n, v in zip(exp_sizes, _strata(rng, 0.05, 1.0, len(exp_sizes), 3)):
        lib.append(("lib-exp-nbins", ct.solve_n_bins(rate, v / rate, n), ()))
    for n in (2, 3):
        bias = ct.bias_threshold(rate, n) * float(rng.uniform(0.2, 0.8))
        lib.append(("lib-exp-nbins", ct.solve_n_bins(rate, bias, n), ()))
    for n_edges, v in zip((16, 64, 128), _strata(rng, 0.05, 1.0, 3, 2)):
        lib.append(("lib-exp-ladder", ct.infinite_equilibrium(rate, v / rate, n_edges),
                    (n_edges,)))
    ops = []
    for kind, p, excluded in _interleave(lib, 5):
        stored = ct.decoder_cost(p).decoder_cost
        bins = sorted(set(rng.choice(p.n_bins, size=min(2, p.n_bins),
                                     replace=False).tolist()))
        ops.append(Op(kind, {"bins": p.n_bins, "bias": p.bias, "source": p.source.describe()},
                      functools.partial(_reverify, p, excluded),
                      functools.partial(_check_entry, p, stored, bins)))
    return Workload(ops)


# ---------------------------------------------------------------------------
# cli_cold


def _cli(argv, env, workdir, tracer):
    """One CLI process, started fresh; traced runs go through cli_child."""
    if tracer is None:
        return subprocess.run([sys.executable, "-m", "cheaptalk.cli", *argv],
                              capture_output=True, text=True, env=env,
                              cwd=workdir, timeout=CLI_TIMEOUT_S)
    span_file = os.path.join(workdir, "child-spans.json")
    spawn = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "cli_child.py"), span_file,
         repr(spawn), "--", *argv],
        capture_output=True, text=True, env=env, cwd=workdir,
        timeout=CLI_TIMEOUT_S)
    with open(span_file, encoding="utf-8") as fh:
        tracer.merge(json.load(fh))
    os.remove(span_file)
    return done


def _check_cli(command, result, deep):
    facts = {"exit": result.returncode}
    if result.returncode != 0:
        return (f"{command} exited {result.returncode}: "
                f"{result.stderr.strip()[-300:]}"), facts
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as err:
        return f"{command} printed invalid JSON: {err}", facts
    facts["post_import_ms"] = doc["meta"]["runtime_ms"]
    if command == "solve" and not doc["equilibrium"]["certificate"]["verdict"]:
        return "solve reported a failed certificate with exit 0", facts
    if command == "sweep" and len(doc["rows"]) != 50:
        return f"sweep returned {len(doc['rows'])} rows, expected 50", facts
    if command == "verify" and doc.get("verified") is not True:
        return f"verify did not verify: {doc.get('failures')}", facts
    if command == "dynamics":
        facts["iterations"] = doc["iterations"]
        facts["outcome"] = doc["outcome"]["status"]
    return None, facts


def build_cli_cold(seed: int, workdir: str) -> Workload:
    import cheaptalk.cli

    rng = np.random.default_rng([seed, 4])

    def num(lo, hi):
        return repr(float(rng.uniform(lo, hi)))

    rate = num(0.5, 2.0)
    mean, std = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    ladder_bias = std * float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 0.5))
    doc = os.path.join(workdir, "verify-input.json")
    code = cheaptalk.cli.entry(["solve", "--source", "exp", "--rate", rate,
                                "--bias", num(0.1, 0.8), "--bins",
                                str(int(rng.integers(3, 9))), "--out", doc])
    if code != 0:
        raise RuntimeError(f"writing the verify input exited {code}")
    init = np.sort(rng.uniform(0.2, 3.0, size=3)) / float(rate)
    commands = [
        ("solve-exp", ["solve", "--source", "exp", "--rate", rate,
                       "--bias", num(0.1, 0.8), "--bins", "4"]),
        ("sweep", ["sweep", "--source", "exp", "--rate", rate, "--vary", "bias",
                   "--from", num(-0.8, -0.4), "--to", num(0.2, 0.6),
                   "--steps", "50", "--bins", "3", "--format", "json"]),
        ("solve-ladder", ["solve", "--source", "gauss", "--mean", repr(mean),
                          "--std", repr(std), "--bias", repr(ladder_bias),
                          "--ladder"]),
        ("verify", ["verify", doc, "--seed", str(int(rng.integers(2**31)))]),
        ("dynamics", ["dynamics", "--source", "exp", "--rate", rate,
                      "--bias", num(0.1, 0.8), "--bins", "4",
                      "--init", ",".join(repr(float(x)) for x in init)]),
    ]
    env = dict(os.environ)
    ops = [Op(kind, {"argv": argv},
              functools.partial(_cli, argv, env, workdir),
              functools.partial(_check_cli, argv[0]))
           for kind, argv in commands]
    return Workload(ops, spawns=True)


BUILDERS = {
    "cli_cold": build_cli_cold,
    "gauss_solve": build_gauss_solve,
    "basin": build_basin,
    "verify_library": build_verify_library,
}
