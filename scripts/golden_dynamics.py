"""Compare the dynamics of two source trees on a fixed grid of runs.

Usage: python scripts/golden_dynamics.py OLD_SRC NEW_SRC

Each tree runs the same grid in its own `python` process, with
PYTHONPATH set to that tree, and the two run side by side: lloyd_method_i
and fixed_point_iterate (damping 0.5) from a fixed start, and
basin_probe with both methods from 3 random starts,
for exp(1), exp(2.5), N(0, 1) and N(0.3, 1.7), n = 2..24 bins, and
biases on both sides of where the exponential runs stop converging and
collapse (exp(1) has no 3-bin equilibrium below bias -0.291 and no 2-bin
one at or below -0.5), and Gaussian biases out to 0.6, where N(0, 1)
still has 8-bin equilibria whose last bin carries under 1e-14. Every run
stops at 2 000 steps. The grid ends with the stop paths that the
dynamics tests pin. The fixed start puts the interior edges at the
source's k/n quantiles, k = 1..n-1.

Each run prints one line of four tab-separated fields: its name; its
outcome, which is the status, stop step and bin index of an engine run,
or the outcome counts and cluster sizes of a basin_probe summary; the
final edges or the summary's distinct limits; and the rest (the
iteration count and the reprs of the trace's recorded_steps and
residual_history, or the repr of the summary). The script prints every
line that differs between the trees, each marked "OUTCOME" when its
outcome field differs and not only its floats. It ends with one count
per source (the stop-path runs count as "pin"): runs, runs that differ,
runs whose outcome differs, and the worst relative change of an edge or
limit among runs whose outcome does not. It exits 1 on any difference.
`--dump SRC` prints one tree's lines instead.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

MAX_ITER = 2000
EXP_BIASES = (-0.55, -0.45, -0.35, -0.28, -0.1, 0.05, 0.3, 0.6)
GAUSS_BIASES = (-0.4, -0.2, -0.05, 0.1, 0.3, 0.36, 0.6)


def runs():
    """(name, zero-argument call) for every run of the grid, in order."""
    import math

    from cheaptalk.dynamics import basin_probe, fixed_point_iterate, lloyd_method_i
    from cheaptalk.equilibrium import Partition
    from cheaptalk.gaussian import solve_two_bin_gauss
    from cheaptalk.sources import SourceModel

    def engines(name, source, bias, edges, max_iter=MAX_ITER):
        init = Partition(edges, source, bias)
        yield (f"{name} lloyd",
               lambda: lloyd_method_i(source, bias, init, max_iter))
        yield (f"{name} damped",
               lambda: fixed_point_iterate(source, bias, init, 0.5, max_iter))

    exp1, gauss = SourceModel.exponential(1.0), SourceModel.gaussian(0.0, 1.0)
    grid = ((exp1, EXP_BIASES), (SourceModel.exponential(2.5), EXP_BIASES),
            (gauss, GAUSS_BIASES), (SourceModel.gaussian(0.3, 1.7), GAUSS_BIASES))
    for source, biases in grid:
        label = " ".join(f"{k}={v}" for k, v in source.describe().items())
        lo, hi = source.support
        for bias in biases:
            for n in range(2, 25):
                name = f"{label} bias={bias} n={n}"
                edges = (lo, *(source.quantile(k / n) for k in range(1, n)), hi)
                yield from engines(name, source, bias, edges)
                for method in ("lloyd", "fixed-point"):
                    yield (f"{name} basin {method}",
                           lambda source=source, bias=bias, n=n, method=method:
                           basin_probe(source, bias, n, 3, seed=n, method=method,
                                       max_iter=MAX_ITER))
    # the stop paths of the dynamics tests: an edge crossing, the length
    # floor, convergence with a top bin under 1e-14, convergence and
    # max_iter
    exp_start = (0.0, 1.0, 2.0, math.inf)
    yield from engines("pin edge-crossing", exp1, -0.4, exp_start)
    yield from engines("pin length-floor", exp1, -0.411601180487, exp_start)
    # 23 edges 1/4 apart up from the two-bin edge, as the dynamics tests pin
    anchor = solve_two_bin_gauss(0.0, 1.0, 0.05).edges[1]
    yield from engines("pin light-top-bin", gauss, 0.05,
                       (-math.inf, *(anchor + 0.25 * k for k in range(23)), math.inf),
                       10_000)
    gauss_start = (-math.inf, -0.5, 0.7, math.inf)
    yield from engines("pin converged", gauss, 0.2, gauss_start, 10_000)
    yield from engines("pin max-iter", gauss, 0.2, gauss_start, 50)


def dump(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from cheaptalk.dynamics import BasinProbeSummary

    for name, call in runs():
        result = call()
        if isinstance(result, BasinProbeSummary):
            print(f"{name}\tconverged={result.fraction_converged!r} "
                  f"collapsed={result.collapsed} "
                  f"max_iter={result.hit_max_iter} "
                  f"sizes={result.cluster_sizes!r}\t"
                  f"{result.distinct_limits!r}\t{result!r}")
        else:
            o = result.outcome
            print(f"{name}\t{o.status} {o.iteration} {o.bin_index}\t"
                  f"{result.final_partition.edges!r}\t{result.iterations}\t"
                  f"{result.recorded_steps!r}\t{result.residual_history!r}")


def start(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen([sys.executable, __file__, "--dump", src],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def lines(src: str, child: subprocess.Popen) -> list[str]:
    out, err = child.communicate()
    if child.returncode != 0:
        raise SystemExit(f"{src} exited {child.returncode}: {err}")
    return out.splitlines()


FLOAT = re.compile(r"-?(?:inf|nan|\d[\d.]*(?:e[-+]?\d+)?)")


def source_of(name: str) -> str:
    return name.split(" bias=")[0] if " bias=" in name else "pin"


def worst_relative_change(a: str, b: str) -> float:
    """Largest |x - y| / max(|x|, |y|) over the floats of two edge
    fields, pairwise; inf when they hold different counts or non-finite
    values differ."""
    xs, ys = ([float(v) for v in FLOAT.findall(f)] for f in (a, b))
    if len(xs) != len(ys):
        return float("inf")
    worst = 0.0
    for x, y in zip(xs, ys):
        if x == y or x != x and y != y:
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if scale < float("inf")
                    else float("inf"))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--dump", metavar="SRC")
    args = parser.parse_args()
    if args.dump:
        dump(args.dump)
        return 0
    if not (args.old_src and args.new_src):
        parser.error("give OLD_SRC and NEW_SRC, or --dump SRC")
    # the two trees run side by side, one process each
    children = [(src, start(src)) for src in (args.old_src, args.new_src)]
    old, new = (lines(src, child) for src, child in children)
    # source -> [runs, differ, outcome differs, worst relative change]
    tally: dict[str, list] = {}
    differ = 0
    for a, b in zip(old, new):
        name, outcome_a, edges_a, _ = a.split("\t", 3)
        _, outcome_b, edges_b, _ = b.split("\t", 3)
        counts = tally.setdefault(source_of(name), [0, 0, 0, 0.0])
        counts[0] += 1
        if a == b:
            continue
        differ += 1
        counts[1] += 1
        if outcome_a != outcome_b:
            counts[2] += 1
            print("OUTCOME")
        else:
            counts[3] = max(counts[3], worst_relative_change(edges_a, edges_b))
        print(f"- {a}\n+ {b}")
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} and {len(new)}")
    for source, (n, changed, outcomes, worst) in tally.items():
        print(f"{source}: {n} runs, {changed} differ, {outcomes} with a "
              f"changed outcome, worst relative edge change {worst:.3g}")
    print(f"{len(old)} runs: {differ} differ")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main())
