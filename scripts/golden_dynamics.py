"""Compare the dynamics of two source trees on a fixed grid of runs.

Usage: python scripts/golden_dynamics.py OLD_SRC NEW_SRC

Each tree runs the same grid in its own `python` process, with
PYTHONPATH set to that tree, and the two run side by side: lloyd_method_i
and fixed_point_iterate (damping 0.5) from a fixed start, and
basin_probe with both methods from 3 random starts,
for exp(1), exp(2.5), N(0, 1) and N(0.3, 1.7), n = 2..24 bins, and
biases on both sides of where the runs stop converging and collapse
(exp(1) has no 3-bin equilibrium below bias -0.291 and no 2-bin one at
or below -0.5; N(0, 1) has no 8-bin one past |bias| = 0.345). Every run
stops at 2 000 steps. The grid ends with the stop paths that the
dynamics tests pin. The fixed start puts the interior edges at the
source's k/n quantiles, k = 1..n-1.

Each run prints one line: its name, the outcome (status, stop step,
bin index), the iteration count and the repr of the final edges, or the
repr of the basin_probe summary. The script prints every line that
differs between the trees and a count, and exits 1 on any difference.
`--dump SRC` prints one tree's lines instead.
"""

from __future__ import annotations

import argparse
import os
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
    from cheaptalk.gaussian import _default_interior
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
    # floor, the probability floor, convergence and max_iter
    exp_start = (0.0, 1.0, 2.0, math.inf)
    yield from engines("pin edge-crossing", exp1, -0.4, exp_start)
    yield from engines("pin length-floor", exp1, -0.411601180487, exp_start)
    yield from engines("pin probability-floor", gauss, 0.05,
                       (-math.inf, *_default_interior(0.0, 1.0, 0.05, 24), math.inf),
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
            print(f"{name}\t{result!r}")
        else:
            o = result.outcome
            print(f"{name}\t{o.status} {o.iteration} {o.bin_index}\t"
                  f"{result.iterations}\t{result.final_partition.edges!r}")


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
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} and {len(new)}")
    print(f"{len(old)} runs: {len(differ)} differ")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main())
