"""Time the per-layer costs of two source trees, in alternating processes.

Usage: python scripts/layer_costs.py OLD_SRC NEW_SRC [--rounds N]

N is at least 2 and 10 by default.

Each round starts one `python` process per tree, with PYTHONPATH set to
that tree, one after the other; even-numbered rounds (from 0) run OLD_SRC
first, odd ones NEW_SRC first, so host drift falls on both sides alike.
A process times every layer below and prints one JSON object of
microseconds per call, each the median of SAMPLES samples; a sample
times a fixed number of back-to-back calls.

Random starts are dynamics._random_starts drawn with default_rng(1).
The `equal-width start` of k edges at bias b is the two-bin edge of
solve_two_bin_gauss on N(0, 1) at b plus 1/4 times 0..k-1, formed here
from the public API, so both trees of a comparison start from the same
edges.

- `rule (3, 8)`, `rule (24,)`: one sources._std_rule pass over 3 rows of
  8 bins (3 random N(0, 1) starts) and over the 24 bins of the
  equal-width start of 23 edges at bias 0.1, in std units;
- `slope pass (24,)`: one sources._std_interval_slopes pass, the rule
  read as means and edge slopes, over the same 24 bins;
- `two-bin balance`: one gaussian._solve_balance, the root of
  two_bin_balance(c) = y that every default start is anchored on, at
  y = 2|b| for each bias b of GRID: the five roots divided by five;
- `gaussian step lloyd`, `gaussian step damped`, `exponential step
  lloyd`, `exponential step damped`: one step of dynamics._run_rows on 3
  rows of 7 bins (3 random starts, N(0, 1) at bias 0.2 or exp(1) at
  bias 0.3), damping 1 or 0.5: a run of 200 steps at tol 1e-300,
  divided by its 201 steps (the script exits if a row stops early);
- `newton n=12`: one iterate of gaussian._solve_edges on N(0, 1) at
  bias 0.1 from the equal-width start of 11 edges: a whole solve divided
  by its kernel passes, one per Newton iterate and line-search trial;
- `gaussian solve grid`: one solve_n_bins_gauss on N(0, 1) from its
  default start, over the grid GRID of biases and bin counts: the whole
  grid divided by its solves. The report also gives each tree's kernel
  passes per solve on the grid (gaussian._std_interval_slopes calls,
  one per Newton iterate and line-search trial), so the layer reads as
  iterations times cost per iteration;
- `restart round`: one whole gaussian._solve_edges on N(0, 1) at bias
  -0.4 from the start (-1.4, 1.4, 1.8, 2.0, 3.1), damping 0.5, max_iter
  100 000, tol 1e-10: Newton breaks down there after 11 steps, and one
  restart round of 8 damped steps takes it to the root;
- `partition 40`: a fresh 40-bin Gaussian Partition (the equal-width
  start of 39 edges at bias 0.05 on N(0, 1)) with certify, decoder_cost
  and decoder_best_response;
- `exponential walk`: exponential._backward_lengths(1.0, -1e-6, 10**7),
  the whole backward walk of 1 359 bins, one scalar h per bin;
- `exponential record 40`: the same as `partition 40` on the 40-bin
  exponential equilibrium solve_n_bins(0.7, 0.3/0.7, 40).

Prints one JSON object: per layer and tree the median and quartiles of
the round values, in raw microseconds on this host (compare within a
layer only), and the ratio of the new median to the old, and under
"passes per solve" each tree's count for the solve grid. `--child SRC`
prints one process's object instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SAMPLES = 25
SAMPLE_S = 0.004  # each sample runs about this long
STEPS = 200
# (bias, n_bins) of the `gaussian solve grid` layer, on N(0, 1)
GRID = tuple((bias, n) for bias in (0.05, -0.1, 0.2, -0.3, 0.5)
             for n in (3, 8, 16, 24))


def layers(passes: dict):
    """(name, zero-argument call, calls it stands for) for every layer;
    fills passes with the kernel passes per solve of the solve grid."""
    import math

    import numpy as np

    from cheaptalk import exponential, gaussian, sources
    from cheaptalk.dynamics import _random_starts, _run_rows
    from cheaptalk.equilibrium import (Partition, certify,
                                       decoder_best_response, decoder_cost)
    from cheaptalk.gaussian import (_solve_edges, solve_n_bins_gauss,
                                    solve_two_bin_gauss)
    from cheaptalk.sources import SourceModel

    def equal_width(bias, count):
        return (solve_two_bin_gauss(0.0, 1.0, bias).edges[1]
                + 0.25 * np.arange(count))

    gauss, exp1 = SourceModel.gaussian(0.0, 1.0), SourceModel.exponential(1.0)
    rows = _random_starts(gauss, 8, 3, np.random.default_rng(1))
    line = np.array((-math.inf, *equal_width(0.1, 23), math.inf))
    for name, z in (("rule (3, 8)", rows), ("rule (24,)", line)):
        za, zb = z[..., :-1], z[..., 1:]
        yield name, lambda za=za, zb=zb: sources._std_rule(za, zb), 1
    yield ("slope pass (24,)",
           lambda: sources._std_interval_slopes(line[:-1], line[1:]), 1)
    balance = sorted({2.0 * abs(bias) for bias, _ in GRID})

    def roots():
        for y in balance:
            gaussian._solve_balance(y)

    yield "two-bin balance", roots, len(balance)
    for source, bias in ((gauss, 0.2), (exp1, 0.3)):
        starts = _random_starts(source, 7, 3, np.random.default_rng(1))
        for method, damping in (("lloyd", 1.0), ("damped", 0.5)):
            outcomes, _ = _run_rows(source, bias, starts, STEPS, 1e-300,
                                    damping)
            if any(o.status != "max_iter" for o in outcomes):
                raise SystemExit(f"{source.kind} {method}: a row stopped")
            yield (f"{source.kind} step {method}",
                   lambda s=source, b=bias, e=starts, d=damping:
                   _run_rows(s, b, e, STEPS, 1e-300, d), STEPS + 1)

    def kernel_calls(module, name, call):
        """Run call with module.name counted; return its call count."""
        kernel, calls = getattr(module, name), []

        def counted(za, zb):
            calls.append(None)
            return kernel(za, zb)

        setattr(module, name, counted)
        try:
            call()
        finally:
            setattr(module, name, kernel)
        return len(calls)

    start = equal_width(0.1, 11)

    def newton():
        _solve_edges(gauss, 0.1, start, 0.5, 100_000, 1e-10)

    yield "newton n=12", newton, kernel_calls(sources, "_std_rule", newton)

    def grid():
        for bias, n in GRID:
            solve_n_bins_gauss(0.0, 1.0, bias, n)

    passes["gaussian solve grid"] = kernel_calls(
        gaussian, "_std_interval_slopes", grid) / len(GRID)
    yield "gaussian solve grid", grid, len(GRID)
    breakdown = np.array((-1.4, 1.4, 1.8, 2.0, 3.1))
    yield ("restart round",
           lambda: _solve_edges(gauss, -0.4, breakdown, 0.5, 100_000, 1e-10),
           1)
    edges = (-math.inf, *equal_width(0.05, 39), math.inf)

    def record():
        p = Partition(edges, gauss, 0.05)
        certify(p)
        decoder_cost(p)
        decoder_best_response(p)

    yield "partition 40", record, 1
    yield ("exponential walk",
           lambda: exponential._backward_lengths(1.0, -1e-6, 10**7), 1)
    exp_edges = exponential.solve_n_bins(0.7, 0.3 / 0.7, 40).edges

    def exp_record():
        p = Partition(exp_edges, SourceModel.exponential(0.7), 0.3 / 0.7)
        certify(p)
        decoder_cost(p)
        decoder_best_response(p)

    yield "exponential record 40", exp_record, 1


def child(src: str) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    result, passes = {}, {}
    for name, call, calls in layers(passes):
        t0 = time.perf_counter()
        call()
        number = max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-7)))
        samples = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            for _ in range(number):
                call()
            samples.append((time.perf_counter() - t0) / number / calls)
        result[name] = 1e6 * statistics.median(samples)
    return {"us": result, "passes": passes}


def run(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, __file__, "--child", src],
                         capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise SystemExit(f"{src} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--child", metavar="SRC")
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    if not (args.old_src and args.new_src) or args.rounds < 2:
        parser.error("give OLD_SRC and NEW_SRC, and --rounds of at least 2")
    sides = {"old": [], "new": []}
    for k in range(args.rounds):
        order = ("old", "new") if k % 2 == 0 else ("new", "old")
        for side in order:
            sides[side].append(run(args.old_src if side == "old"
                                   else args.new_src))
    report = {"rounds": args.rounds, "unit": "us per call, raw",
              "passes per solve": {name: {s: sides[s][0]["passes"][name]
                                          for s in sides}
                                   for name in sides["old"][0]["passes"]}}
    for name in sides["old"][0]["us"]:
        old, new = ({"runs": [r["us"][name] for r in sides[s]]} for s in sides)
        old.update(spread(old["runs"]))
        new.update(spread(new["runs"]))
        report[name] = {"old": old, "new": new,
                        "ratio": new["median"] / old["median"]}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
