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

- `rule (3, 8)`, `rule (24,)`: one sources._std_rule pass over 3 rows of
  8 bins (3 random N(0, 1) starts) and over the 24 bins of the default
  N(0, 1) start at bias 0.1, in std units;
- `gaussian step lloyd`, `gaussian step damped`, `exponential step
  lloyd`, `exponential step damped`: one step of dynamics._run_rows on 3
  rows of 7 bins (3 random starts, N(0, 1) at bias 0.2 or exp(1) at
  bias 0.3), damping 1 or 0.5: a run of 200 steps at tol 1e-300,
  divided by its 201 steps (the script exits if a row stops early);
- `newton n=12`: one iterate of gaussian._solve_edges on N(0, 1) at
  bias 0.1 from the default 12-bin start: a whole solve divided by its
  kernel passes, one per Newton iterate and line-search trial;
- `partition 40`: a fresh 40-bin Gaussian Partition (the default N(0, 1)
  start at bias 0.05) with certify, decoder_cost and
  decoder_best_response.

Prints one JSON object: per layer and tree the median and quartiles of
the round values, in raw microseconds on this host (compare within a
layer only), and the ratio of the new median to the old. `--child SRC`
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


def layers():
    """(name, zero-argument call, calls it stands for) for every layer."""
    import math

    import numpy as np

    from cheaptalk import sources
    from cheaptalk.dynamics import _random_starts, _run_rows
    from cheaptalk.equilibrium import (Partition, certify,
                                       decoder_best_response, decoder_cost)
    from cheaptalk.gaussian import _default_interior, _solve_edges
    from cheaptalk.sources import SourceModel

    gauss, exp1 = SourceModel.gaussian(0.0, 1.0), SourceModel.exponential(1.0)
    rows = _random_starts(gauss, 8, 3, np.random.default_rng(1))
    line = np.array((-math.inf, *_default_interior(0.0, 1.0, 0.1, 24),
                     math.inf))
    for name, z in (("rule (3, 8)", rows), ("rule (24,)", line)):
        za, zb = z[..., :-1], z[..., 1:]
        yield name, lambda za=za, zb=zb: sources._std_rule(za, zb), 1
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
    start = np.array(_default_interior(0.0, 1.0, 0.1, 12))
    passes = []
    rule = sources._std_rule

    def counted(za, zb):
        passes.append(None)
        return rule(za, zb)

    sources._std_rule = counted
    try:
        _solve_edges(gauss, 0.1, start, 0.5, 100_000, 1e-10)
    finally:
        sources._std_rule = rule
    yield ("newton n=12",
           lambda: _solve_edges(gauss, 0.1, start, 0.5, 100_000, 1e-10),
           len(passes))
    edges = (-math.inf, *_default_interior(0.0, 1.0, 0.05, 40), math.inf)

    def record():
        p = Partition(edges, gauss, 0.05)
        certify(p)
        decoder_cost(p)
        decoder_best_response(p)

    yield "partition 40", record, 1


def child(src: str) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    result = {}
    for name, call, calls in layers():
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
    return result


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
    report = {"rounds": args.rounds, "unit": "us per call, raw"}
    for name in sides["old"][0]:
        old, new = ({"runs": [r[name] for r in sides[s]]} for s in sides)
        old.update(spread(old["runs"]))
        new.update(spread(new["runs"]))
        report[name] = {"old": old, "new": new,
                        "ratio": new["median"] / old["median"]}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
