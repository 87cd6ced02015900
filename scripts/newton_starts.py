"""Run the Gaussian solve loop from random starts and count its restarts.

Usage: python scripts/newton_starts.py [SRC] [--seed N]
       python scripts/newton_starts.py OLD_SRC NEW_SRC [--seed N]

Runs gaussian._solve_edges (Newton with short damped restarts; damping
0.5, max_iter 100 000, tol 1e-10) on N(0, 1) from 1 500 random starts
drawn with numpy's default_rng(seed), start by start in this order: a
sign from {-1, 1} and a size from U(0.02, 0.6) for the bias, then

- starts 0-1199, n-bin games: n uniform in 3..24 and n - 1 interior
  edges sorted from U(-4, 4);
- starts 1200-1499, 40-edge ladders at the bias's absolute value: an
  anchor from U(-4, 4) and 39 lengths from U(0.05, 1), closing bin 2|b|.

Each Newton breakdown starts one restart round of damped steps, so the
rounds of a start are the breakdowns it handled; they are counted by
wrapping gaussian._damped_midpoints. Every start is also run through
_damped_midpoints alone to tol 1e-14, the damped reference. Prints one
JSON object:

- broke: the starts with at least one breakdown, per kind;
- steps, edges: the loop's step count and edges by start index, so two
  trees can be compared start by start;
- restarts: rounds and damped steps used, for the starts that broke;
- failed: the loop's error, or its final change if it did not converge;
- gap: the largest edge distance to the damped reference, or the
  reference's error;
- breakdown_seconds: wall time of the loop on the starts that broke.

SRC (default: this checkout's src) is put first on sys.path.

Given two trees, the script runs each in its own `python` process, side
by side, and compares them start by start: it prints every start whose
steps, edges, restarts, failure or gap differ, then a count, and exits 1
on any difference. Only breakdown_seconds is not compared.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

STARTS = 1500
# the per-start fields two trees must agree on
COMPARED = ("steps", "edges", "restarts", "failed", "gap")


def dump(src: str, seed: int) -> dict:
    """The JSON object above for one tree."""
    sys.path.insert(0, src)
    import numpy as np
    from cheaptalk import gaussian
    from cheaptalk.errors import CheapTalkError, EdgeOrderingError
    from cheaptalk.sources import SourceModel

    damped = gaussian._damped_midpoints
    rounds = []

    def counted(*call_args):
        result = damped(*call_args)
        rounds.append(result[2])
        return result

    gaussian._damped_midpoints = counted
    source = SourceModel.gaussian(0.0, 1.0)
    rng = np.random.default_rng(seed)
    out = {"broke": {"n-bin": [], "ladder": []}, "steps": {}, "edges": {},
           "restarts": {}, "failed": {}, "gap": {}, "breakdown_seconds": 0.0}
    for i in range(STARTS):
        bias = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.6)
        if i < 1200:
            kind, closing = "n-bin", None
            n_bins = int(rng.integers(3, 25))
            edges = np.sort(rng.uniform(-4.0, 4.0, size=n_bins - 1))
        else:
            kind, bias = "ladder", abs(bias)
            closing = 2.0 * bias
            anchor, lengths = rng.uniform(-4.0, 4.0), rng.uniform(0.05, 1.0, 39)
            edges = anchor + np.concatenate(([0.0], np.cumsum(lengths)))
        rounds.clear()
        started = time.perf_counter()
        try:
            final, converged, steps, change = gaussian._solve_edges(
                source, bias, edges, 0.5, 100_000, 1e-10, closing)
        except CheapTalkError as err:
            final, out["failed"][i] = None, f"{type(err).__name__}: {err}"
        else:
            out["steps"][i] = steps
            out["edges"][i] = final.tolist()
            if not converged:
                out["failed"][i] = change
        if rounds:
            out["breakdown_seconds"] += time.perf_counter() - started
            out["broke"][kind].append(i)
            out["restarts"][i] = {"rounds": len(rounds),
                                  "damped_steps": sum(rounds)}
        try:
            want, converged, _, _ = damped(source, bias, edges, 0.5, 100_000,
                                           1e-14, closing)
        except EdgeOrderingError as err:
            out["gap"][i] = f"reference: {err}"
            continue
        if not converged:
            out["gap"][i] = "reference did not converge"
        elif final is not None:
            out["gap"][i] = float(np.abs(final - want).max())
    return out


def difference(key: str, old, new) -> str:
    """One field of one start as it differs between the trees; edges of
    the same count as their largest move."""
    if key == "edges" and old and new and len(old) == len(new):
        return f"edges moved {max(abs(a - b) for a, b in zip(old, new))!r}"
    return f"{key} {old!r} -> {new!r}"


def compare(old_src: str, new_src: str, seed: int) -> int:
    """Run both trees side by side, one process each, and print every
    start on which they differ; 1 on any difference."""
    children = [subprocess.Popen(
        [sys.executable, __file__, src, "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for src in (old_src, new_src)]
    results = []
    for src, child in zip((old_src, new_src), children):
        out, err = child.communicate()
        if child.returncode != 0:
            raise SystemExit(f"{src} exited {child.returncode}: {err}")
        results.append(json.loads(out))
    old, new = results
    differ = 0
    for i in map(str, range(STARTS)):
        fields = [key for key in COMPARED if old[key].get(i) != new[key].get(i)]
        if fields:
            differ += 1
            print(f"start {i}: " + "; ".join(
                difference(key, old[key].get(i), new[key].get(i))
                for key in fields))
    print(f"{STARTS} starts: {differ} differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="*",
                        help="one tree to dump (default: this checkout's "
                             "src), or OLD_SRC NEW_SRC to compare")
    parser.add_argument("--seed", type=int, default=20261018)
    args = parser.parse_args()
    if len(args.src) == 2:
        return compare(*args.src, args.seed)
    if len(args.src) > 2:
        parser.error("give at most two trees")
    src = args.src[0] if args.src else str(
        Path(__file__).resolve().parents[1] / "src")
    json.dump(dump(src, args.seed), sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
