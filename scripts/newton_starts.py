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

An n-bin start passes no closing argument, so each tree closes a finite
game by its own default: None in older trees, +inf since the closing
step became a plain float.

Each Newton breakdown starts one restart round of damped steps, so the
rounds of a start are the breakdowns it handled. They are counted
through what every tree's loop does, with no hook of its own: each
Newton attempt calls gaussian._newton_step, and each damped step
multiplies the damping by the midpoints, so the damping passed in is a
float that logs its products. A round is a run of damped steps between
two Newton attempts; a step that crosses edges is counted too. Kernel
passes are counted as sources._std_rule calls, which every pass of
every tree makes once. Every start is also run through the damped loop
alone to tol 1e-14, the damped reference, a copy here of the loop the
restart rounds take, reading SourceModel._frame_means. Prints one JSON
object:

- broke: the starts with at least one breakdown, per kind;
- steps, edges: the loop's step count and edges by start index, so two
  trees can be compared start by start;
- restarts: rounds and damped steps used, for the starts that broke;
- failed: the loop's error, or its final change if it did not converge;
- gap: the largest edge distance to the damped reference, or the
  reference's error;
- passes: the loop's kernel passes by start;
- breakdown_seconds: wall time of the loop on the starts that broke.

SRC (default: this checkout's src) is put first on sys.path.

Given two trees, the script runs each in its own `python` process, side
by side, and compares them start by start: it prints every start whose
steps, edges, restarts, failure or gap differ, then a count, and exits 1
on any difference. Passes and breakdown_seconds are not compared; the
report gives how many starts take how many passes fewer in the new
tree, and on how many the drop equals the old tree's restart rounds.
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


def damped_reference(source, bias, edges, damping, max_iter, tol,
                     ladder_step=float("inf")):
    """Damped midpoint iteration in std units from increasing edges,
    (1 - damping)*e + damping*midpoints(e), to the first move of at most
    tol; returns (edges, converged). Raises EdgeOrderingError where a step
    crosses edges."""
    import numpy as np
    from cheaptalk.equilibrium import _midpoints
    from cheaptalk.errors import EdgeOrderingError

    def full(e):
        return np.concatenate(([-np.inf], e, [e[-1] + ladder_step]))

    z = full(edges)
    for it in range(1, max_iter + 1):
        rows = _midpoints(source._frame_means(z, None), bias)
        new = (1.0 - damping) * edges + damping * rows
        z = full(new)
        if not (z[1:] > z[:-1]).all():
            raise EdgeOrderingError(
                f"edges crossed at iteration {it}", iteration=it)
        delta, edges = float(np.abs(new - edges).max()), new
        if delta <= tol:
            return edges, True
    return edges, False


def dump(src: str, seed: int) -> dict:
    """The JSON object above for one tree."""
    sys.path.insert(0, src)
    import numpy as np
    from cheaptalk import gaussian, sources
    from cheaptalk.errors import CheapTalkError, EdgeOrderingError
    from cheaptalk.sources import SourceModel

    # "N" per Newton attempt, "D" per damped step, "P" per kernel pass
    events = []

    class Damping(float):
        def __mul__(self, other):
            events.append("D")
            return float(self) * other

    def logged(name, kernel):
        def call(*call_args):
            events.append(name)
            return kernel(*call_args)
        return call

    gaussian._newton_step = logged("N", gaussian._newton_step)
    sources._std_rule = logged("P", sources._std_rule)
    source = SourceModel.gaussian(0.0, 1.0)
    rng = np.random.default_rng(seed)
    out = {"broke": {"n-bin": [], "ladder": []}, "steps": {}, "edges": {},
           "restarts": {}, "failed": {}, "gap": {}, "passes": {},
           "breakdown_seconds": 0.0}
    for i in range(STARTS):
        bias = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.6)
        if i < 1200:
            kind, closing = "n-bin", ()
            n_bins = int(rng.integers(3, 25))
            edges = np.sort(rng.uniform(-4.0, 4.0, size=n_bins - 1))
        else:
            kind, bias = "ladder", abs(bias)
            closing = (2.0 * bias,)
            anchor, lengths = rng.uniform(-4.0, 4.0), rng.uniform(0.05, 1.0, 39)
            edges = anchor + np.concatenate(([0.0], np.cumsum(lengths)))
        events.clear()
        started = time.perf_counter()
        try:
            final, converged, steps, change = gaussian._solve_edges(
                source, bias, edges, Damping(0.5), 100_000, 1e-10, *closing)
        except CheapTalkError as err:
            final, out["failed"][i] = None, f"{type(err).__name__}: {err}"
        else:
            out["steps"][i] = steps
            out["edges"][i] = final.tolist()
            if not converged:
                out["failed"][i] = change
        elapsed = time.perf_counter() - started
        out["passes"][i] = events.count("P")
        rounds = [len(run) for run in
                  "".join(e for e in events if e != "P").split("N") if run]
        if rounds:
            out["breakdown_seconds"] += elapsed
            out["broke"][kind].append(i)
            out["restarts"][i] = {"rounds": len(rounds),
                                  "damped_steps": sum(rounds)}
        try:
            want, converged = damped_reference(source, bias, edges, 0.5,
                                               100_000, 1e-14, *closing)
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
    drops = {}
    for i in map(str, range(STARTS)):
        drop = old["passes"][i] - new["passes"][i]
        drops[drop] = drops.get(drop, 0) + 1
    rounds = sum(old["passes"][i] - new["passes"][i]
                 == old["restarts"].get(i, {}).get("rounds", 0)
                 for i in map(str, range(STARTS)))
    print(f"passes fewer in the new tree: starts by count "
          f"{dict(sorted(drops.items()))}; equal to the old tree's restart "
          f"rounds on {rounds} starts")
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
