"""Count how often the Gaussian Newton solve breaks down from random starts.

Usage: python scripts/newton_starts.py [SRC] [--seed N]

Runs gaussian._newton_edges on N(0, 1) from 1 500 random starts drawn
with numpy's default_rng(seed), start by start in this order: a sign
from {-1, 1} and a size from U(0.02, 0.6) for the bias, then

- starts 0-1199, n-bin games: n uniform in 3..24 and n - 1 interior
  edges sorted from U(-4, 4);
- starts 1200-1499, 40-edge ladders at the bias's absolute value: an
  anchor from U(-4, 4) and 39 lengths from U(0.05, 1), closing bin 2|b|.

Each start where Newton breaks down (returns None) is rerun with the
damped fallback, _damped_midpoints (damping 0.5, tol 1e-10). Prints one
JSON object: the breakdown indices per kind, Newton's step counts, the
fallback outcomes, and the converged edges by start index, so two trees
can be compared start by start. SRC (default: this checkout's src) is
put first on sys.path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", nargs="?",
                        default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--seed", type=int, default=20261018)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from cheaptalk.errors import EdgeOrderingError
    from cheaptalk.gaussian import _damped_midpoints, _newton_edges
    from cheaptalk.sources import SourceModel

    source = SourceModel.gaussian(0.0, 1.0)
    rng = np.random.default_rng(args.seed)
    out = {"broke": {"n-bin": [], "ladder": []}, "steps": {}, "edges": {},
           "fallback": {}}
    for i in range(1500):
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
        solved = _newton_edges(source, bias, edges, 100_000, 1e-10, closing)
        if solved is not None:
            out["steps"][i] = solved[2]
            out["edges"][i] = solved[0].tolist()
            continue
        out["broke"][kind].append(i)
        try:
            final, converged, iterations, _ = _damped_midpoints(
                source, bias, edges, 0.5, 100_000, 1e-10, closing)
            out["fallback"][i] = {"converged": converged,
                                  "iterations": iterations,
                                  "edges": final.tolist()}
        except EdgeOrderingError as err:
            out["fallback"][i] = {"error": str(err)}
    json.dump(out, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
