"""Compare the CLI of two source trees on a fixed list of invocations.

Usage: python scripts/golden_cli.py OLD_SRC NEW_SRC

Each invocation runs as `python -m cheaptalk.cli ...` once with
PYTHONPATH=OLD_SRC and once with PYTHONPATH=NEW_SRC, from the same
scratch directory. The documents that `verify` checks are written first
by OLD_SRC, so they stand for documents an older release wrote. Before
comparing, `meta.runtime_ms` is masked. For each invocation the script
prints both exit codes, whether stdout and stderr are byte-identical,
and the worst relative and absolute differences between corresponding
numbers (see `differences`), or that the text around the numbers
differs. It exits 1 when any exit code or layout differs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_RUNTIME = re.compile(r'("runtime_ms": )' + _NUMBER.pattern)
_SMALL = 1e-8

EXP = ("--source", "exp")
GAUSS = ("--source", "gauss")
NARROW_INIT = "--init=-3.0,-2.999999999995,-2.99999999999,-2.999999999985"

# name -> argv of a solve whose --out document `verify` reads
DOCUMENTS = {
    "exp-n-bins": ("solve", *EXP, "--rate", "1.3", "--bias", "0.2", "--bins", "4"),
    "exp-ladder": ("solve", *EXP, "--rate", "0.8", "--bias", "0.4", "--ladder"),
    "gauss-two-bin": ("solve", *GAUSS, "--bias", "0.35", "--bins", "2"),
    "gauss-n-bins": ("solve", *GAUSS, "--mean", "0.3", "--std", "1.2",
                     "--bias", "0.15", "--bins", "5"),
    "gauss-n-bins-wide": ("solve", *GAUSS, "--bias", "0.02", "--bins", "12"),
    "gauss-ladder": ("solve", *GAUSS, "--bias", "0.3", "--ladder"),
    "gauss-ladder-neg": ("solve", *GAUSS, "--mean", "-1.0", "--std", "2.0",
                         "--bias", "-0.5", "--ladder", "--edges", "60",
                         "--margin", "6"),
}

# (name, argv); {dir} is filled in with the scratch directory
INVOCATIONS = [
    ("solve exp", ("solve", *EXP, "--rate", "1", "--bias", "0.2", "--bins", "4")),
    ("solve exp 1 bin", ("solve", *EXP, "--rate", "1", "--bias", "0.2", "--bins", "1")),
    ("solve exp two-bin", ("solve", *EXP, "--rate", "1", "--bias", "0", "--bins", "2")),
    ("solve exp 24 bins", ("solve", *EXP, "--rate", "0.7", "--bias", "0.01",
                           "--bins", "24")),
    ("solve exp csv", ("solve", *EXP, "--rate", "2.5", "--bias", "0.05",
                       "--bins", "6", "--format", "csv")),
    ("solve exp ladder", ("solve", *EXP, "--rate", "1.5", "--bias", "0.3", "--ladder")),
    # rate*bias = 1e-9: the common length is near sqrt(12e-9), not 2*bias
    ("solve exp ladder tiny bias", ("solve", *EXP, "--rate", "1", "--bias", "1e-9",
                                    "--ladder")),
    ("solve exp ladder csv", ("solve", *EXP, "--rate", "1", "--bias", "0.5",
                              "--ladder", "--edges", "30", "--format", "csv")),
    ("solve exp negative bias", ("solve", *EXP, "--rate", "1.3", "--bias", "-0.1",
                                 "--bins", "3")),
    ("solve exp exponent bias", ("solve", *EXP, "--rate", "1", "--bias", "-1e-3",
                                 "--bins", "2")),
    # u = 1.0010166, just past the Lambert series cut p = 1e-3
    ("solve exp near threshold", ("solve", *EXP, "--rate", "1",
                                  "--bias", "-0.4994917", "--bins", "2")),
    ("solve exp no equilibrium", ("solve", *EXP, "--rate", "1", "--bias", "-0.6",
                                  "--bins", "2")),
    ("solve exp collapse", ("solve", *EXP, "--rate", "1", "--bias", "-0.25",
                            "--bins", "3")),
    # u = rate*(2/rate + 2*bias) overflows to inf: lambert_w0_conjugate(inf)
    ("solve exp overflowing rate*bias", ("solve", *EXP, "--rate", "1e200",
                                         "--bias", "1e200", "--bins", "3")),
    # s = rate*length is 3.5e-100: each mean offset is 1.7e100, where
    # 1/rate - h(length) cancels to 0
    ("solve exp ladder tiny rate", ("solve", *EXP, "--rate", "1e-200",
                                    "--bias", "1", "--ladder", "--edges", "3")),
    ("solve gauss", ("solve", *GAUSS, "--mean", "0.3", "--std", "1.2",
                     "--bias", "0.15", "--bins", "5")),
    ("solve gauss 1 bin", ("solve", *GAUSS, "--bias", "0.1", "--bins", "1")),
    ("solve gauss two-bin", ("solve", *GAUSS, "--bias", "0.5", "--bins", "2")),
    ("solve gauss zero bias", ("solve", *GAUSS, "--bias", "0", "--bins", "6")),
    ("solve gauss 24 bins", ("solve", *GAUSS, "--bias", "0.02", "--bins", "24")),
    ("solve gauss csv", ("solve", *GAUSS, "--bias", "-0.1", "--bins", "4",
                         "--format", "csv")),
    ("solve gauss no convergence", ("solve", *GAUSS, "--bias", "0.1", "--bins", "6",
                                    "--max-iter", "1")),
    ("solve gauss failed certificate", ("solve", *GAUSS, "--bias", "0.1",
                                        "--bins", "4", "--cert-tol", "1e-20")),
    ("solve gauss ladder", ("solve", *GAUSS, "--bias", "0.3", "--ladder")),
    ("solve gauss ladder neg", ("solve", *GAUSS, "--mean", "1", "--std", "0.5",
                                "--bias", "-0.2", "--ladder", "--edges", "50",
                                "--margin", "4")),
    ("solve gauss ladder 200", ("solve", *GAUSS, "--bias", "0.25", "--ladder",
                                "--edges", "200")),
    ("solve gauss ladder csv", ("solve", *GAUSS, "--bias", "-0.3", "--ladder",
                                "--edges", "30", "--format", "csv")),
    ("solve gauss ladder max-iter", ("solve", *GAUSS, "--bias", "0.3", "--ladder",
                                     "--max-iter", "2")),
    # the outer bins span over 1e154 std, where an unbounded end offset
    # would overflow the slope exponent
    ("solve gauss far scale", ("solve", *GAUSS, "--std", "1e-160", "--bias", "1",
                               "--bins", "3")),
    ("usage: no rate", ("solve", *EXP, "--bias", "0.2", "--bins", "3")),
    ("usage: zero bins", ("solve", *EXP, "--rate", "1", "--bias", "0.2", "--bins", "0")),
    ("usage: negative std", ("solve", *GAUSS, "--std", "-1", "--bias", "0.2",
                             "--bins", "3")),
    ("usage: solve negative tol", ("solve", *GAUSS, "--bias", "0.2", "--bins", "3",
                                   "--tol", "-1")),
    ("usage: solve ladder margin", ("solve", *GAUSS, "--bias", "0.3", "--ladder",
                                    "--margin", "40")),
    # 2|bias|/std overflows to inf
    ("usage: gauss bias over std", ("solve", *GAUSS, "--std", "1e-300", "--bias",
                                    "1e10", "--bins", "2")),
    ("usage: unwritable out", ("solve", *EXP, "--rate", "1", "--bias", "0.2",
                               "--bins", "3", "--out", "{dir}/missing/out.json")),
    # 2/rate overflows: the scale 2/rate + 2*bias is not finite
    ("solve exp subnormal rate", ("solve", *EXP, "--rate", "1e-308", "--bias", "1",
                                  "--bins", "2")),
    ("sweep exp bias", ("sweep", *EXP, "--rate", "1.2", "--vary", "bias",
                        "--from", "-0.7", "--to", "0.5", "--steps", "50",
                        "--bins", "3", "--format", "json")),
    ("sweep exp bias csv", ("sweep", *EXP, "--rate", "1", "--vary", "bias",
                            "--from", "0.05", "--to", "0.4", "--steps", "8",
                            "--bins", "4")),
    ("sweep exp bins", ("sweep", *EXP, "--rate", "1", "--vary", "bins",
                        "--from", "1", "--to", "12", "--bias", "0.05",
                        "--format", "json")),
    ("sweep exp bins negative bias", ("sweep", *EXP, "--rate", "1.3", "--vary",
                                      "bins", "--from", "1", "--to", "5",
                                      "--bias", "-0.1", "--format", "json")),
    ("sweep gauss bias", ("sweep", *GAUSS, "--vary", "bias", "--from", "-0.4",
                          "--to", "0.4", "--steps", "9", "--bins", "4",
                          "--format", "json")),
    ("sweep gauss bias through zero", ("sweep", *GAUSS, "--vary", "bias", "--from",
                                       "-1.0", "--to", "0.2", "--steps", "7",
                                       "--format", "json")),
    ("sweep gauss bias csv", ("sweep", *GAUSS, "--mean", "2", "--std", "3",
                              "--vary", "bias", "--from", "0.1", "--to", "1.5",
                              "--steps", "6", "--bins", "3")),
    ("sweep gauss bins", ("sweep", *GAUSS, "--vary", "bins", "--from", "1",
                          "--to", "10", "--bias", "0.1", "--format", "json")),
    ("sweep gauss failed rows", ("sweep", *GAUSS, "--vary", "bias", "--from",
                                 "0.05", "--to", "0.3", "--steps", "4",
                                 "--bins", "5", "--max-iter", "2",
                                 "--format", "json")),
    ("sweep empty grid", ("sweep", *EXP, "--rate", "1", "--vary", "bins",
                          "--from", "5", "--to", "2", "--bias", "0.1")),
    # rate^2 underflows: the window variance divides by the rate twice
    ("sweep exp tiny rate", ("sweep", *EXP, "--rate", "1e-200", "--vary", "bias",
                             "--from", "1", "--to", "2", "--steps", "2",
                             "--bins", "2")),
    ("usage: sweep zero std", ("sweep", *GAUSS, "--std", "0", "--vary", "bias",
                               "--from", "0", "--to", "0.5", "--steps", "3")),
    ("sweep gauss bias over std", ("sweep", *GAUSS, "--std", "1e-300", "--vary",
                                   "bias", "--from", "1e9", "--to", "1e10",
                                   "--steps", "2")),
    ("dynamics exp lloyd", ("dynamics", *EXP, "--rate", "1", "--bias", "0.5",
                            "--bins", "4", "--init", "1,2,3", "--method", "lloyd")),
    ("dynamics exp fixed-point", ("dynamics", *EXP, "--rate", "1.3", "--bias", "0.2",
                                  "--bins", "4", "--init", "0.3,1.1,2.4",
                                  "--method", "fixed-point")),
    ("dynamics exp seeded", ("dynamics", *EXP, "--rate", "2", "--bias", "0.1",
                             "--bins", "5", "--seed", "11")),
    ("dynamics exp collapse", ("dynamics", *EXP, "--rate", "1", "--bias", "-0.4",
                               "--bins", "3", "--init", "1,2")),
    ("dynamics gauss seeded", ("dynamics", *GAUSS, "--bias", "0.2", "--bins", "3",
                               "--seed", "9", "--method", "fixed-point")),
    ("dynamics gauss lloyd", ("dynamics", *GAUSS, "--mean", "0.5", "--std", "2",
                              "--bias", "0.1", "--bins", "5",
                              "--init=-2,-0.5,1,2.5", "--method", "lloyd")),
    ("dynamics gauss csv", ("dynamics", *GAUSS, "--bias", "0.05", "--bins", "4",
                            "--init=-1,0,1", "--format", "csv")),
    ("dynamics gauss narrow start", ("dynamics", *GAUSS, "--bias", "0.1",
                                     "--bins", "5", NARROW_INIT)),
    ("usage: init and seed", ("dynamics", *EXP, "--rate", "1", "--bias", "0.1",
                              "--bins", "3", "--init", "1,2", "--seed", "3")),
    ("usage: dynamics 1 bin", ("dynamics", *GAUSS, "--bias", "0.1", "--bins", "1",
                               "--seed", "3")),
    ("usage: dynamics bad init", ("dynamics", *EXP, "--rate", "1", "--bias", "0.1",
                                  "--bins", "3", "--init", "1,0")),
    *[(f"verify {name}", ("verify", f"{{dir}}/{name}.json", "--seed", "7"))
      for name in DOCUMENTS],
    # sample counts that are not a multiple of monte_carlo_cost's block
    ("verify exp blocks", ("verify", "{dir}/exp-n-bins.json", "--seed", "7",
                           "--mc-samples", "100003")),
    ("verify gauss blocks", ("verify", "{dir}/gauss-n-bins.json", "--seed", "11",
                             "--mc-samples", "100003")),
    ("verify tampered", ("verify", "{dir}/tampered.json", "--seed", "7")),
    ("verify nan costs", ("verify", "{dir}/nan-costs.json", "--seed", "7")),
    ("verify inf costs", ("verify", "{dir}/inf-costs.json", "--seed", "7")),
    ("verify bad json", ("verify", "{dir}/bad.json")),
    ("usage: verify negative seed", ("verify", "{dir}/exp-n-bins.json", "--seed",
                                     "-1")),
]


def run_cli(src: str, argv, cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "cheaptalk.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=600)


def write_documents(src: str, workdir: str) -> None:
    """Solve documents from src for `verify`, one tampered, one with NaN
    costs, one with infinite costs, one not JSON."""
    for name, argv in DOCUMENTS.items():
        path = os.path.join(workdir, f"{name}.json")
        done = run_cli(src, (*argv, "--out", path), workdir)
        if done.returncode != 0:
            raise SystemExit(f"writing {name} exited {done.returncode}: {done.stderr}")
    with open(os.path.join(workdir, "exp-n-bins.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for cost in ("nan", "inf"):
        path = os.path.join(workdir, f"{cost}-costs.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(doc, costs={"decoder": cost, "encoder": cost}), fh)
    doc["equilibrium"]["edges"][1] = 1.1 * float(doc["equilibrium"]["edges"][1])
    with open(os.path.join(workdir, "tampered.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(os.path.join(workdir, "bad.json"), "w", encoding="utf-8") as fh:
        fh.write("{not json")


def differences(old: str, new: str) -> tuple[float, float] | None:
    """Worst relative difference between corresponding numbers of
    magnitude >= _SMALL, and worst absolute difference between any two;
    None when the text around the numbers differs. Below _SMALL most
    numbers are residuals, steps and edge movements, differences of
    nearly equal values whose relative change says nothing."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    rel = gap = 0.0
    for a, b in zip(map(float, _NUMBER.findall(old)),
                    map(float, _NUMBER.findall(new))):
        if a != b:
            size = max(abs(a), abs(b))
            gap = max(gap, abs(a - b))
            if size >= _SMALL:
                rel = max(rel, abs(a - b) / size)
    return rel, gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args()
    failed = identical = 0
    worst = [0.0, 0.0]
    with tempfile.TemporaryDirectory() as workdir:
        write_documents(args.old_src, workdir)
        for name, argv in INVOCATIONS:
            argv = [a.format(dir=workdir) for a in argv]
            old, new = (run_cli(src, argv, workdir)
                        for src in (args.old_src, args.new_src))
            texts = [_RUNTIME.sub(r"\1null", p.stdout) + "\n" + p.stderr
                     for p in (old, new)]
            same = texts[0] == texts[1]
            diff = differences(*texts)
            bad = old.returncode != new.returncode or diff is None
            failed += bad
            identical += same
            if diff is None:
                shown = "layout differs"
            else:
                worst = [max(w, d) for w, d in zip(worst, diff)]
                shown = f"worst rel {diff[0]:.2e}  abs {diff[1]:.2e}"
            print(f"{'!' if bad else ' '} {name:32s} exit {old.returncode}/"
                  f"{new.returncode}  {'identical' if same else 'differs  '}  "
                  f"{shown}")
    print(f"{len(INVOCATIONS)} invocations: {identical} byte-identical, "
          f"{failed} with a different exit code or layout; worst relative "
          f"difference {worst[0]:.2e} (numbers >= {_SMALL:g}), worst "
          f"absolute difference {worst[1]:.2e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
