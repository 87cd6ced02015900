"""Command-line front end: solve, sweep, verify, dynamics.

Exit statuses are part of the contract: 0 success, 1 usage or parse
error, 2 solver-reported non-existence, collapse, or non-convergence,
3 verification failure. Dynamics outcomes are data, so that command
exits 0 whenever the configuration was valid.

`entry` owns the two rules every subcommand shares. A DomainError that
escapes a subcommand is a usage error: it exits 1 with that subcommand's
usage line. And one writer renders each document: CSV rows under
`--format csv`, else JSON closed by a `meta` block timed from `entry`,
written to `--out` (a path it cannot write is a usage error too) or to
stdout.

All floating-point output carries 17 significant digits, enough to
reconstruct the exact double. Infinite values are serialized as the
strings "inf"/"-inf" so documents stay inside strict JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from typing import Any

import numpy as np

from . import __version__
from .equilibrium import (
    Partition,
    certify,
    decoder_best_response,
    decoder_cost,
    monte_carlo_cost,
)
from .errors import (
    BinCollapseError,
    DomainError,
    EdgeOrderingError,
    NoInformativeEquilibriumError,
    NonConvergenceError,
)
from .sources import EXPONENTIAL, GAUSSIAN, SourceModel

__all__ = ["entry"]


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    """17-significant-digit decimal; lossless for doubles."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _render_json(obj: Any, ind: int = 0) -> str:
    pad = "  " * ind
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_render_json(v, ind + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {_render_json(v, ind + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return _fmt(x)
        return json.dumps(_fmt(x))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cell(v: Any) -> str:
    """Flatten one value into a CSV cell; sequences join with ';'."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(float(v))
    if isinstance(v, (list, tuple)):
        return ";".join(_cell(x) for x in v)
    return str(v)


def _rows_to_csv(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in header])
    return buf.getvalue().rstrip("\n")


def _write(args: argparse.Namespace, doc: dict, note: str | None = None,
           header: list[str] | None = None, rows: list[dict] | None = None
           ) -> None:
    """Write a command's result to --out, or to stdout: the rows under
    header as CSV when --format is csv, else doc as JSON closed by its
    meta block (tool version, runtime since entry parsed the arguments,
    and note if given)."""
    if args.format == "csv":
        text = _rows_to_csv(header, rows)
    else:
        meta = {
            "tool_version": __version__,
            "runtime_ms": round((time.perf_counter() - args.started) * 1000.0, 3),
        }
        if note is not None:
            meta["note"] = note
        text = _render_json({**doc, "meta": meta})
    if args.out is None:
        print(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as err:
        args.parser.error(f"cannot write {args.out}: {err.strerror}")


def _parse_flag(v: Any) -> bool:
    """Accept a JSON boolean only."""
    if not isinstance(v, bool):
        raise ValueError(f"not a serialized boolean: {v!r}")
    return v


def _parse_indices(v: Any) -> tuple[int, ...]:
    """Accept a JSON list of integers only."""
    if not isinstance(v, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in v):
        raise ValueError(f"not a serialized list of integers: {v!r}")
    return tuple(v)


def _parse_number(v: Any) -> float:
    """Accept JSON numbers plus the string forms 'inf'/'-inf'/'nan'."""
    if isinstance(v, str):
        token = v.strip().lower()
        if token == "inf":
            return math.inf
        if token == "-inf":
            return -math.inf
        if token == "nan":
            return math.nan
        raise ValueError(f"not a serialized number: {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"not a serialized number: {v!r}")
    return float(v)


# ---------------------------------------------------------------------------
# argument plumbing


# argparse's own matcher misses exponent forms, so it reads "-1e-3" as an
# option string and leaves the option before it without a value
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures follow the exit contract (1)
    and which reads any negative number as an option's value."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True, choices=("exp", "gauss"),
                   help="source family: exponential or Gaussian")
    p.add_argument("--rate", type=float,
                   help="exponential rate parameter (required with --source exp)")
    p.add_argument("--mean", type=float, default=0.0,
                   help="Gaussian mean (default 0)")
    p.add_argument("--std", type=float, default=1.0,
                   help="Gaussian standard deviation (default 1)")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    """Iteration settings of the Gaussian n-bin and ladder solves (solver
    name gauss-fixed-point / gauss-ladder): Newton's method, with short
    blocks of damped fixed-point steps to restart it where it breaks down."""
    p.add_argument("--damping", type=float, default=0.5,
                   help="gauss: damping of the restart steps (default 0.5)")
    p.add_argument("--max-iter", type=int, default=100_000,
                   help="gauss: cap on Newton and restart steps together "
                        "(default 100000)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="gauss: bound on the last step's largest edge "
                        "movement (default 1e-10)")


def _make_source(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SourceModel:
    if args.source == "exp":
        if args.rate is None:
            parser.error("--rate is required with --source exp")
        return SourceModel.exponential(args.rate)
    return SourceModel.gaussian(args.mean, args.std)


# ---------------------------------------------------------------------------
# solve


# solver failures, a subclass before its base: (error class, sweep
# status, solve stderr prefix); a DomainError is misuse, not among them
_FAILURES = (
    (NoInformativeEquilibriumError, "no-informative-equilibrium",
     "no informative equilibrium"),
    (BinCollapseError, "collapse", "bin collapse"),
    (NonConvergenceError, "non-convergence", "iteration failed"),
    (EdgeOrderingError, "edge-ordering", "iteration failed"),
)


def _failure(err: Exception) -> tuple[str, str]:
    """(sweep status, solve stderr prefix) of err; re-raises any error
    that is not a solver failure."""
    for kind, status, prefix in _FAILURES:
        if isinstance(err, kind):
            return status, prefix
    raise err


def _certificate_doc(cert) -> dict:
    doc = {
        "residuals": list(cert.residuals),
        "max_abs_residual": cert.max_abs_residual,
        "tolerance": cert.tolerance,
        "verdict": cert.verdict,
    }
    if cert.excluded_edges:
        doc["excluded_edges"] = list(cert.excluded_edges)
    return doc


def _solve_bins(source: SourceModel, bias: float, n_bins: int,
                args: argparse.Namespace) -> tuple[str, Partition]:
    """The n-bin equilibrium and the name of the solver that found it.
    The Gaussian solver is Newton with damped fixed-point restarts; it
    keeps the name gauss-fixed-point, which documents already carry."""
    if source.kind == EXPONENTIAL:
        from .exponential import solve_n_bins
        return "exp-n-bins", solve_n_bins(source.rate, bias, n_bins)
    from .gaussian import solve_n_bins_gauss, solve_two_bin_gauss
    if n_bins == 2:
        return "gauss-two-bin", solve_two_bin_gauss(source.mean, source.std, bias)
    return "gauss-fixed-point", solve_n_bins_gauss(
        source.mean, source.std, bias, n_bins,
        damping=args.damping, max_iter=args.max_iter, tol=args.tol)


_REPORT_COLUMNS = ["edges", "centroids", "lengths", "residuals",
                   "max_abs_residual", "tolerance", "verdict", "excluded_edges",
                   "decoder_cost", "encoder_cost"]


def _report(partition: Partition, cert) -> dict:
    """Flat fields of a solved partition, keyed as _REPORT_COLUMNS (the
    excluded_edges key only when some edge is excluded); the solve
    document, the solve CSV row and each sweep row are cut from it."""
    costs = decoder_cost(partition)
    return {
        "edges": list(partition.edges),
        "centroids": list(decoder_best_response(partition).centroids),
        "lengths": list(partition.lengths),
        **_certificate_doc(cert),
        "decoder_cost": costs.decoder_cost,
        "encoder_cost": costs.encoder_cost,
    }


def _cmd_solve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    source = _make_source(args, parser)
    bias = args.bias
    if args.bins is not None and args.bins < 1:
        parser.error("--bins must be at least 1")
    note = None
    converged = True
    try:
        if not args.ladder:
            solver, partition = _solve_bins(source, bias, args.bins, args)
            cert = certify(partition, tol=args.cert_tol)
            if bias == 0.0 and source.kind == GAUSSIAN:
                note = ("bias 0 is the classical minimum-distortion quantizer, "
                        "included as a reference point")
        elif source.kind == EXPONENTIAL:
            from .exponential import decoder_cost_infinite, infinite_equilibrium
            n_edges = args.edges if args.edges is not None else 64
            partition = infinite_equilibrium(source.rate, bias, n_edges)
            cert = certify(partition, tol=args.cert_tol,
                           excluded_edges=(n_edges,))
            solver = "exp-equal-ladder"
            note = ("equal-length window of the infinite-bin equilibrium; "
                    f"its decoder cost is "
                    f"{_fmt(decoder_cost_infinite(source.rate, bias))}")
        else:
            from .gaussian import solve_truncated_ladder
            n_edges = args.edges if args.edges is not None else 40
            result = solve_truncated_ladder(
                source, bias, n_edges=n_edges, margin=args.margin,
                damping=args.damping, max_iter=args.max_iter,
                tol=args.tol, cert_tol=args.cert_tol)
            partition, cert = result.partition, result.certificate
            converged = result.converged
            solver = "gauss-ladder"
            note = (f"truncated ladder, {result.iterations} iterations, "
                    f"smallest full Newton step {_fmt(result.final_change)}"
                    + ("" if result.converged else "; did not converge"))
    except Exception as err:
        sys.stderr.write(f"{_failure(err)[1]}: {err}\n")
        return 2

    report = _report(partition, cert)
    doc = {
        "source": source.describe(),
        "bias": bias,
        "solver": solver,
        "equilibrium": {
            "edges": report["edges"],
            "centroids": report["centroids"],
            "lengths": report["lengths"],
            "certificate": _certificate_doc(cert),
        },
        "costs": {"decoder": report["decoder_cost"],
                  "encoder": report["encoder_cost"]},
    }
    _write(args, doc, note,
           ["kind", "rate", "mean", "std", "bias", "solver", *_REPORT_COLUMNS],
           [{**source.describe(), "bias": bias, "solver": solver, **report}])
    if not cert.verdict:
        sys.stderr.write(
            f"certificate failed: max |residual| {_fmt(cert.max_abs_residual)} "
            f"exceeds {_fmt(cert.tolerance)}\n")
        return 2
    if not converged:
        sys.stderr.write("ladder iteration stopped before tol\n")
        return 2
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_row(source: SourceModel, bias: float, n_bins: int,
               args: argparse.Namespace) -> dict:
    row: dict[str, Any] = {"bias": bias, "bins": n_bins, "status": "ok"}
    try:
        if source.kind == EXPONENTIAL:
            from .exponential import (
                decoder_cost_infinite, empirical_max_bins, fixed_point_length)
            if bias < 0.0:
                row["max_bins"] = empirical_max_bins(source.rate, bias)
            else:
                row["max_bins"] = math.inf
            if bias > 0.0:
                row["fixed_point_length"] = fixed_point_length(source.rate, bias)
                row["decoder_cost_infinite"] = decoder_cost_infinite(source.rate, bias)
        _, partition = _solve_bins(source, bias, n_bins, args)
    except Exception as err:  # status column carries the failure
        row["status"] = ("invalid" if isinstance(err, DomainError)
                         else _failure(err)[0])
        return row
    row.update(_report(partition, certify(partition, tol=args.cert_tol)))
    return row


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    source = _make_source(args, parser)
    if args.vary == "bias":
        if args.steps is None:
            parser.error("--steps is required when varying bias")
        if args.steps < 1:
            parser.error("--steps must be at least 1")
        # linspace can leave a few ulps where the grid means 0, and an
        # exponential row at bias -1e-16 walks some 1e8 bins for max_bins
        zero = 4.0 * sys.float_info.epsilon * max(abs(args.lo), abs(args.hi))
        biases = [0.0 if abs(v) <= zero < math.inf else float(v)
                  for v in np.linspace(args.lo, args.hi, args.steps)]
        n_fixed = args.bins if args.bins is not None else 2
        if n_fixed < 1:
            parser.error("--bins must be at least 1")
        grid = [(b, n_fixed) for b in biases]
    else:
        if args.bias is None:
            parser.error("--bias is required when varying bins")
        for v in (args.lo, args.hi):
            if not float(v).is_integer():
                parser.error("--from/--to must be integers when varying bins")
        lo, hi = int(args.lo), int(args.hi)
        if hi < lo:
            parser.error("empty grid: --to is below --from")
        counts = list(range(lo, hi + 1))
        if args.steps is not None and args.steps != len(counts):
            parser.error(
                f"--steps {args.steps} disagrees with the {len(counts)} "
                "integer bin counts in [--from, --to]")
        if any(c < 1 for c in counts):
            parser.error("bin counts must be at least 1")
        grid = [(args.bias, c) for c in counts]

    rows = [
        {"index": i, **_sweep_row(source, b, n, args)}
        for i, (b, n) in enumerate(grid)
    ]
    header = ["index", "bias", "bins", "status"]
    if source.kind == EXPONENTIAL:
        header.append("max_bins")
        if any("fixed_point_length" in r for r in rows):
            header += ["fixed_point_length", "decoder_cost_infinite"]
    header += [c for c in _REPORT_COLUMNS
               if c not in ("tolerance", "excluded_edges")]
    _write(args, {
        "source": source.describe(),
        "vary": args.vary,
        "rows": [{k: r.get(k) for k in header} for r in rows],
    }, header=header, rows=rows)
    return 0


# ---------------------------------------------------------------------------
# verify


def _load_partition(doc: dict) -> tuple[SourceModel, Partition, dict]:
    src = doc["source"]
    kind = src["kind"]
    if kind == EXPONENTIAL:
        source = SourceModel.exponential(_parse_number(src["rate"]))
    elif kind == GAUSSIAN:
        source = SourceModel.gaussian(
            _parse_number(src["mean"]), _parse_number(src["std"]))
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    bias = _parse_number(doc["bias"])
    eq = doc["equilibrium"]
    edges = tuple(_parse_number(v) for v in eq["edges"])
    return source, Partition(edges, source, bias), eq["certificate"]


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.mc_samples < 2:
        parser.error("--mc-samples must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    try:
        with open(args.document, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        source, partition, cert_doc = _load_partition(doc)
        stored_tol = _parse_number(cert_doc["tolerance"])
        stored_verdict = _parse_flag(cert_doc["verdict"])
        excluded = _parse_indices(cert_doc.get("excluded_edges", []))
        stored_decoder = _parse_number(doc["costs"]["decoder"])
        stored_encoder = _parse_number(doc["costs"]["encoder"])
        cert = certify(partition, tol=stored_tol, excluded_edges=excluded)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        sys.stderr.write(f"cannot parse result document: {err}\n")
        return 1

    failures: list[str] = []
    if not stored_verdict:
        failures.append("stored certificate already reports failure")
    if not cert.verdict:
        failures.append(
            f"recomputed max |residual| {_fmt(cert.max_abs_residual)} exceeds "
            f"tolerance {_fmt(stored_tol)}")

    costs = decoder_cost(partition)
    for label, stored, fresh in (("decoder", stored_decoder, costs.decoder_cost),
                                 ("encoder", stored_encoder, costs.encoder_cost)):
        # a stored NaN fails every comparison; the bound scales with the
        # fresh cost, so a stored inf cannot widen it to inf
        if not abs(fresh - stored) <= 1e-12 * max(1.0, abs(fresh)):
            failures.append(
                f"stored {label} cost {_fmt(stored)} does not match "
                f"recomputed {_fmt(fresh)}")

    estimate, se = monte_carlo_cost(partition, args.mc_samples, args.seed)
    gap = abs(estimate - costs.decoder_cost)
    if gap > 4.0 * se:
        failures.append(
            f"Monte Carlo decoder cost {_fmt(estimate)} is {_fmt(gap / se)} "
            "standard errors from the closed form (limit 4)")

    _write(args, {
        "document": args.document,
        "verified": not failures,
        "certificate": _certificate_doc(cert),
        "costs": {"decoder": costs.decoder_cost, "encoder": costs.encoder_cost},
        "monte_carlo": {
            "samples": args.mc_samples,
            "seed": args.seed,
            "estimate": estimate,
            "standard_error": se,
        },
        "failures": failures,
    })
    if failures:
        for f in failures:
            sys.stderr.write(f"verification failure: {f}\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# dynamics


def _dynamics_init(source: SourceModel, args: argparse.Namespace,
                   parser: argparse.ArgumentParser) -> Partition:
    lo, hi = source.support
    if args.init is not None:
        try:
            interior = tuple(float(tok) for tok in args.init.split(","))
        except ValueError:
            parser.error(f"--init must be comma-separated numbers, got {args.init!r}")
        if len(interior) != args.bins - 1:
            parser.error(
                f"--init needs {args.bins - 1} interior edges for "
                f"--bins {args.bins}, got {len(interior)}")
        return Partition((lo, *interior, hi), source, args.bias)
    from .dynamics import _random_starts
    (edges,) = _random_starts(source, args.bins, 1,
                              np.random.default_rng(args.seed))
    return Partition(edges, source, args.bias)


def _cmd_dynamics(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    source = _make_source(args, parser)
    if args.bins < 2:
        parser.error("--bins must be at least 2 for dynamics runs")
    if (args.init is None) == (args.seed is None):
        parser.error("provide exactly one of --init or --seed")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    from .dynamics import fixed_point_iterate, lloyd_method_i
    init = _dynamics_init(source, args, parser)
    if args.method == "lloyd":
        trace = lloyd_method_i(source, args.bias, init, args.max_iter, args.tol)
    else:
        trace = fixed_point_iterate(source, args.bias, init, args.damping,
                                    args.max_iter, args.tol)

    outcome = {
        "status": trace.outcome.status,
        "iteration": trace.outcome.iteration,
        "bin_index": trace.outcome.bin_index,
    }
    doc: dict[str, Any] = {
        "source": source.describe(),
        "bias": args.bias,
        "bins": args.bins,
        "method": args.method,
        "init_edges": list(init.edges),
        "outcome": outcome,
        "iterations": trace.iterations,
        "recorded_steps": list(trace.recorded_steps),
        "residual_history": list(trace.residual_history),
    }
    if trace.outcome.status == "converged":
        final = trace.final_partition
        cert = certify(final, tol=args.tol * 10.0)
        doc["final"] = {
            "edges": list(final.edges),
            "centroids": list(decoder_best_response(final).centroids),
            "certificate": _certificate_doc(cert),
        }
    _write(args, doc, header=["step", "residual", "edges", "status"], rows=[
        {"step": s, "residual": r, "edges": p.edges,
         "status": trace.outcome.status}
        for s, r, p in zip(trace.recorded_steps, trace.residual_history,
                           trace.iterates)
    ])
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    top = _Parser(
        prog="cheaptalk",
        description=("Compute, sweep, verify, and iterate quantized "
                     "cheap-talk equilibria."))
    top.add_argument("--version", action="version",
                     version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute one equilibrium")
    _add_source_args(solve)
    solve.add_argument("--bias", type=float, required=True)
    what = solve.add_mutually_exclusive_group(required=True)
    what.add_argument("--bins", type=int, help="number of quantization bins")
    what.add_argument("--ladder", action="store_true",
                      help="equal-length (exp) or truncated (gauss) "
                           "infinite-bin ladder")
    solve.add_argument("--edges", type=int,
                       help="ladder edge count (default: 64 exp, 40 gauss)")
    solve.add_argument("--margin", type=int, default=5,
                       help="gauss ladder: edges excluded near the cut")
    _add_solver_args(solve)
    solve.add_argument("--cert-tol", type=float, default=1e-8)
    solve.add_argument("--format", choices=("json", "csv"), default="json")
    solve.add_argument("--out", help="output path (default: stdout)")
    solve.set_defaults(run=_cmd_solve, parser=solve)

    sweep = sub.add_parser("sweep", help="solve across a parameter grid")
    _add_source_args(sweep)
    sweep.add_argument("--vary", choices=("bias", "bins"), required=True)
    sweep.add_argument("--from", dest="lo", type=float, required=True)
    sweep.add_argument("--to", dest="hi", type=float, required=True)
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--bias", type=float,
                       help="fixed bias when varying bins")
    sweep.add_argument("--bins", type=int,
                       help="fixed bin count when varying bias (default 2)")
    _add_solver_args(sweep)
    sweep.add_argument("--cert-tol", type=float, default=1e-8)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out")
    sweep.set_defaults(run=_cmd_sweep, parser=sweep)

    verify = sub.add_parser("verify", help="re-check a solve result document")
    verify.add_argument("document", help="path to a solve JSON document")
    verify.add_argument("--seed", type=int, required=True,
                        help="Monte Carlo seed")
    verify.add_argument("--mc-samples", type=int, default=1_000_000)
    verify.add_argument("--out")
    verify.set_defaults(run=_cmd_verify, parser=verify, format="json")

    dyn = sub.add_parser("dynamics", help="run best-response dynamics")
    _add_source_args(dyn)
    dyn.add_argument("--bias", type=float, required=True)
    dyn.add_argument("--bins", type=int, required=True)
    dyn.add_argument("--method", choices=("lloyd", "fixed-point"),
                     default="lloyd")
    dyn.add_argument("--damping", type=float, default=0.5)
    dyn.add_argument("--max-iter", type=int, default=10_000)
    dyn.add_argument("--tol", type=float, default=1e-10)
    dyn.add_argument("--init",
                     help="comma-separated interior edges (deterministic start)")
    dyn.add_argument("--seed", type=int,
                     help="random start: sorted uniforms between the 0.001 "
                          "and 0.999 quantiles")
    dyn.add_argument("--format", choices=("json", "csv"), default="json")
    dyn.add_argument("--out")
    dyn.set_defaults(run=_cmd_dynamics, parser=dyn)

    return top


def entry(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.started = time.perf_counter()
    # each command reports usage errors through its own subparser, and a
    # DomainError from the library is one
    try:
        return args.run(args, args.parser)
    except DomainError as err:
        args.parser.error(str(err))


if __name__ == "__main__":
    sys.exit(entry())
