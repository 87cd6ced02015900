"""cheaptalk benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from `src/`
without being installed. Workloads (see workloads.py and README.md):
cli_cold, gauss_solve, basin, verify_library.

--trace 0 reports the end-to-end metrics: `setup_s` (median of three
fresh-interpreter set-ups), `ops_per_s`, `op_ms.p50` and `peak_rss_mb`.
The timed ops run in whole rounds, so the mix of ops is the same in
every run: `ops_per_s` is the timed ops over their summed time, and
`op_ms.p50` the median of all timed op times.

Times are reported at reference speed. A shared host's speed drifts by
tens of percent over minutes, so each wall time is scaled by REF_MS over
the time of a fixed reference slice measured next to it: for an op, the
median of the REF_NEAREST slices the worker timed nearest to it (see
worker.py); for a set-up, the mean of SETUP_REFS process starts timed
just before it. No change to the package can move the slices. The raw
wall-clock figures are printed on the line before the result.

--trace 1 reports the per-layer metrics from a traced run, normalised
per round of ops, plus the import breakdown from `-X importtime`. The
last stdout line is the JSON result; the lines before it describe the
run, and a detailed record goes to `.perfbench/` in the checkout.

Every process this starts is waited for; all of them run with the
BLAS/OpenMP thread pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

from worker import startup_reference_ms  # imports neither numpy nor cheaptalk

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# the keys of workloads.BUILDERS, repeated so that this process never
# imports numpy or cheaptalk
WORKLOADS = ("cli_cold", "gauss_solve", "basin", "verify_library")
SETUPS = 3
SETUP_REFS = 2  # process starts timed just before each set-up
DEADLINE_S = 170.0
# the reference slices' times, in ms, on the host the benchmark was tuned
# on (see worker.py); reported times are wall times scaled to a host this fast
REF_MS = {"compute": 5.5, "startup": 160.0}
# each op is scaled by this many reference samples nearest to it: host
# speed shifts within seconds, so near samples track it better than the
# median of the whole run
REF_NEAREST = 5

LAYERS = ("import", "cli", "sources", "special", "exponential", "gaussian",
          "equilibrium", "dynamics", "bench")
FUNCTIONS = (
    "sources.std_interval_mean", "sources.truncated_mean",
    "sources.interval_prob", "sources.truncated_variance",
    "gaussian.solve_n_bins_gauss", "gaussian.solve_truncated_ladder",
    "gaussian.solve_two_bin_gauss",
    "equilibrium.certify", "equilibrium.decoder_cost",
    "equilibrium.decoder_best_response", "equilibrium.monte_carlo_cost",
    "dynamics.basin_probe", "dynamics.lloyd_method_i",
    "dynamics.fixed_point_iterate",
    "exponential.solve_n_bins", "exponential.empirical_max_bins",
    "special.find_root", "special.lambert_w0_conjugate",
    "cli.entry",
)
IMPORTS = {"cheaptalk": "import.total_ms", "numpy": "import.numpy_ms",
           "scipy.special": "import.scipy_special_ms",
           "scipy.integrate": "import.scipy_integrate_ms",
           "scipy.optimize": "import.scipy_optimize_ms"}
CLI_COMMANDS = ("solve", "sweep", "verify", "dynamics")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    [(name, "ms", "lower") for name in IMPORTS.values()]
    + [(f"cli.{c}.{m}", "ms", "lower") for c in CLI_COMMANDS
       for m in ("wall_ms", "post_import_ms")]
    + [(f"{f}.{m}", u, "lower") for f in FUNCTIONS
       for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("sources.std_interval_mean.elements", "count", "lower"),
       ("gaussian.solve_n_bins_gauss.iterations", "count", "lower"),
       ("gaussian.solve_n_bins_gauss.us_per_iteration", "us", "lower"),
       ("gaussian.solve_truncated_ladder.iterations", "count", "lower"),
       ("gaussian.solve_truncated_ladder.converged_frac", "frac", "higher"),
       ("gaussian.final_residual_max", "abs", "lower"),
       ("equilibrium.partitions_built", "count", "lower"),
       ("dynamics.runs", "count", "lower"),
       ("dynamics.iterations", "count", "lower"),
       ("dynamics.us_per_iteration", "us", "lower"),
       ("dynamics.converged", "count", "higher"),
       ("dynamics.collapsed", "count", "lower"),
       ("dynamics.max_iter", "count", "lower"),
       ("dynamics.converged_frac", "frac", "higher")]
    + [(f"layer.{layer}.self_share", "frac", "lower") for layer in LAYERS]
    + [("trace.overhead_frac", "frac", "lower"),
       ("trace.op_ms_per_round", "ms", "lower"),
       ("trace.rounds", "count", "higher"),
       ("trace.spans_dropped", "count", "lower"),
       ("trace.absent_targets", "count", "lower"),
       ("host.ref_ms", "ms", "lower"),
       ("check.failed_frac", "frac", "lower")]
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(argv, env, deadline):
    """Start a worker; return (seconds from spawn to READY, RESULT or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], env=env,
                            stdout=subprocess.PIPE, cwd=ROOT)
    chunks, ready = [], None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise BenchError(f"worker {argv[:2]} passed the deadline")
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if ready is None and b"READY\n" in b"".join(chunks[-2:]):
                    ready = time.perf_counter() - start
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {argv} exited {code} before finishing")
    result = None
    for line in b"".join(chunks).decode().splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return ready, result


def import_breakdown(env, deadline) -> dict:
    """`-X importtime` of `import cheaptalk`, in ms; nested tracked modules
    are subtracted from the module that pulled them in, so the figures add
    up instead of overlapping."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cheaptalk"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if done.returncode != 0:
        raise BenchError(f"import cheaptalk failed: {done.stderr.strip()[-300:]}")
    found = {}
    pending = []  # (depth, cumulative ms of tracked modules in this subtree)
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        nested = 0.0
        while pending and pending[-1][0] > depth:
            nested += pending.pop()[1]
        ms = int(cum) / 1e3
        module = name.strip()
        if module in IMPORTS:
            found[IMPORTS[module]] = ms if module == "cheaptalk" else ms - nested
            nested = ms
        pending.append((depth, nested))
    return {metric: found.get(metric, 0.0) for metric in IMPORTS.values()}


def at_reference(times, refs, kind, k=REF_NEAREST) -> list[float]:
    """Op times (ms) scaled to REF_MS[kind], each by the median of the `k`
    reference samples nearest to it in summed op time; `refs` holds
    (summed op time in s, ms) pairs in order, as worker.run_pass takes
    them."""
    where = [at for at, _ in refs]
    k = min(k, len(refs))
    out, clock = [], 0.0
    for ms in times:
        mid = clock + ms / 2e3
        clock += ms / 1e3
        lo = max(0, min(bisect.bisect(where, mid) - k // 2, len(refs) - k))
        out.append(ms * REF_MS[kind] / statistics.median(r for _, r in refs[lo:lo + k]))
    return out


def per_layer(result: dict, imports: list[dict], scaled: list[float]) -> dict:
    trace = result["trace"]
    rounds = result["rounds"]
    calls, self_s, incl_s, counts = (trace[k] for k in ("calls", "self_s", "incl_s", "counts"))
    out = {m: statistics.median(probe[m] for probe in imports) for m in IMPORTS.values()}

    kinds = [p["kind"] for p in result["params"]]
    for command in CLI_COMMANDS:
        wall = [ms for i, ms in enumerate(scaled)
                if kinds[i % len(kinds)].split("-")[0] == command]
        post = [n["post_import_ms"] for n in result["notes"]
                if n["kind"].split("-")[0] == command and "post_import_ms" in n]
        out[f"cli.{command}.wall_ms"] = statistics.median(wall) if wall else 0.0
        out[f"cli.{command}.post_import_ms"] = statistics.median(post) if post else 0.0

    for f in FUNCTIONS:
        out[f"{f}.calls"] = calls.get(f, 0) / rounds
        out[f"{f}.self_ms"] = self_s.get(f, 0.0) * 1e3 / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    out["sources.std_interval_mean.elements"] = counts.get("sources.std_interval_mean.elements", 0) / rounds
    its = counts.get("gaussian.solve_n_bins_gauss.iterations", 0)
    out["gaussian.solve_n_bins_gauss.iterations"] = its / rounds
    out["gaussian.solve_n_bins_gauss.us_per_iteration"] = ratio(
        incl_s.get("gaussian.solve_n_bins_gauss", 0.0) * 1e6, its)
    ladders = calls.get("gaussian.solve_truncated_ladder", 0)
    out["gaussian.solve_truncated_ladder.iterations"] = counts.get(
        "gaussian.solve_truncated_ladder.iterations", 0) / rounds
    out["gaussian.solve_truncated_ladder.converged_frac"] = ratio(
        counts.get("gaussian.solve_truncated_ladder.converged", 0), ladders)
    out["gaussian.final_residual_max"] = max(
        (n.get("residual", 0.0) for n in result["traced_notes"]
         if n["kind"].startswith("gauss-")), default=0.0)
    out["equilibrium.partitions_built"] = counts.get("equilibrium.partitions_built", 0) / rounds

    runs = calls.get("dynamics.lloyd_method_i", 0) + calls.get("dynamics.fixed_point_iterate", 0)
    dyn_its = counts.get("dynamics.iterations", 0)
    out["dynamics.runs"] = runs / rounds
    out["dynamics.iterations"] = dyn_its / rounds
    out["dynamics.us_per_iteration"] = ratio(
        (incl_s.get("dynamics.lloyd_method_i", 0.0)
         + incl_s.get("dynamics.fixed_point_iterate", 0.0)) * 1e6, dyn_its)
    for status in ("converged", "collapsed", "max_iter"):
        out[f"dynamics.{status}"] = counts.get(f"dynamics.{status}", 0) / rounds
    out["dynamics.converged_frac"] = ratio(counts.get("dynamics.converged", 0), runs)

    layer_s = dict.fromkeys(LAYERS, 0.0)
    for label, s in self_s.items():
        layer_s[label.split(".")[0]] += s
    total = sum(layer_s.values())
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = ratio(layer_s[layer], total)

    kind = result["ref_kind"]
    traced_ms = sum(at_reference(result["traced_times"], result["traced_ref_ms"], kind))
    out["trace.overhead_frac"] = traced_ms / sum(
        at_reference(result["times"], result["ref_ms"], kind)) - 1.0
    out["trace.op_ms_per_round"] = traced_ms / rounds
    out["trace.rounds"] = rounds
    out["trace.spans_dropped"] = trace["dropped"]
    out["trace.absent_targets"] = len(trace["absent"])
    out["host.ref_ms"] = statistics.median(ms for _, ms in result["ref_ms"] + result["traced_ref_ms"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cheaptalk", "__init__.py")):
        print(f"no cheaptalk sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = worker_env()
    out_dir = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp)

    def worker(k, *extra):
        workdir = os.path.join(tmp, str(k))
        os.mkdir(workdir)
        return spawn_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--workdir", workdir, *extra], env, deadline)

    try:
        if args.trace:
            imports = [import_breakdown(env, deadline) for _ in range(3)]
            spans = os.path.join(out_dir, f"spans-{args.workload}.json")
            _, result = worker(0, "--spans", spans)
        else:
            setups, raw_setups = [], []
            for k in range(SETUPS):
                ref = sum(startup_reference_ms(env, ROOT) for _ in range(SETUP_REFS)) / SETUP_REFS
                ready, result = worker(k, *(("--setup-only",) if k < SETUPS - 1 else ()))
                raw_setups.append(ready)
                setups.append(ready * REF_MS["startup"] / ref)
    except (BenchError, subprocess.SubprocessError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    times = result["times"]
    notes = result["notes"] + result.get("traced_notes", [])
    failures = [n for n in notes if n["error"] is not None]
    attempted = len(times) + len(result.get("traced_times", []))
    scaled = at_reference(times, result["ref_ms"], result["ref_kind"])
    if args.trace:
        metrics = per_layer(result, imports, scaled)
        metrics["check.failed_frac"] = len(failures) / attempted
        table = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / sum(scaled) * 1e3,
            "op_ms.p50": statistics.median(scaled),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        table = END_TO_END

    p90 = (f"op_ms.p90 {statistics.quantiles(scaled, n=10)[-1]:.3f}"
           if len(times) >= 100 else "op_ms.p90 omitted (fewer than 100 ops)")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(times)} timed ops in {result['rounds']} rounds of "
          f"{len(result['params'])}; {p90}")
    print(f"environment: python {result['versions']['python']}, numpy "
          f"{result['versions']['numpy']}, scipy {result['versions']['scipy']}, "
          f"nproc {len(os.sched_getaffinity(0))}, threads pinned to 1")
    if args.trace:
        print(f"absent trace targets: {result['trace']['absent'] or 'none'}")
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        kind = result["ref_kind"]
        print(f"raw wall clock: setup_s {statistics.median(raw_setups):.4f}, "
              f"ops_per_s {len(times) / result['op_s']:.4f}, "
              f"op_ms.p50 {statistics.median(times):.4f}; {kind} reference slice "
              f"{statistics.median(ms for _, ms in result['ref_ms']):.3f} ms "
              f"(median of {len(result['ref_ms'])}; REF_MS {REF_MS[kind]})")
    for rec in failures[:5]:
        print(f"FAILED {rec['kind']}: {rec['error']}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "metrics": metrics,
              **({"setups_s": setups, "raw_setups_s": raw_setups} if not args.trace
                 else {"imports": imports}),
              **result}
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
