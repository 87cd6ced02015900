"""Run one workload in a fresh interpreter; started by run.py.

Set-up (import cheaptalk, build the seeded inputs, one warm-up op of
each kind) ends with a `READY` line on stdout, which run.py times from
the spawn. Then, unless --setup-only:

- untraced: whole rounds of ops until their summed op time reaches
  --seconds;
- traced: whole rounds untraced until --seconds/2, then the same rounds
  again with the tracer installed.

Each op is checked right after it is timed, outside its timing. The
last stdout line is `RESULT <json>`.

Between ops, outside their timing, the worker times a fixed reference
slice at most every REF_GAP_S of op time: a slice of in-process work, or
for a workload whose ops start processes, a process start. The speed of
a shared host drifts by tens of percent over seconds to minutes; run.py
scales each op's time by the reference times taken near it, which
cancels that drift. Neither slice runs cheaptalk code, so no change to
the package can move them.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

REF_GAP_S = 0.1


def compute_reference_ms() -> float:
    """Time one fixed slice of in-process work in ms: a pure-Python loop,
    then masked numpy and scipy.special calls on one-element arrays, then
    the same on 64-element arrays; the mix of the package's hot paths."""
    import numpy as np
    from scipy import special

    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * i % 7
    for i in range(150):
        a = np.atleast_1d(np.asarray(1e-3 * i - 0.2))
        b = np.atleast_1d(np.asarray(1e-3 * i + 0.7))
        out = np.empty(a.shape)
        right = (a >= 0.0) & ~np.isinf(b)
        if right.any():
            d = 0.5 * (b[right] - a[right]) * (b[right] + a[right])
            out[right] = -np.expm1(-d) / (special.erfcx(a[right])
                                          - np.exp(-d) * special.erfcx(b[right]))
        if (~right).any():
            out[~right] = special.erf(b[~right]) - special.erf(a[~right])
        acc += out[0]
    x = np.linspace(-3.0, 3.0, 64)
    for _ in range(50):
        acc += special.ndtr(x)[0] + np.exp(-x * x).sum()
    return (time.perf_counter() - start) * 1e3


def startup_reference_ms(env=None, cwd=None) -> float:
    """Time, in ms, a fresh interpreter that imports numpy and exits.
    Process starts slow down unlike in-process work when the host is
    busy, so ops and set-ups that start processes are scaled by this."""
    start = time.perf_counter()
    # a pipe lets run() see the exit at EOF; without one, run() with a
    # timeout polls for the exit in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, timeout=60, capture_output=True)
    return (time.perf_counter() - start) * 1e3


REFERENCES = {"compute": compute_reference_ms, "startup": startup_reference_ms}


def reference_kind(workload) -> str:
    return "startup" if workload.spawns else "compute"


def peak_rss_kb(workload) -> int:
    who = resource.RUSAGE_CHILDREN if workload.spawns else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def run_pass(workload, budget_s, rounds, tracer, refs):
    """Run whole rounds; stop after `rounds`, or once `budget_s` of op time
    has accumulated when `rounds` is None. Reference times are appended to
    `refs` as (summed op time so far in s, ms), one after any op that ends
    REF_GAP_S or more of op time after the last one, so they are spread
    evenly over the timed ops.

    Returns every op time in ms, in run order; a note (time, error and
    checked facts) for each op of the first round and each failed op; the
    rounds run; their summed op time; and the peak RSS once the first round
    is done. The facts repeat every round, so keeping them once keeps the
    process's memory from growing with the number of ops run. The allocator
    still grows the heap slowly over a long loop (about 300 bytes per op on
    verify_library), so peak RSS is read after one round, when every op has
    run, rather than at the end, where a faster program would read higher.
    """
    reference = REFERENCES[reference_kind(workload)]
    times, notes = [], []
    total = 0.0
    done = 0
    last_ref = -REF_GAP_S
    while (done < rounds) if rounds is not None else (done == 0 or total < budget_s):
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op_id = len(times)
                tracer.enabled = True
                frame = tracer.open("bench." + op.kind)
            error = None
            start = time.perf_counter()
            try:
                result = op.run(tracer)
            except Exception as exc:  # an op outside its contract is a failure
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.close(frame, end)
                tracer.enabled = False
            total += end - start
            facts = {}
            if error is None:
                try:
                    error, facts = op.check(result, done == 0)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            times.append((end - start) * 1e3)
            if done == 0 or error is not None:
                notes.append({"kind": op.kind, "round": done, "index": index,
                              "ms": times[-1], "error": error, **facts})
            if total - last_ref >= REF_GAP_S:
                refs.append((total, reference()))
                last_ref = total
        if done == 0:
            peak = peak_rss_kb(workload)
        done += 1
    return times, notes, done, total, peak


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed, args.workdir)
    for op in workload.warmup():
        op.run(None)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy

    out = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "params": [{"kind": op.kind, **op.params} for op in workload.ops],
    }
    refs = []
    times, notes, rounds, total, peak = run_pass(
        workload, args.seconds / 2 if args.trace else args.seconds, None, None, refs)
    out.update(times=times, notes=notes, rounds=rounds, op_s=total, peak_rss_kb=peak,
               ref_kind=reference_kind(workload), ref_ms=refs)
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced_refs = []
        times, notes, _, total, _ = run_pass(workload, None, rounds, tracer, traced_refs)
        if args.spans:
            tracer.dump(args.spans)
        trace = tracer.export()
        del trace["spans"]
        out.update(traced_times=times, traced_notes=notes, traced_op_s=total,
                   traced_ref_ms=traced_refs, trace=trace)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
