"""Span tracer that measures cheaptalk's layers from outside the package.

`Tracer.install` imports the target modules and replaces each target
function with a wrapper wherever a cheaptalk module (or the package
itself) binds that exact function object, so bindings made by
`from .sources import _std_interval_mean` in other modules are caught
as well. Methods are wrapped on their class. A
target that no longer exists is recorded in `absent` and skipped.

Spans (id, label, start, end, parent id, op id) are kept in memory up to
a cap and written out by `dump`; per-label calls, self time and
inclusive time are aggregated exactly as each span closes, so the cap
only limits the span file, never the metrics. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module under cheaptalk, attribute path, span label)
TARGETS = (
    ("sources", "_std_interval_mean", "sources.std_interval_mean"),
    ("sources", "SourceModel.interval_prob", "sources.interval_prob"),
    ("sources", "SourceModel.truncated_mean", "sources.truncated_mean"),
    ("sources", "SourceModel.truncated_variance", "sources.truncated_variance"),
    ("special", "find_root", "special.find_root"),
    ("special", "lambert_w0_conjugate", "special.lambert_w0_conjugate"),
    ("exponential", "solve_two_bin", "exponential.solve_two_bin"),
    ("exponential", "solve_n_bins", "exponential.solve_n_bins"),
    ("exponential", "empirical_max_bins", "exponential.empirical_max_bins"),
    ("exponential", "fixed_point_length", "exponential.fixed_point_length"),
    ("exponential", "infinite_equilibrium", "exponential.infinite_equilibrium"),
    ("exponential", "decoder_cost_infinite", "exponential.decoder_cost_infinite"),
    ("gaussian", "solve_two_bin_gauss", "gaussian.solve_two_bin_gauss"),
    ("gaussian", "solve_n_bins_gauss", "gaussian.solve_n_bins_gauss"),
    ("gaussian", "solve_truncated_ladder", "gaussian.solve_truncated_ladder"),
    ("equilibrium", "decoder_best_response", "equilibrium.decoder_best_response"),
    ("equilibrium", "certify", "equilibrium.certify"),
    ("equilibrium", "decoder_cost", "equilibrium.decoder_cost"),
    ("equilibrium", "monte_carlo_cost", "equilibrium.monte_carlo_cost"),
    ("dynamics", "basin_probe", "dynamics.basin_probe"),
    ("dynamics", "lloyd_method_i", "dynamics.lloyd_method_i"),
    ("dynamics", "fixed_point_iterate", "dynamics.fixed_point_iterate"),
    ("cli", "entry", "cli.entry"),
)

# Counted but not spanned: a span per Partition would dwarf the work.
COUNTERS = (
    ("equilibrium", "Partition.__post_init__", "equilibrium.partitions_built"),
)


def _kernel_call(tracer: "Tracer", args: tuple) -> None:
    # Scalars have no .size; arrays passed to the kernel share one shape
    # or broadcast a scalar against an array.
    tracer.counts["sources.std_interval_mean.elements"] += max(
        getattr(args[0], "size", 1), getattr(args[1], "size", 1))
    # solve_n_bins_gauss evaluates the kernel exactly once per iteration
    if len(tracer.stack) > 1 and tracer.stack[-2][1] == "gaussian.solve_n_bins_gauss":
        tracer.counts["gaussian.solve_n_bins_gauss.iterations"] += 1


def _ladder_result(tracer: "Tracer", result) -> None:
    tracer.counts["gaussian.solve_truncated_ladder.iterations"] += result.iterations
    tracer.counts["gaussian.solve_truncated_ladder.converged"] += int(result.converged)


def _dynamics_trace(tracer: "Tracer", result) -> None:
    tracer.counts["dynamics.iterations"] += result.iterations
    tracer.counts["dynamics." + result.outcome.status] += 1


BEFORE = {"sources.std_interval_mean": _kernel_call}
AFTER = {
    "gaussian.solve_truncated_ladder": _ladder_result,
    "dynamics.lloyd_method_i": _dynamics_trace,
    "dynamics.fixed_point_iterate": _dynamics_trace,
}


class Tracer:
    """In-memory span recorder; recording happens only while `enabled`."""

    SPAN_CAP = 50_000  # spans kept for the span file, about 4 MB of JSON

    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.stack: list[list] = []  # open frames: [id, label, start, child_s]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.stats: dict[str, list] = {}  # label -> [calls, self_s, incl_s]
        self.root_s = 0.0  # summed duration of spans without a parent
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    # -- spans --------------------------------------------------------------

    def open(self, label: str, start: float | None = None) -> list:
        frame = [self.next_id, label,
                 time.perf_counter() if start is None else start, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, end: float | None = None) -> None:
        end = time.perf_counter() if end is None else end
        popped = self.stack.pop()
        assert popped is frame, "spans must close in LIFO order"
        span_id, label, start, child_s = frame
        dur = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent_id = parent[0]
        else:
            self.root_s += dur
            parent_id = None
        stat = self.stats.get(label)
        if stat is None:
            stat = self.stats[label] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += dur - child_s
        stat[2] += dur
        self._keep((span_id, label, start, end, parent_id, self.op_id))

    def _keep(self, span: tuple) -> None:
        if len(self.spans) < self.SPAN_CAP:
            self.spans.append(span)
        else:
            self.dropped += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, label: str, fn):
        before, after = BEFORE.get(label), AFTER.get(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.open(label)
            if before is not None:
                before(tracer, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def _count(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Import the target modules and wrap every target found."""
        owners = {}
        for modname, _, _ in TARGETS + COUNTERS:
            try:
                owners[modname] = importlib.import_module("cheaptalk." + modname)
            except ImportError:
                owners[modname] = None
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cheaptalk"
                                         or name.startswith("cheaptalk."))]
        for table, make in ((TARGETS, self._wrap), (COUNTERS, self._count)):
            for modname, path, label in table:
                owner = owners[modname]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.absent.append(label)
                    continue
                wrapper = make(label, original)
                if outer:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name in [k for k, v in vars(mod).items() if v is original]:
                        setattr(mod, name, wrapper)

    # -- child processes and output -----------------------------------------

    def export(self) -> dict:
        """Aggregates and spans as plain JSON data."""
        return {
            "calls": {k: v[0] for k, v in self.stats.items()},
            "self_s": {k: v[1] for k, v in self.stats.items()},
            "incl_s": {k: v[2] for k, v in self.stats.items()},
            "root_s": self.root_s,
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, child: dict) -> None:
        """Fold a child process's export in under the current open span.

        Child span ids are shifted past this tracer's, and the child's
        root spans become children of the current frame.
        """
        for label, calls in child["calls"].items():
            stat = self.stats.setdefault(label, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += child["self_s"][label]
            stat[2] += child["incl_s"][label]
        self.counts.update(child["counts"])
        for label in child["absent"]:
            if label not in self.absent:
                self.absent.append(label)
        frame = self.stack[-1]
        frame[3] += child["root_s"]
        offset = self.next_id
        for span_id, label, start, end, parent, _ in child["spans"]:
            parent = frame[0] if parent is None else parent + offset
            self._keep((span_id + offset, label, start, end, parent, self.op_id))
            self.next_id = max(self.next_id, span_id + offset + 1)
        self.dropped += child["dropped"]

    def dump(self, path: str) -> None:
        fields = ("id", "label", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "dropped": self.dropped, "absent": self.absent}, fh)
