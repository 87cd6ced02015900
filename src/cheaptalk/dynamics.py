"""Best-response dynamics for the quantized signaling game.

Two engines over the same state space of partitions with a fixed bin
count: lloyd_method_i alternates exact decoder and encoder best
responses; fixed_point_iterate damps the combined midpoint map on the
interior edges. Whether either converges for biased games is an open
question, so these engines measure behavior rather than assume it:
collapse and running out of iterations are reported as outcomes, never
raised.

A run is declared converged only when both the sup-norm edge movement
and the equilibrium defect (max-abs residual) fall to tol, which makes
"converged implies the final snapshot certifies" true by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (
    Partition,
    _check_iteration_params,
    _midpoints,
)
from .errors import DomainError
from .sources import SourceModel

__all__ = [
    "COLLAPSE_PROB",
    "COLLAPSE_LENGTH",
    "IterationOutcome",
    "IterationTrace",
    "lloyd_method_i",
    "fixed_point_iterate",
    "BasinProbeSummary",
    "basin_probe",
]

# A bin below either floor is dead: centroids divide by its mass.
COLLAPSE_PROB = 1e-14
COLLAPSE_LENGTH = 1e-12

_THIN_AFTER = 1000
_THIN_STRIDE = 10


@dataclass(frozen=True)
class IterationOutcome:
    """Terminal status of a dynamics run.

    status is one of "converged", "collapsed", "max_iter". iteration is
    the step at which the run stopped; bin_index (1-based) is set only
    for collapses, and may be None when the offending bin cannot be
    attributed.
    """

    status: str
    iteration: int
    bin_index: int | None = None

    def __post_init__(self) -> None:
        if self.status not in ("converged", "collapsed", "max_iter"):
            raise DomainError(f"unknown outcome status {self.status!r}")
        if self.bin_index is not None and self.status != "collapsed":
            raise DomainError("bin_index is only meaningful for collapses")


@dataclass(frozen=True)
class IterationTrace:
    """Recorded trajectory of one dynamics run.

    iterates[i] is the partition after recorded_steps[i] iterations
    (step 0 is the initial state) and residual_history[i] is its
    max-abs equilibrium residual. Snapshots are thinned: every step is
    kept through 1000 iterations, every 10th after, the final state
    always.
    """

    iterates: tuple[Partition, ...]
    residual_history: tuple[float, ...]
    recorded_steps: tuple[int, ...]
    outcome: IterationOutcome
    iterations: int

    def __post_init__(self) -> None:
        n = len(self.iterates)
        if len(self.residual_history) != n or len(self.recorded_steps) != n:
            raise DomainError("trace columns must have equal length")
        if n == 0:
            raise DomainError("a trace records at least the initial state")

    @property
    def final_partition(self) -> Partition:
        return self.iterates[-1]

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


class _Recorder:
    """Thinned (step, edges, residual) log; partitions are built only for
    the steps it keeps, when the trace is assembled."""

    def __init__(self, source: SourceModel, bias: float) -> None:
        self.source = source
        self.bias = bias
        self.steps: list[int] = []
        self.edges: list[list[float]] = []
        self.residuals: list[float] = []

    def add(self, step: int, edges: np.ndarray, residual: float,
            force: bool = False) -> None:
        if not (force or step <= _THIN_AFTER or step % _THIN_STRIDE == 0):
            return
        if self.steps and self.steps[-1] == step:
            return
        self.steps.append(step)
        self.edges.append(edges.tolist())
        self.residuals.append(residual)

    def trace(self, outcome: IterationOutcome, iterations: int) -> IterationTrace:
        return IterationTrace(
            iterates=tuple(Partition(e, self.source, self.bias)
                           for e in self.edges),
            residual_history=tuple(self.residuals),
            recorded_steps=tuple(self.steps),
            outcome=outcome,
            iterations=iterations,
        )

    def collapsed(self, iteration: int, bin_index: int | None) -> IterationTrace:
        return self.trace(IterationOutcome("collapsed", iteration, bin_index),
                          iteration)


def _dead_bin(source: SourceModel, edges: np.ndarray) -> int | None:
    """1-based index of the first bin below a collapse floor, or None."""
    dead = ((edges[1:] - edges[:-1] < COLLAPSE_LENGTH)
            | (source.bin_probs(edges) < COLLAPSE_PROB))
    k = int(dead.argmax())
    return k + 1 if dead[k] else None


def _random_start(source: SourceModel, bias: float, n_bins: int,
                  rng: np.random.Generator) -> Partition:
    """Interior edges drawn as sorted uniforms between the 0.001 and 0.999
    source quantiles, redrawn until strictly increasing."""
    box = (source.quantile(0.001), source.quantile(0.999))
    while True:
        draws = np.sort(rng.uniform(box[0], box[1], size=n_bins - 1))
        if draws.size < 2 or np.all(np.diff(draws) > 0.0):
            return Partition.from_interior(draws, source, bias)


def lloyd_method_i(source: SourceModel, bias: float, init: Partition,
                   max_iter: int = 10_000, tol: float = 1e-10) -> IterationTrace:
    """Alternate the centroid and biased-midpoint rules from init.

    One iteration replaces the actions with the bin means and every
    interior edge with the midpoint of its neighboring means plus the
    bias. A certified equilibrium is an exact fixed point and converges
    in one iteration with zero movement. Collapse (an edge falling off
    the support or crossing a neighbor, or a bin shrinking below the
    probability/length floors) ends the run as an outcome. Unlike
    encoder_best_response, a transient step whose actions land outside
    their own bins is not an error here; only equilibria, not iterates,
    owe that property.
    """
    return _run(source, bias, init, max_iter, tol, damping=1.0)


def fixed_point_iterate(source: SourceModel, bias: float, init: Partition,
                        damping: float = 0.5, max_iter: int = 10_000,
                        tol: float = 1e-10) -> IterationTrace:
    """Damped iteration of the combined midpoint map on interior edges.

    Each edge moves a fraction damping of the way to the midpoint of
    its neighboring bin means plus the bias. damping = 1 reproduces
    lloyd_method_i exactly. Same outcome contract as lloyd_method_i;
    edge-ordering violations are collapses, not exceptions.
    """
    return _run(source, bias, init, max_iter, tol, damping=damping)


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max(initial=0.0))


def _run(source: SourceModel, bias: float, init: Partition, max_iter: int,
         tol: float, damping: float) -> IterationTrace:
    _check_iteration_params(damping, max_iter, tol)
    # Rebind the edges to this run's source and bias; validates support.
    start = Partition(init.edges, source, bias)
    edges = np.asarray(start.edges)
    rec = _Recorder(source, bias)

    dead = _dead_bin(source, edges)
    if dead is not None:
        rec.add(0, edges, math.nan, force=True)
        return rec.collapsed(0, dead)
    means = source.bin_means(edges)
    if not (means[1:] > means[:-1]).all():
        rec.add(0, edges, math.nan, force=True)
        return rec.collapsed(0, None)
    targets = _midpoints(means, bias)
    residual = _max_abs(edges[1:-1] - targets)
    rec.add(0, edges, residual, force=True)

    lo, hi = source.support
    for it in range(1, max_iter + 1):
        old = edges[1:-1]
        moved = (1.0 - damping) * old + damping * targets
        edges = np.concatenate(([lo], moved, [hi]))
        try:
            dead = _dead_bin(source, edges)
        except DomainError:
            # an edge left the support or crossed a neighbor (NaN included)
            alive = edges[1:] > edges[:-1]
            return rec.collapsed(it, int(alive.argmin()) + 1)
        if dead is not None:
            rec.add(it, edges, math.nan, force=True)
            return rec.collapsed(it, dead)
        means = source.bin_means(edges)
        if not (means[1:] > means[:-1]).all():
            # the centroids crossed: no valid decoder profile to continue from
            return rec.collapsed(it, None)
        targets = _midpoints(means, bias)
        residual = _max_abs(moved - targets)
        rec.add(it, edges, residual)
        if residual <= tol and _max_abs(moved - old) <= tol:
            rec.add(it, edges, residual, force=True)
            return rec.trace(IterationOutcome("converged", it), it)

    rec.add(max_iter, edges, residual, force=True)
    return rec.trace(IterationOutcome("max_iter", max_iter), max_iter)


@dataclass(frozen=True)
class BasinProbeSummary:
    """Aggregate of many dynamics runs from random initializations.

    distinct_limits holds the interior edges of one representative per
    limit cluster (sup-norm clustering at cluster_tol, greedy in
    initialization order); cluster_sizes aligns with it.
    """

    method: str
    n_inits: int
    seed: int
    fraction_converged: float
    distinct_limits: tuple[tuple[float, ...], ...]
    cluster_sizes: tuple[int, ...]
    collapsed: int
    hit_max_iter: int
    cluster_tol: float = field(default=1e-6)

    @property
    def n_distinct(self) -> int:
        return len(self.distinct_limits)


def basin_probe(source: SourceModel, bias: float, n_bins: int, n_inits: int,
                seed: int, method: str = "lloyd", *, damping: float = 0.5,
                max_iter: int = 10_000, tol: float = 1e-10,
                cluster_tol: float = 1e-6) -> BasinProbeSummary:
    """Run one dynamics method from n_inits random starts and cluster limits.

    Initial interior edges are sorted uniform draws between the 0.001
    and 0.999 source quantiles, so starts cover the region where
    equilibria can live without wasting mass in the far tails. The
    whole probe is deterministic under a fixed seed: draws, run order,
    and greedy clustering all follow initialization index.
    """
    if method not in ("lloyd", "fixed-point"):
        raise DomainError(f"method must be 'lloyd' or 'fixed-point', got {method!r}")
    if not (isinstance(n_inits, int) and n_inits >= 1):
        raise DomainError(f"n_inits must be a positive integer, got {n_inits!r}")
    if not (isinstance(n_bins, int) and n_bins >= 2):
        raise DomainError(f"basin probing needs n_bins >= 2, got {n_bins!r}")
    rng = np.random.default_rng(seed)

    converged = 0
    collapsed = 0
    hit_max = 0
    reps: list[np.ndarray] = []
    sizes: list[int] = []
    for _ in range(n_inits):
        init = _random_start(source, bias, n_bins, rng)
        if method == "lloyd":
            trace = lloyd_method_i(source, bias, init, max_iter, tol)
        else:
            trace = fixed_point_iterate(source, bias, init, damping,
                                        max_iter, tol)
        status = trace.outcome.status
        if status == "collapsed":
            collapsed += 1
            continue
        if status == "max_iter":
            hit_max += 1
            continue
        converged += 1
        limit = np.asarray(trace.final_partition.interior_edges)
        for j, rep in enumerate(reps):
            if float(np.max(np.abs(limit - rep))) <= cluster_tol:
                sizes[j] += 1
                break
        else:
            reps.append(limit)
            sizes.append(1)

    return BasinProbeSummary(
        method=method,
        n_inits=n_inits,
        seed=seed,
        fraction_converged=converged / n_inits,
        distinct_limits=tuple(tuple(float(v) for v in r) for r in reps),
        cluster_sizes=tuple(sizes),
        collapsed=collapsed,
        hit_max_iter=hit_max,
        cluster_tol=cluster_tol,
    )
