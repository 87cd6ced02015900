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

One loop (_run_rows) runs any number of starts together: each step moves
every live start at once through the bin kernels, which give it the bin
masses and centroids and nothing else, and per-start tests take a start
out at the step where it collapses, converges or reaches max_iter. One
minimum over the step's edge gaps and one over its masses clear every
start of crossed, short and dead bins at once; only a step that fails
them runs the per-start collapse tests. basin_probe runs all its starts
that way, with no trace; lloyd_method_i and fixed_point_iterate are
one-start calls of the same loop that also record the trace. Every
start's outcome and edges are bit for bit those of running it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (
    Partition,
    _check_iteration_params,
    _check_seed,
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


def _run(source: SourceModel, bias: float, init: Partition, max_iter: int,
         tol: float, damping: float) -> IterationTrace:
    _check_iteration_params(damping, max_iter, tol)
    # Rebind the edges to this run's source and bias; validates support.
    start = Partition(init.edges, source, bias)
    rec = _Recorder(source, bias)
    (outcome,), _ = _run_rows(source, bias, np.array([start.edges]),
                              max_iter, tol, damping, rec)
    return rec.trace(outcome, outcome.iteration)


def _run_rows(source: SourceModel, bias: float, edges: np.ndarray,
              max_iter: int, tol: float, damping: float,
              rec: _Recorder | None = None
              ) -> tuple[list[IterationOutcome], np.ndarray]:
    """Run the dynamics from every row of edges in one loop.

    edges is (runs, n_bins + 1), each row a partition of the support.
    Each step moves every live row at once through the unchecked bin
    kernels, and tests on each row stop it at the step where its own run
    stops, so every row ends bit for bit as it would alone. rec, given
    only with one row, logs that row's thinned trace. Returns each row's
    outcome and its edges at the step it stopped. The caller checks the
    iteration parameters.
    """
    outcomes: list[IterationOutcome] = [None] * len(edges)
    final = np.array(edges, dtype=float)
    live = np.arange(len(edges))
    e = final.copy()
    # each step writes its moved edges into e, so moved and old hold
    # copies of them, not views
    moved = old = e[:, 1:-1].copy()

    def stop(rows: np.ndarray, status: str, bins=None) -> np.ndarray:
        """Finish the flagged live rows at the current step, with their
        current edges and bins[r] + 1 as bin_index; return the mask of
        the rows that go on."""
        for r in np.flatnonzero(rows):
            k = None if bins is None else int(bins[r]) + 1
            outcomes[live[r]] = IterationOutcome(status, it, k)
            final[live[r]] = e[r]
        return ~rows

    for it in range(max_iter + 1):
        if it:
            old = moved
            moved = (1.0 - damping) * old + damping * targets
            e[:, 1:-1] = moved
        # a > b exactly when a - b > 0, for every pair of floats, so one
        # minimum over the gaps, which fails on NaN, clears the step of
        # crossed and of short bins; almost every step passes it
        gaps = e[:, 1:] - e[:, :-1]
        short = not gaps.min() >= COLLAPSE_LENGTH
        if it and short:
            # an edge left the support or crossed a neighbor (NaN included)
            bad = ~(gaps > 0.0)
            if np.count_nonzero(bad):
                keep = stop(bad.any(axis=1), "collapsed", bad.argmax(axis=1))
                live, e, gaps, moved, old = (
                    live[keep], e[keep], gaps[keep], moved[keep], old[keep])
                if not live.size:
                    break
        probs, means = source._bin_moments(e)
        if short or not probs.min() >= COLLAPSE_PROB:
            dead = (gaps < COLLAPSE_LENGTH) | (probs < COLLAPSE_PROB)
            if np.count_nonzero(dead):
                if rec is not None:
                    rec.add(it, e[0], math.nan, force=True)
                keep = stop(dead.any(axis=1), "collapsed", dead.argmax(axis=1))
                live, e, moved, old, means = (
                    live[keep], e[keep], moved[keep], old[keep], means[keep])
                if not live.size:
                    break
        rising = means[:, 1:] > means[:, :-1]
        if np.count_nonzero(rising) < rising.size:
            # the centroids crossed: no valid decoder profile to continue
            # from; a trace always holds its initial state, so a crossing
            # at step 0 is logged, and only then
            if rec is not None and it == 0:
                rec.add(it, e[0], math.nan, force=True)
            keep = stop(~rising.all(axis=1), "collapsed")
            live, e, moved, old, means = (
                live[keep], e[keep], moved[keep], old[keep], means[keep])
            if not live.size:
                break
        targets = _midpoints(means, bias)
        residual = np.abs(moved - targets).max(axis=1, initial=0.0)
        if rec is not None:
            rec.add(it, e[0], float(residual[0]), force=it == 0)
        done = residual <= tol
        # the movement is only worth measuring once some residual is small
        if it and np.count_nonzero(done):
            done &= np.abs(moved - old).max(axis=1, initial=0.0) <= tol
            if np.count_nonzero(done):
                if rec is not None:
                    rec.add(it, e[0], float(residual[0]), force=True)
                keep = stop(done, "converged")
                live, e, moved, targets, residual = (
                    live[keep], e[keep], moved[keep], targets[keep],
                    residual[keep])
                if not live.size:
                    break
    if live.size:
        if rec is not None:
            rec.add(max_iter, e[0], float(residual[0]), force=True)
        stop(np.ones(live.size, dtype=bool), "max_iter")
    return outcomes, final


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
    equilibria can live without wasting mass in the far tails. All
    starts are drawn first and then run together in one loop, each
    taken out at the step where its own run stops, so every outcome and
    limit is bit for bit what lloyd_method_i or fixed_point_iterate gives
    from that start. The whole probe is deterministic under a fixed seed:
    draws and greedy clustering follow initialization index.
    """
    if method not in ("lloyd", "fixed-point"):
        raise DomainError(f"method must be 'lloyd' or 'fixed-point', got {method!r}")
    if not (isinstance(n_inits, int) and n_inits >= 1):
        raise DomainError(f"n_inits must be a positive integer, got {n_inits!r}")
    if not (isinstance(n_bins, int) and n_bins >= 2):
        raise DomainError(f"basin probing needs n_bins >= 2, got {n_bins!r}")
    damping = damping if method == "fixed-point" else 1.0
    _check_iteration_params(damping, max_iter, tol)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    starts = np.array([_random_start(source, bias, n_bins, rng).edges
                       for _ in range(n_inits)])
    outcomes, final = _run_rows(source, bias, starts, max_iter, tol, damping)

    converged = 0
    collapsed = 0
    hit_max = 0
    reps: list[np.ndarray] = []
    sizes: list[int] = []
    for outcome, edges in zip(outcomes, final):
        if outcome.status == "collapsed":
            collapsed += 1
            continue
        if outcome.status == "max_iter":
            hit_max += 1
            continue
        converged += 1
        limit = edges[1:-1]
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
