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
centroids and nothing else, and per-start tests take a start out at the
step where it collapses, converges or reaches max_iter. The loop runs in
the frame its source's kernel works in: std units, z = (x - mean)/std,
for a Gaussian, x itself for an exponential. SourceModel._to_frame maps
the edges into it once per run, and the bias, tol and COLLAPSE_LENGTH
are divided by the frame's _scale once, so no step maps edges or means
between frames; SourceModel._from_frame maps edges back to x once, and
residuals are scaled back once, when a run's results or trace are
returned. A start with a bin whose ends meet in std units, as two edges
past DBL_MAX std from the mean on one side do, is a DomainError that
names the bin. At damping 1 a step's move is its targets themselves,
with no blend. Where the frame is x itself (every exponential, and
N(0, 1)) a run is bit for bit the run in x. A step is a short, fixed
list of numpy calls, each a ufunc or its reduce called directly on
arrays the step holds. The interior edges live in contiguous arrays, on
which numpy takes its fast loops, and each step writes them into the
rows the kernels read through a view made once per set of live rows.
Each stop test is one reduction over every start: one minimum over the
step's edge gaps clears every start of crossed and dead bins at once;
only a step that fails it runs the one collapse test, which names each
failing start at its first crossed edge gap, else at its first dead
bin. One count clears every start of crossed centroids, and one
NaN-safe minimum of the residuals decides whether any start may have
converged; only then are the movements measured. A bin
is dead when it is shorter than COLLAPSE_LENGTH in x, never for its mass
alone: the kernels resolve the centroid of a far-tail bin whose mass
underflows, and Gaussian equilibria hold such bins. basin_probe draws
all its starts from one quantile box (_random_starts, which the CLI's
random init also uses) and runs them that way, with no trace;
fixed_point_iterate is the one-start call of the same loop that also
records the trace, and lloyd_method_i is fixed_point_iterate at
damping 1. The trace takes one entry per step, thinned past step 1000
but always kept at step 0, at max_iter and at the step the run
converges; a run that collapses on a dead bin, or on centroids crossed
at step 0, ends it with a NaN residual. Every start's outcome and edges
are bit for bit those of running it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import (
    Partition,
    _check_count,
    _check_iteration_params,
    _check_seed,
    _midpoints,
)
from .errors import DomainError
from .sources import SourceModel

__all__ = [
    "COLLAPSE_LENGTH",
    "IterationOutcome",
    "IterationTrace",
    "lloyd_method_i",
    "fixed_point_iterate",
    "BasinProbeSummary",
    "basin_probe",
]

# A bin shorter than this is dead: its centroid is no longer resolved.
COLLAPSE_LENGTH = 1e-12

_THIN_AFTER = 1000
_THIN_STRIDE = 10
# a random start whose sorted draws tie is drawn again, at most this often
_MAX_DRAWS = 100


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
    kept through 1000 iterations, every 10th after, and step 0,
    max_iter and the step a run converges always.
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
    """Thinned (step, edges, residual) log of a run from start, kept in
    the run's frame; edges and residuals are mapped back to x, and
    partitions built, only for the steps it keeps, when the trace is
    assembled. Step 0, always kept first, is start itself."""

    def __init__(self, start: Partition) -> None:
        self.start = start
        self.steps: list[int] = []
        self.edges: list[list[float]] = []
        self.residuals: list[float] = []

    def add(self, step: int, edges: np.ndarray, residual: float,
            force: bool) -> None:
        if force or step <= _THIN_AFTER or step % _THIN_STRIDE == 0:
            self.steps.append(step)
            self.edges.append(edges.tolist())
            self.residuals.append(residual)

    def trace(self, outcome: IterationOutcome) -> IterationTrace:
        source, bias = self.start.source, self.start.bias
        rows = source._from_frame(np.array(self.edges[1:])).tolist()
        residuals = source._scale * np.array(self.residuals)
        return IterationTrace(
            iterates=(self.start,
                      *(Partition(e, source, bias) for e in rows)),
            residual_history=tuple(residuals.tolist()),
            recorded_steps=tuple(self.steps),
            outcome=outcome,
            iterations=outcome.iteration,
        )


def _random_starts(source: SourceModel, n_bins: int, n_inits: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(n_inits, n_bins + 1) start edges, one row per start in turn: its
    interior edges drawn as sorted uniforms between the 0.001 and 0.999
    source quantiles, redrawn until strictly increasing.

    A DomainError, before any draw, where that range is not finite (a
    quantile is infinite, or their distance overflows) or holds fewer
    than n_bins - 1 floats, and where a start's draws still tie after
    _MAX_DRAWS draws, as in a range that is only just wide enough."""
    lo, hi = source.quantile(0.001), source.quantile(0.999)
    box = f"[{lo!r}, {hi!r}] between the 0.001 and 0.999 quantiles"
    if not math.isfinite(hi - lo):
        raise DomainError(f"random starts need a finite range, got {box}")
    top = lo
    for _ in range(n_bins - 2):
        top = math.nextafter(top, math.inf)
    if top > hi:
        raise DomainError(f"the range {box} holds fewer than {n_bins - 1} "
                          f"floats, one for each interior edge")
    starts = np.empty((n_inits, n_bins + 1))
    starts[:, 0], starts[:, -1] = source.support
    for row in starts:
        for _ in range(_MAX_DRAWS):
            draws = np.sort(rng.uniform(lo, hi, size=n_bins - 1))
            if draws.size < 2 or np.all(np.diff(draws) > 0.0):
                row[1:-1] = draws
                break
        else:
            raise DomainError(f"{_MAX_DRAWS} draws of {n_bins - 1} interior "
                              f"edges from the range {box} all tied")
    return starts


def lloyd_method_i(source: SourceModel, bias: float, init: Partition,
                   max_iter: int = 10_000, tol: float = 1e-10) -> IterationTrace:
    """Alternate the centroid and biased-midpoint rules from init.

    One iteration replaces the actions with the bin means and every
    interior edge with the midpoint of its neighboring means plus the
    bias. A certified equilibrium is an exact fixed point and converges
    in one iteration with zero movement. Collapse (an edge falling off
    the support or crossing a neighbor, a bin shrinking below
    COLLAPSE_LENGTH, or centroids that stop increasing) ends the run as
    an outcome. Unlike encoder_best_response, a transient step whose
    actions land outside their own bins is not an error here; only
    equilibria, not iterates, owe that property.
    """
    return fixed_point_iterate(source, bias, init, 1.0, max_iter, tol)


def fixed_point_iterate(source: SourceModel, bias: float, init: Partition,
                        damping: float = 0.5, max_iter: int = 10_000,
                        tol: float = 1e-10) -> IterationTrace:
    """Damped iteration of the combined midpoint map on interior edges.

    Each edge moves a fraction damping of the way to the midpoint of
    its neighboring bin means plus the bias. damping = 1 reproduces
    lloyd_method_i exactly. Same outcome contract as lloyd_method_i;
    edge-ordering violations are collapses, not exceptions.
    """
    max_iter = _check_iteration_params(damping, max_iter, tol)
    # Rebind the edges to this run's source and bias; validates support.
    start = Partition(init.edges, source, bias)
    rec = _Recorder(start)
    (outcome,), _ = _run_rows(source, bias, np.array([start.edges]),
                              max_iter, tol, damping, rec)
    return rec.trace(outcome)


def _run_rows(source: SourceModel, bias: float, edges: np.ndarray,
              max_iter: int, tol: float, damping: float,
              rec: _Recorder | None = None
              ) -> tuple[list[IterationOutcome], np.ndarray]:
    """Run the dynamics from every row of edges in one loop.

    edges is (runs, n_bins + 1), each row a partition of the support.
    The run maps them once into the frame its source's kernel works in
    (source._to_frame: std units for a Gaussian, x for an exponential),
    and divides the bias, tol and COLLAPSE_LENGTH by source._scale once,
    so each step maps nothing and reads its means through
    source._frame_means. Each step moves every live row at once, to its
    targets themselves at damping 1, and tests on each row stop it at
    the step where its own run stops, so every row ends bit for bit as
    it would alone.

    The interior edges of the step and of the step before are two
    contiguous arrays, moved and old; each step writes moved into the
    rows e through the view inner, and forms its edge gaps from the
    views upper and lower, all three made again only when rows stop.
    The targets are formed in place, the bias a 0-d operand, and the
    blend at damping below 1 in place in them. Each test is one
    reduction over all rows: np.minimum.reduce of the gaps, a count of
    the rising pairs of means, and np.fmin.reduce of the residuals, which
    skips a NaN residual; the per-row stop masks, and the movement, are
    formed only when a test flags some row. rec, given only with one row,
    logs that row's thinned trace in the frame. Returns each row's
    outcome and its edges, in x (source._from_frame), at the step it
    stopped. The caller checks the iteration parameters.
    """
    outcomes: list[IterationOutcome] = [None] * len(edges)
    e = source._to_frame(np.array(edges, dtype=float))
    scale = source._scale
    bias, tol = np.array(bias / scale), tol / scale
    floor = COLLAPSE_LENGTH / scale
    keep_old, take_new = np.array(1.0 - damping), np.array(damping)
    final = np.empty_like(e)
    live = np.arange(len(edges))
    # each step writes its moved edges into e, so moved and old hold
    # copies of them, not views, on which numpy takes its fast loops
    moved = old = e[:, 1:-1].copy()

    def views(e: np.ndarray) -> tuple[np.ndarray, ...]:
        """The views of the rows e that a step reads (upper and lower
        ends) and writes (inner, the interior)."""
        return e[:, 1:], e[:, :-1], e[:, 1:-1]

    upper, lower, inner = views(e)

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
            if damping == 1.0:
                # the blend would be targets bit for bit: old is finite,
                # and targets, formed from increasing means, is never
                # -0.0, so 0.0 * old + targets is targets
                moved = targets
            else:
                # (1 - damping)*old + damping*targets, added in the other
                # order, which is the same sum
                moved = np.multiply(targets, take_new, out=targets)
                moved += np.multiply(old, keep_old)
            inner[...] = moved
        # a > b exactly when a - b > 0, for every pair of floats, so one
        # minimum over the gaps, which fails on NaN, clears the step of
        # crossed and of short bins; almost every step passes it
        gaps = np.subtract(upper, lower)
        if not np.minimum.reduce(gaps, None) >= floor:
            # a failing row is named at its first crossed gap (an edge off
            # the support or past a neighbor, NaN included), else at its
            # first short one, so crossed gaps rank 3 and short ones 1;
            # only a short bin leaves edges to log, and the edges of step
            # 0 are a partition's, so they cross nowhere
            rank = 2 * ~(gaps > 0.0) + ~(gaps >= floor)
            worst = rank.max(axis=1)
            if rec is not None and worst[0] == 1:
                rec.add(it, e[0], math.nan, force=True)
            keep = stop(worst > 0, "collapsed", rank.argmax(axis=1))
            live, e, moved, old, gaps = (
                live[keep], e[keep], moved[keep], old[keep], gaps[keep])
            if not live.size:
                break
            upper, lower, inner = views(e)
        means = source._frame_means(e, gaps)
        rising = np.greater(means[:, 1:], means[:, :-1])
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
            upper, lower, inner = views(e)
        targets = _midpoints(means, bias)
        gap = np.subtract(moved, targets)
        residual = np.maximum.reduce(np.abs(gap, out=gap), axis=1,
                                     initial=0.0)
        converged = False
        # one NaN-safe minimum: a row with a NaN residual hides no small
        # one; the movement is only worth measuring once one is small
        if it and np.fmin.reduce(residual) <= tol:
            np.subtract(moved, old, out=gap)
            done = residual <= tol
            done &= np.maximum.reduce(np.abs(gap, out=gap), axis=1,
                                      initial=0.0) <= tol
            converged = done.any()
        if rec is not None:
            # the traced row is the only row, so it stops when any row does
            rec.add(it, e[0], float(residual[0]),
                    force=it in (0, max_iter) or converged)
        if converged:
            keep = stop(done, "converged")
            live, e, moved, targets = (
                live[keep], e[keep], moved[keep], targets[keep])
            if not live.size:
                break
            upper, lower, inner = views(e)
    if live.size:
        stop(np.ones(live.size, dtype=bool), "max_iter")
    return outcomes, source._from_frame(final)


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
    n_inits = _check_count(n_inits, 1, "n_inits must be a positive integer")
    n_bins = _check_count(n_bins, 2, "basin probing needs n_bins >= 2")
    if not math.isfinite(bias):
        raise DomainError(f"bias must be finite, got {bias!r}")
    damping = damping if method == "fixed-point" else 1.0
    max_iter = _check_iteration_params(damping, max_iter, tol)
    _check_seed(seed)
    if not cluster_tol >= 0.0:
        raise DomainError(f"cluster_tol must be >= 0, got {cluster_tol!r}")
    starts = _random_starts(source, n_bins, n_inits,
                            np.random.default_rng(seed))
    outcomes, final = _run_rows(source, bias, starts, max_iter, tol, damping)

    statuses = [outcome.status for outcome in outcomes]
    reps: list[np.ndarray] = []
    sizes: list[int] = []
    for status, edges in zip(statuses, final):
        if status != "converged":
            continue
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
        fraction_converged=statuses.count("converged") / n_inits,
        distinct_limits=tuple(tuple(float(v) for v in r) for r in reps),
        cluster_sizes=tuple(sizes),
        collapsed=statuses.count("collapsed"),
        hit_max_iter=statuses.count("max_iter"),
        cluster_tol=cluster_tol,
    )
