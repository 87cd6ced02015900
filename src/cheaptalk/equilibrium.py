"""Partitions, decoder actions, equilibrium certificates, and costs.

The shared substrate for both solvers and the dynamics engine. A
Partition carries the full game context (edges, source, bias) as an
immutable value, plus the one edge array the source's check returned.
Everything else is derived from that array and the source's array bin
moments, with no per-element Python pass:

- the decoder's best response maps each bin to its conditional mean;
- the encoder's best response places each interior edge at the midpoint
  of adjacent actions, shifted by the bias (``_midpoints``, the one map
  the Gaussian solvers and the dynamics also iterate);
- a certificate reports the per-edge defect of the midpoint condition
  under the conditional-mean actions, which vanishes exactly at a Nash
  equilibrium of the quantized game;
- cost accounting decomposes the decoder's mean squared error into
  per-bin (probability, conditional variance) contributions. The
  encoder's cost exceeds it by the squared bias, an identity that holds
  for every partition, equilibrium or not.
"""

from __future__ import annotations

import math
import numbers
import operator

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BinCollapseError, DomainError
from .sources import _HALF, SourceModel

__all__ = [
    "Partition",
    "ActionProfile",
    "EquilibriumCertificate",
    "CostReport",
    "decoder_best_response",
    "encoder_best_response",
    "certify",
    "decoder_cost",
    "monte_carlo_cost",
]

# samples drawn and scored at once by monte_carlo_cost: 128 KiB of floats,
# which stays in cache; 2**12 to 2**16 all ran 1e6 samples in about the
# same time, and this size added the least to a fresh process's peak RSS
_MC_BLOCK = 1 << 14


@dataclass(frozen=True)
class Partition:
    """Ordered bin edges spanning the full support of a source.

    edges[0] and edges[-1] always coincide with the support endpoints
    (0 and +inf for exponential sources, -inf and +inf for Gaussian), so
    every value the source can produce lands in exactly one bin. Interior
    edges are finite and strictly increasing, by the source's one edge
    check (_bin_edges), which converts every edge once and raises
    DomainError on one that is not a number; each bin then has positive
    length inside the support, the structural form of "positive
    probability" that stays meaningful even where the tail mass
    underflows in double precision.

    The checked float array that edges is read from stays on the
    partition as _edge_array: its own read-only copy, never the caller's
    array, and not a field, so it changes neither equality nor hashing.
    The moment record, certify, encoder_best_response and
    monte_carlo_cost read it in place of the edges tuple.
    """

    edges: tuple[float, ...]
    source: SourceModel
    bias: float

    def __post_init__(self) -> None:
        # one list, read once from any iterable (a generator too), so the
        # array kept below is never the caller's
        edges = (self.edges.tolist() if isinstance(self.edges, np.ndarray)
                 else list(self.edges))
        object.__setattr__(self, "bias", float(self.bias))
        if not math.isfinite(self.bias):
            raise DomainError(f"bias must be finite, got {self.bias!r}")
        array = self.source._bin_edges(edges)
        if array.ndim != 1:
            raise DomainError(f"a partition has one edge sequence, got {edges!r}")
        array.flags.writeable = False
        edges = tuple(array.tolist())
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_array", array)
        lo, hi = self.source.support
        if edges[0] != lo or edges[-1] != hi:
            raise DomainError(
                f"outer edges must coincide with the support [{lo}, {hi}], "
                f"got [{edges[0]}, {edges[-1]}]")

    @classmethod
    def from_interior(cls, interior: Iterable[float], source: SourceModel,
                      bias: float) -> "Partition":
        """Build from interior edges alone; support endpoints are added.

        Idempotent: values equal to a support endpoint are dropped first,
        so passing a full edge tuple back in reproduces the partition.
        """
        lo, hi = source.support
        inner = [float(x) for x in interior if x != lo and x != hi]
        return cls((lo, *inner, hi), source, bias)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def interior_edges(self) -> tuple[float, ...]:
        return self.edges[1:-1]

    @property
    def lengths(self) -> tuple[float, ...]:
        """Bin lengths; half-infinite bins report inf."""
        return tuple(b - a for a, b in zip(self.edges, self.edges[1:]))

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(probs, means, variances) of the bins as read-only arrays,
        computed once, on first use, by one pass of the unchecked kernel
        _bin_moments over _edge_array, the edge array __post_init__ has
        checked through the source; certify, decoder_cost and
        decoder_best_response read it. Not a field, so it changes neither
        equality nor hashing."""
        moments = self.source._bin_moments(self._edge_array)
        for a in moments:
            a.flags.writeable = False
        return moments


@dataclass(frozen=True)
class ActionProfile:
    """Decoder actions, one per bin, strictly increasing."""

    centroids: tuple[float, ...]

    def __post_init__(self) -> None:
        c = tuple(map(float, self.centroids))
        object.__setattr__(self, "centroids", c)
        if len(c) < 1:
            raise DomainError("an action profile needs at least one action")
        if not all(map(math.isfinite, c)):
            raise DomainError("actions must be finite")
        if not all(map(operator.lt, c, c[1:])):
            a, b = next((a, b) for a, b in zip(c, c[1:]) if not a < b)
            raise DomainError(
                f"actions must be strictly increasing, got {a!r} before {b!r}")

    def __len__(self) -> int:
        return len(self.centroids)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Midpoint-condition defects at the interior edges.

    residuals[k-1] is m_k - (u_k + u_{k+1})/2 - bias with u taken as the
    conditional means: zero at every interior edge exactly when the
    partition is a Nash equilibrium. Edges listed in excluded_edges
    (1-based) are reported but ignored by the verdict; truncated-ladder
    constructions use this for edges whose neighbors were cut off.
    """

    residuals: tuple[float, ...]
    max_abs_residual: float
    tolerance: float
    verdict: bool
    excluded_edges: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict != (self.max_abs_residual <= self.tolerance):
            raise DomainError("certificate verdict contradicts its residuals")


@dataclass(frozen=True)
class CostReport:
    """Decoder and encoder mean squared errors with per-bin contributions.

    per_bin holds (probability, conditional variance) pairs;
    decoder_cost is their probability-weighted sum, and encoder_cost
    always equals decoder_cost + bias**2.
    """

    decoder_cost: float
    encoder_cost: float
    per_bin: tuple[tuple[float, float], ...]


def _midpoints(means: np.ndarray, bias: float | np.ndarray) -> np.ndarray:
    """Each interior edge's target: the midpoint of the means of the two
    bins it separates, plus the bias. Equilibria are its fixed points.
    Each row of a 2-D array of means maps on its own. The targets are
    formed in place in the one array of their sums; a dynamics step
    passes the bias as a 0-d array, which numpy takes faster."""
    mid = np.add(means[..., :-1], means[..., 1:])
    mid *= _HALF
    mid += bias
    return mid


def _check_iteration_params(damping: float, max_iter: int, tol: float) -> int:
    """Checks the three iteration parameters; returns max_iter as an int."""
    if not (0.0 < damping <= 1.0):
        raise DomainError(f"damping must lie in (0, 1], got {damping!r}")
    max_iter = _check_count(max_iter, 1, "max_iter must be a positive integer")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    return max_iter


def _check_count(count: int, low: int, message: str,
                 high: float = math.inf) -> int:
    """count as a Python int if it is an integer (numpy's included, a bool
    not) with low <= count < high; else DomainError(message, got count)."""
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral)
                                       and low <= count < high):
        raise DomainError(f"{message}, got {count!r}")
    return int(count)


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral)
                                      and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


def decoder_best_response(partition: Partition) -> ActionProfile:
    """Conditional mean of the source on each bin (the centroid rule)."""
    return ActionProfile(partition._moments[1].tolist())


def encoder_best_response(actions: ActionProfile, source: SourceModel,
                          bias: float) -> Partition:
    """Interior edges at midpoints of adjacent actions, shifted by bias.

    Raises BinCollapseError when the implied edges are not strictly
    increasing inside the support, or when some action falls outside its
    own bin; either way no equilibrium with this structure exists at
    this step, and the exception carries the offending bin index.
    """
    lo, hi = source.support
    u = np.asarray(actions.centroids)
    interior = _midpoints(u, bias)
    if interior.size and interior[0] <= lo:
        raise BinCollapseError(
            f"first edge {float(interior[0])!r} fell at or below the support "
            f"endpoint {lo}", bin_index=1)
    p = Partition((lo, *interior, hi), source, bias)
    e = p._edge_array
    inside = (e[:-1] < u) & (u < e[1:])
    if not inside.all():
        k = int(inside.argmin())
        raise BinCollapseError(
            f"action {actions.centroids[k]!r} left its bin ({p.edges[k]!r}, "
            f"{p.edges[k + 1]!r})", bin_index=k + 1)
    return p


def certify(partition: Partition, tol: float = 1e-8,
            excluded_edges: Sequence[int] = ()) -> EquilibriumCertificate:
    """Evaluate the midpoint defects at every interior edge.

    The verdict is true iff every non-excluded |residual| is within tol.
    excluded_edges uses the 1-based interior edge numbering.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    residuals = (partition._edge_array[1:-1]
                 - _midpoints(partition._moments[1], partition.bias))
    excluded = tuple(sorted({int(k) for k in excluded_edges}))
    for k in excluded:
        if not 1 <= k <= len(residuals):
            raise DomainError(
                f"excluded edge {k} out of range 1..{len(residuals)}")
    # every |r| >= 0 = initial, so zeroing an excluded entry drops it from
    # the maximum, NaN included
    kept = np.abs(residuals)
    if excluded:
        kept[[k - 1 for k in excluded]] = 0.0
    max_abs = float(kept.max(initial=0.0))
    return EquilibriumCertificate(
        residuals=tuple(residuals.tolist()),
        max_abs_residual=max_abs,
        tolerance=float(tol),
        verdict=max_abs <= tol,
        excluded_edges=excluded,
    )


def decoder_cost(partition: Partition) -> CostReport:
    """Mean squared error of the centroid decoder under this partition.

    Summed as probability * conditional variance over bins; the encoder
    side adds the squared bias on top, for any partition.
    """
    probs, _, variances = partition._moments
    jd = math.fsum((probs * variances).tolist())
    b = partition.bias
    return CostReport(decoder_cost=jd, encoder_cost=jd + b * b,
                      per_bin=tuple(zip(probs.tolist(), variances.tolist())))


def monte_carlo_cost(partition: Partition, n: int, seed: int) -> tuple[float, float]:
    """Sampled decoder cost: (estimate, standard error).

    Draws n source samples, quantizes by the partition, decodes each bin
    to its conditional mean, and averages the squared error. Deterministic
    for a fixed seed.

    The samples are drawn and scored in blocks of _MC_BLOCK, so memory
    does not grow with n. The blocks are the samples of one whole draw
    of n from the same generator, and each block's (count, mean, sum of
    squared deviations) is merged into running totals by the pairwise
    update of Chan, Golub and LeVeque, so the result matches the mean
    and ``std(ddof=1) / sqrt(n)`` of the whole array up to rounding (bit
    for bit when n fits in one block).
    """
    if not (isinstance(n, numbers.Integral)
            or (isinstance(n, numbers.Real) and math.isfinite(n)
                and n == int(n))):
        raise DomainError(f"sample count must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n!r}")
    n = int(n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    u = np.asarray(decoder_best_response(partition).centroids)
    interior = partition._edge_array[1:-1]
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, _MC_BLOCK):
        err = partition.source.sample(rng, min(_MC_BLOCK, n - start))
        err -= u[np.searchsorted(interior, err, side="right")]
        sq = np.square(err, out=err)
        block_mean = float(np.mean(sq))
        sq -= block_mean
        block_m2 = float(np.sum(np.square(sq, out=sq)))
        delta = block_mean - mean
        size = len(sq)
        count += size
        mean += delta * (size / count)
        m2 += block_m2 + delta * delta * ((count - size) * size / count)
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf
    return mean, se
