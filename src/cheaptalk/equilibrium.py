"""Partitions, decoder actions, equilibrium certificates, and costs.

The shared substrate for both solvers and the dynamics engine. A
Partition carries the full game context (edges, source, bias) as an
immutable value; everything else is derived from it through the
source's array bin moments:

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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BinCollapseError, DomainError
from .sources import SourceModel

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
    edges are finite and strictly increasing; each bin then has positive
    length inside the support, which is the structural form of "positive
    probability" that remains meaningful even where the tail mass
    underflows in double precision.
    """

    edges: tuple[float, ...]
    source: SourceModel
    bias: float

    def __post_init__(self) -> None:
        edges = tuple(float(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "bias", float(self.bias))
        if not math.isfinite(self.bias):
            raise DomainError(f"bias must be finite, got {self.bias!r}")
        if len(edges) < 2:
            raise DomainError("a partition needs at least two edges")
        if any(math.isnan(e) for e in edges):
            raise DomainError("partition edges must not be NaN")
        for a, b in zip(edges, edges[1:]):
            if not a < b:
                raise DomainError(
                    f"partition edges must be strictly increasing, got "
                    f"{a!r} before {b!r}")
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
        computed once, on first use, by the unchecked kernels
        (__post_init__ has checked the edges); certify, decoder_cost and
        decoder_best_response read it. Not a field, so it changes neither
        equality nor hashing."""
        e = np.asarray(self.edges)
        moments = (*self.source._bin_moments(e), self.source._bin_variances(e))
        for a in moments:
            a.flags.writeable = False
        return moments


@dataclass(frozen=True)
class ActionProfile:
    """Decoder actions, one per bin, strictly increasing."""

    centroids: tuple[float, ...]

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.centroids)
        object.__setattr__(self, "centroids", c)
        if len(c) < 1:
            raise DomainError("an action profile needs at least one action")
        if any(not math.isfinite(v) for v in c):
            raise DomainError("actions must be finite")
        for a, b in zip(c, c[1:]):
            if not a < b:
                raise DomainError(
                    f"actions must be strictly increasing, got {a!r} "
                    f"before {b!r}")

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


def _midpoints(means: np.ndarray, bias: float) -> np.ndarray:
    """Each interior edge's target: the midpoint of the means of the two
    bins it separates, plus the bias. Equilibria are its fixed points.
    Each row of a 2-D array of means maps on its own."""
    return 0.5 * (means[..., :-1] + means[..., 1:]) + bias


def _check_iteration_params(damping: float, max_iter: int, tol: float) -> None:
    if not (0.0 < damping <= 1.0):
        raise DomainError(f"damping must lie in (0, 1], got {damping!r}")
    if not (isinstance(max_iter, int) and max_iter >= 1):
        raise DomainError(f"max_iter must be a positive integer, got {max_iter!r}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral)
                                      and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


def decoder_best_response(partition: Partition) -> ActionProfile:
    """Conditional mean of the source on each bin (the centroid rule)."""
    return ActionProfile(tuple(partition._moments[1].tolist()))


def encoder_best_response(actions: ActionProfile, source: SourceModel,
                          bias: float) -> Partition:
    """Interior edges at midpoints of adjacent actions, shifted by bias.

    Raises BinCollapseError when the implied edges are not strictly
    increasing inside the support, or when some action falls outside its
    own bin; either way no equilibrium with this structure exists at
    this step, and the exception carries the offending bin index.
    """
    lo, hi = source.support
    interior = _midpoints(np.asarray(actions.centroids), bias)
    if interior.size and interior[0] <= lo:
        raise BinCollapseError(
            f"first edge {float(interior[0])!r} fell at or below the support "
            f"endpoint {lo}", bin_index=1)
    p = Partition((lo, *interior, hi), source, bias)
    for k, v in enumerate(actions.centroids):
        if not p.edges[k] < v < p.edges[k + 1]:
            raise BinCollapseError(
                f"action {v!r} left its bin ({p.edges[k]!r}, "
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
    residuals = (np.asarray(partition.interior_edges)
                 - _midpoints(partition._moments[1], partition.bias))
    excluded = tuple(sorted({int(k) for k in excluded_edges}))
    for k in excluded:
        if not 1 <= k <= len(residuals):
            raise DomainError(
                f"excluded edge {k} out of range 1..{len(residuals)}")
    kept = (np.delete(residuals, [k - 1 for k in excluded]) if excluded
            else residuals)
    max_abs = float(np.max(np.abs(kept), initial=0.0))
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
    interior = np.asarray(partition.interior_edges)
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
