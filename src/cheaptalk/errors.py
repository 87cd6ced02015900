"""Exception types shared across the solver modules."""

from __future__ import annotations


class CheapTalkError(Exception):
    """Base class for every library-specific error."""


class DomainError(CheapTalkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ZeroProbabilityError(CheapTalkError, ArithmeticError):
    """A conditional moment was requested on an interval with no mass."""


class QuadratureError(CheapTalkError, ArithmeticError):
    """Adaptive quadrature could not meet the requested error budget."""


class BinCollapseError(CheapTalkError, ArithmeticError):
    """A construction step produced an empty, inverted, or vanishing bin.

    `bin_index` (1-based, when known) identifies the offending bin.
    """

    def __init__(self, message: str, *, bin_index: int | None = None) -> None:
        super().__init__(message)
        self.bin_index = bin_index


class NoInformativeEquilibriumError(BinCollapseError):
    """Only the single-bin (babbling) outcome exists for these parameters."""


class NonConvergenceError(CheapTalkError, RuntimeError):
    """An iterative solve stopped before meeting tolerance.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 final_change: float | None = None,
                 edges: tuple[float, ...] | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.final_change = final_change
        self.edges = edges


class EdgeOrderingError(CheapTalkError, ArithmeticError):
    """An iteration produced bin edges that are not strictly increasing."""

    def __init__(self, message: str, *, iteration: int | None = None) -> None:
        super().__init__(message)
        self.iteration = iteration
