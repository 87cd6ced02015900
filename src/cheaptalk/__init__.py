"""Equilibria of the quadratic cheap-talk signaling game.

An encoder observing a continuous source sends one of finitely many
messages; a decoder acts on the message; the two sides disagree by a
constant bias. Equilibria are quantizers: interval partitions paired
with conditional-mean actions. This package computes them in closed
form where possible (exponential sources, Gaussian two-bin), by Newton's
method on the midpoint condition elsewhere (with short blocks of damped
fixed-point steps where Newton breaks down), certifies every result
numerically, and measures best-response dynamics whose convergence
theory is open.

``import cheaptalk`` loads the shared layers: ``errors``, ``special``,
``sources`` and ``equilibrium``. The solver modules ``exponential``,
``gaussian`` and ``dynamics`` load on first use of one of their names
(or of the module itself), so a process imports only the solvers it
calls.
"""

import importlib

from .errors import (
    BinCollapseError,
    CheapTalkError,
    DomainError,
    EdgeOrderingError,
    NoInformativeEquilibriumError,
    NonConvergenceError,
    QuadratureError,
    ZeroProbabilityError,
)
from .sources import SourceModel
from .equilibrium import (
    ActionProfile,
    CostReport,
    EquilibriumCertificate,
    Partition,
    certify,
    decoder_best_response,
    decoder_cost,
    encoder_best_response,
    monte_carlo_cost,
)

# the solver modules' public names (in __all__ order), each served by
# __getattr__ from the submodule that defines it on first access (PEP 562)
_LAZY = {
    **dict.fromkeys((
        "solve_two_bin",
        "solve_n_bins",
        "bias_threshold",
        "max_bins_negative_bias",
        "empirical_max_bins",
        "equal_length_defect",
        "fixed_point_length",
        "infinite_equilibrium",
        "decoder_cost_infinite",
    ), "exponential"),
    **dict.fromkeys((
        "two_bin_balance",
        "solve_two_bin_gauss",
        "solve_n_bins_gauss",
        "solve_truncated_ladder",
        "TruncatedLadder",
        "LadderResult",
        "ladder_boxes",
        "half_line_bin_bound",
        "asymptotic_bin_length",
    ), "gaussian"),
    **dict.fromkeys((
        "lloyd_method_i",
        "fixed_point_iterate",
        "basin_probe",
        "IterationTrace",
        "IterationOutcome",
        "BasinProbeSummary",
    ), "dynamics"),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    # later lookups find the name in the package namespace directly
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})


__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CheapTalkError",
    "DomainError",
    "ZeroProbabilityError",
    "QuadratureError",
    "BinCollapseError",
    "NoInformativeEquilibriumError",
    "NonConvergenceError",
    "EdgeOrderingError",
    "SourceModel",
    "Partition",
    "ActionProfile",
    "EquilibriumCertificate",
    "CostReport",
    "decoder_best_response",
    "encoder_best_response",
    "certify",
    "decoder_cost",
    "monte_carlo_cost",
    *_LAZY,
]
