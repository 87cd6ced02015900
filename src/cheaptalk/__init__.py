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
"""

from .errors import (
    BinCollapseError,
    CheapTalkError,
    DomainError,
    EdgeOrderingError,
    InvalidBracketError,
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
from .exponential import (
    bias_threshold,
    decoder_cost_infinite,
    empirical_max_bins,
    equal_length_defect,
    fixed_point_length,
    infinite_equilibrium,
    max_bins_negative_bias,
    solve_n_bins,
    solve_two_bin,
)
from .gaussian import (
    LadderResult,
    TruncatedLadder,
    asymptotic_bin_length,
    half_line_bin_bound,
    ladder_boxes,
    solve_n_bins_gauss,
    solve_truncated_ladder,
    solve_two_bin_gauss,
    two_bin_balance,
)
from .dynamics import (
    BasinProbeSummary,
    IterationOutcome,
    IterationTrace,
    basin_probe,
    fixed_point_iterate,
    lloyd_method_i,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CheapTalkError",
    "DomainError",
    "InvalidBracketError",
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
    "solve_two_bin",
    "solve_n_bins",
    "bias_threshold",
    "max_bins_negative_bias",
    "empirical_max_bins",
    "equal_length_defect",
    "fixed_point_length",
    "infinite_equilibrium",
    "decoder_cost_infinite",
    "two_bin_balance",
    "solve_two_bin_gauss",
    "solve_n_bins_gauss",
    "solve_truncated_ladder",
    "TruncatedLadder",
    "LadderResult",
    "ladder_boxes",
    "half_line_bin_bound",
    "asymptotic_bin_length",
    "lloyd_method_i",
    "fixed_point_iterate",
    "basin_probe",
    "IterationTrace",
    "IterationOutcome",
    "BasinProbeSummary",
]
