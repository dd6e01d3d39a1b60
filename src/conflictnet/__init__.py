"""Equilibria of multi-battle conflict networks.

Players fight simultaneously over many prizes; each battle awards its prize
by a logit contest over transformed efforts, and each player pays a convex
cost of her total effort.  The package solves the Nash equilibrium both when
players may differentiate effort across battles (discriminatory effort) and
when they must use one level everywhere (uniform effort), compares the two
regimes, and probes when the regimes are exactly equivalent.
"""

from .analysis import (
    ComparisonReport,
    CurvatureVerdict,
    NeutralityReport,
    classify_h,
    compare_regimes,
    neutrality_check,
    tullock_closed_form_total,
)
from .equilibrium import DEResult, UEResult, reverse_valuations, solve_de, solve_ue
from .errors import (
    BracketFailure,
    ConflictNetError,
    DimensionTooLarge,
    NoConvergence,
    NonFiniteEvaluation,
    PreconditionViolation,
    UnknownExample,
    UnknownPlayer,
)
from .functions import (
    CaraProduction,
    CostFunction,
    PiecewisePowerAffineProduction,
    PowerCost,
    PowerProduction,
    ProductionFunction,
    RatioProduction,
    ValidityReport,
    validate_production,
)
from .general_solver import (
    IterationConfig,
    SolveOutcome,
    best_response,
    brute_force_nash,
    solve_nash_iterative,
    solve_nash_ue_iterative,
)
from .generators import generate_example, generate_simplex, generate_triangle
from .io import (
    SchemaViolation,
    dump_network,
    load_network,
    network_from_dict,
    network_to_dict,
)
from .network import (
    Battle,
    ConflictNetwork,
    EffortProfile,
    SemiSymmetricStructure,
    SemiSymmetryViolations,
    check_semi_symmetry,
    payoff,
    winning_probabilities,
)
from .rootfind import BracketingConfig, brent_increasing
from .sweep import SweepAxis, SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Battle",
    "BracketFailure",
    "BracketingConfig",
    "CaraProduction",
    "ComparisonReport",
    "ConflictNetError",
    "ConflictNetwork",
    "CostFunction",
    "CurvatureVerdict",
    "DEResult",
    "DimensionTooLarge",
    "EffortProfile",
    "IterationConfig",
    "NeutralityReport",
    "NoConvergence",
    "NonFiniteEvaluation",
    "PiecewisePowerAffineProduction",
    "PowerCost",
    "PowerProduction",
    "PreconditionViolation",
    "ProductionFunction",
    "RatioProduction",
    "SchemaViolation",
    "SemiSymmetricStructure",
    "SemiSymmetryViolations",
    "SolveOutcome",
    "SweepAxis",
    "SweepSpec",
    "UEResult",
    "UnknownExample",
    "UnknownPlayer",
    "ValidityReport",
    "best_response",
    "brent_increasing",
    "brute_force_nash",
    "check_semi_symmetry",
    "classify_h",
    "compare_regimes",
    "dump_network",
    "generate_example",
    "generate_simplex",
    "generate_triangle",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "neutrality_check",
    "payoff",
    "reverse_valuations",
    "run_sweep",
    "solve_de",
    "solve_nash_iterative",
    "solve_nash_ue_iterative",
    "solve_ue",
    "tullock_closed_form_total",
    "validate_production",
    "winning_probabilities",
]
