"""Numerical toolkit for Kantorovich-type (p,q)-Bernstein-Schurer operators.

Evaluates the operator directly from its definition (the ground-truth path),
compares transcribed closed-form moments against it, verifies modulus-of-
continuity error bounds empirically, and drives Korovkin-type convergence
experiments from a small CLI.
"""

from .error_bounds import (
    BoundReport,
    ModulusGrid,
    NotLipschitzError,
    alpha_n,
    check_t32,
    check_t33,
    check_t34,
    delta_n,
    verify_lipschitz,
)
from .experiments import (
    ConfigError,
    FigureTable,
    KorovkinResult,
    KorovkinSchedule,
    custom_schedule,
    run_bounds,
    run_figure,
    run_korovkin,
    run_moments,
    run_selftest,
    schedule,
)
from .functions import DomainError, RealFunction, make_function
from .moments_closed import (
    MomentReport,
    build_moment_report,
    closed_central_moments,
    closed_first_moment,
    closed_second_moment,
)
from .operator_eval import (
    BasisVariant,
    NumericalRangeError,
    SchurerConfig,
    apply,
    apply_central_moment,
    apply_many_on_grid,
    apply_on_grid,
    basis_matrix,
    basis_row,
    central_moments_on_grid,
    evaluate_on_grid,
    raw_moments_on_grid,
    required_domain,
)
from .pq_core import (
    PQPair,
    pq_integer,
    pq_rising_two_term,
)
from .pq_quadrature import QuadratureRule, TruncationError, build_rule, integrate

__version__ = "0.1.0"

__all__ = [
    "BasisVariant",
    "BoundReport",
    "ConfigError",
    "DomainError",
    "FigureTable",
    "KorovkinResult",
    "KorovkinSchedule",
    "ModulusGrid",
    "MomentReport",
    "NotLipschitzError",
    "NumericalRangeError",
    "PQPair",
    "QuadratureRule",
    "RealFunction",
    "SchurerConfig",
    "TruncationError",
    "alpha_n",
    "apply",
    "apply_central_moment",
    "apply_many_on_grid",
    "apply_on_grid",
    "basis_matrix",
    "basis_row",
    "build_moment_report",
    "build_rule",
    "central_moments_on_grid",
    "check_t32",
    "check_t33",
    "check_t34",
    "closed_central_moments",
    "closed_first_moment",
    "closed_second_moment",
    "custom_schedule",
    "delta_n",
    "evaluate_on_grid",
    "integrate",
    "make_function",
    "pq_integer",
    "pq_rising_two_term",
    "raw_moments_on_grid",
    "required_domain",
    "run_bounds",
    "run_figure",
    "run_korovkin",
    "run_moments",
    "run_selftest",
    "schedule",
    "verify_lipschitz",
]
