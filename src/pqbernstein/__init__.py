"""Numerical toolkit for Kantorovich-type (p,q)-Bernstein-Schurer operators.

Evaluates the operator directly from its definition (the ground-truth path),
compares transcribed closed-form moments against it, verifies modulus-of-
continuity error bounds empirically, and drives Korovkin-type convergence
experiments from a small CLI.
"""

from . import operator_eval, reportio
from .error_bounds import (
    BoundReport,
    ModulusGrid,
    NotLipschitzError,
    check_t32,
    check_t33,
    check_t34,
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
    closed_moments,
)
from .operator_eval import (
    BasisVariant,
    NumericalRangeError,
    SchurerConfig,
    apply,
    apply_central_moment,
    apply_on_grid,
    basis_matrix,
    evaluate_on_grid,
    required_domain,
)
from .pq_core import (
    PQPair,
    pq_rising_two_term,
)
from .pq_quadrature import QuadratureRule, TruncationError, build_rule

__version__ = "0.1.0"


def clear_all() -> None:
    """Forget everything kept between calls: the operator entry in use and the float-column texts."""
    operator_eval._tables.cache_clear()
    reportio._float_texts.cache_clear()


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
    "apply",
    "apply_central_moment",
    "apply_on_grid",
    "basis_matrix",
    "build_moment_report",
    "build_rule",
    "check_t32",
    "check_t33",
    "check_t34",
    "clear_all",
    "closed_moments",
    "custom_schedule",
    "evaluate_on_grid",
    "make_function",
    "pq_rising_two_term",
    "required_domain",
    "run_bounds",
    "run_figure",
    "run_korovkin",
    "run_moments",
    "run_selftest",
    "schedule",
    "verify_lipschitz",
]
