"""Experiment drivers behind the command-line interface.

Korovkin convergence runs, figure-data emission, moment and bound reports,
and the selftest's check functions (shared with the acceptance tests).  All
outputs are deterministic: identical inputs give byte-identical CSV/JSON (no
timestamps in data files).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .error_bounds import (
    DEFAULT_RATIO_CAP,
    BoundReport,
    bound_domain,
    check_t32,
    check_t33,
    check_t34,
)
from .functions import LIPSCHITZ_DATA, RealFunction, make_function
from .moments_closed import MomentReport, build_moment_report
from .operator_eval import (
    BasisVariant,
    SchurerConfig,
    apply,
    apply_on_grid,
    basis_matrix,
    evaluate_on_grid,
    required_domain,
)
from .pq_core import PQPair, pq_integers
from .pq_quadrature import build_rule
from .qreference import q_kantorovich_schurer
from .reportio import Report, json_array, json_rows

KOROVKIN_FUNCTIONS = ("e0", "e1", "e2", "f_fig")
CONVERGENCE_FLAGGED = ("e1", "e2", "f_fig")

# Artifact defaults for the figure emitter, chosen to display the convergence
# trend; the source figures state no parameter values.
FIGURE_DEFAULT_PARAMS = ((0.95, 0.90, 10), (0.98, 0.95, 30), (0.999, 0.99, 100))

DEFAULT_SCHEDULE_GUARD = 0.01

# x-grid size of every run; the other run defaults are SchurerConfig's fields
DEFAULT_GRID_SIZE = 101


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


@dataclass(frozen=True, eq=False)
class KorovkinSchedule:
    """Rule (p_n, q_n) per degree, with q_n < p_n <= 1 and both tending to 1."""

    name: str
    pair_fn: Callable[[int], tuple[float, float]]

    def pair(self, n: int) -> PQPair:
        p, q = self.pair_fn(n)
        try:
            return PQPair(p, q)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"schedule {self.name!r} invalid at n={n}: {exc}") from exc

    def validate(
        self, n_list: Sequence[int], guard: float = DEFAULT_SCHEDULE_GUARD
    ) -> list[PQPair]:
        """The pair of each n in n_list, once the pair of the largest n is within guard of 1."""
        # a NaN or +inf guard would let every schedule pass the test below
        if not math.isfinite(guard):
            raise ConfigError(f"schedule guard must be finite, got {guard!r}")
        if not n_list:
            raise ConfigError("a schedule is validated on at least one degree n")
        pairs = [self.pair(n) for n in n_list]
        top_n, top = max(zip(n_list, pairs), key=lambda entry: entry[0])
        if 1.0 - top.p >= guard or 1.0 - top.q >= guard:
            raise ConfigError(
                f"schedule {self.name!r} not close enough to 1 at n={top_n}: "
                f"p={top.p:.6g}, q={top.q:.6g} (guard {guard:g})"
            )
        return pairs


def schedule(name: str) -> KorovkinSchedule:
    """Built-in schedules by name: "classic" or "q-only".

    classic: q_n = 1 - 1/(n+1) and p_n = 1 - 1/(n+1)^2.  p must approach 1 a
    full order faster than q because the basis reproduces degree-one data only
    up to factors p^(N-k); schedules with n(1 - p_n) bounded away from 0 leave
    the sup error stalled.
    """
    if name == "classic":
        return KorovkinSchedule(
            "classic", lambda n: (1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))
        )
    if name == "q-only":
        return KorovkinSchedule("q-only", lambda n: (1.0, 1.0 - 1.0 / (n + 1)))
    raise ConfigError(f"unknown schedule {name!r}; built-ins are 'classic' and 'q-only'")


def custom_schedule(
    n_list: Sequence[int], p_list: Sequence[float], q_list: Sequence[float]
) -> KorovkinSchedule:
    if not (len(n_list) == len(p_list) == len(q_list)):
        raise ConfigError(
            f"custom schedule lists must align: {len(n_list)} n's, "
            f"{len(p_list)} p's, {len(q_list)} q's"
        )
    ns = [_integer(n, "degree n") for n in n_list]
    table = {n: (p, q) for n, p, q in zip(ns, p_list, q_list)}
    if len(table) < len(ns):
        raise ConfigError(f"custom schedule degrees must be distinct, got {ns}")

    def pair_fn(n: int) -> tuple[float, float]:
        if n not in table:
            raise ConfigError(f"custom schedule has no entry for n={n}")
        return table[n]

    return KorovkinSchedule("custom", pair_fn)


def _validate_run_grid(grid_size: int) -> np.ndarray:
    size = _integer(grid_size, "grid size")
    if size < 2:
        raise ConfigError(f"grid size must be >= 2, got {size}")
    return np.linspace(0.0, 1.0, size)


def _integer(value, what: str) -> int:
    """value as an int; a bool or a value that is not an integer (6.5, NaN, "6") is rejected."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc
    if k != value or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return k


def _validate_n_list(n_list: Sequence[int]) -> list[int]:
    ns = [_integer(n, "degree n") for n in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"n list must be non-empty and strictly increasing, got {ns}")
    return ns


KOROVKIN_JSON_ROW = {
    "n": "n",
    "p": "p",
    "q": "q",
    "sup_errors": {name: f"sup_err_{name}" for name in KOROVKIN_FUNCTIONS},
    "decreasing": {name: f"decreasing_{name}" for name in CONVERGENCE_FLAGGED},
}


@dataclass(frozen=True, eq=False)
class KorovkinResult(Report):
    schedule_name: str
    ell: int
    grid_size: int
    quad_tol: float
    basis_variant: BasisVariant
    columns: dict[str, list]
    converged: bool
    e0_within_budget: bool

    kind = "korovkin_run"

    @property
    def all_passed(self) -> bool:
        return self.converged and self.e0_within_budget

    def json_fields(self) -> dict:
        return {
            "schedule": self.schedule_name,
            "ell": self.ell,
            "grid_size": self.grid_size,
            "quad_tol": self.quad_tol,
            "basis_variant": self.basis_variant.value,
            "converged": self.converged,
            "e0_within_budget": self.e0_within_budget,
            "rows": json_rows(KOROVKIN_JSON_ROW, self.texts),
        }


def run_korovkin(
    sched: KorovkinSchedule,
    n_list: Sequence[int],
    ell: int = SchurerConfig.ell,
    grid_size: int = DEFAULT_GRID_SIZE,
    quad_tol: float = SchurerConfig.quad_tol,
    basis_variant: BasisVariant = SchurerConfig.basis_variant,
    guard: float = DEFAULT_SCHEDULE_GUARD,
) -> KorovkinResult:
    """Sup-norm errors of K(f) - f over the grid, per n and per test function."""
    ns = _validate_n_list(n_list)
    pairs = sched.validate(ns, guard=guard)
    xs = _validate_run_grid(grid_size)
    sup_errors: dict[str, list[float]] = {name: [] for name in KOROVKIN_FUNCTIONS}
    e0_ok = True
    for n, pq in zip(ns, pairs):
        config = SchurerConfig(n=n, ell=ell, basis_variant=basis_variant, quad_tol=quad_tol)
        fig = make_function("f_fig", *bound_domain(config, pq))
        op = evaluate_on_grid(config, pq, (fig,), xs)
        # in KOROVKIN_FUNCTIONS order; e0, e1, e2 from the raw moment means,
        # which are the same truncated rule
        m0, m1, m2 = op.raw
        residuals = (m0 - 1.0, m1 - xs, m2 - xs**2, op.values[0] - fig(xs))
        for sups, residual in zip(sup_errors.values(), residuals):
            sups.append(float(np.abs(residual).max()))
        # partition of unity keeps e0 at the truncation floor
        if sup_errors["e0"][-1] > 10.0 * config.truncation_budget:
            e0_ok = False
    # the first degree has nothing to decrease from
    decreasing = {
        name: [None] + [b < a for a, b in zip(sup_errors[name], sup_errors[name][1:])]
        for name in CONVERGENCE_FLAGGED
    }
    return KorovkinResult(
        schedule_name=sched.name,
        ell=ell,
        grid_size=xs.size,
        quad_tol=quad_tol,
        basis_variant=basis_variant,
        columns={
            "n": ns,
            "p": [pq.p for pq in pairs],
            "q": [pq.q for pq in pairs],
            **{f"sup_err_{name}": sup_errors[name] for name in KOROVKIN_FUNCTIONS},
            **{f"decreasing_{name}": decreasing[name] for name in CONVERGENCE_FLAGGED},
        },
        converged=all(all(flags[1:]) for flags in decreasing.values()),
        e0_within_budget=e0_ok,
    )


@dataclass(frozen=True, eq=False)
class FigureTable(Report):
    ell: int
    grid_size: int
    quad_tol: float
    basis_variant: BasisVariant
    params: tuple[tuple[float, float, int], ...]
    columns: dict[str, list]

    kind = "figure_data"

    def json_fields(self) -> dict:
        arrays = {name: json_array(texts) for name, texts in self.texts.items()}
        _, _, *curves = arrays.items()  # after x and f, one column per label
        return {
            "function": "f_fig",
            "ell": self.ell,
            "grid_size": self.grid_size,
            "quad_tol": self.quad_tol,
            "basis_variant": self.basis_variant.value,
            "params": [list(t) for t in self.params],
            "x": arrays["x"],
            "f": arrays["f"],
            "columns": dict(curves),
        }


def _label_number(v: float) -> str:
    # :g keeps 6 significant digits, so it names v only if it reads back as v
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def _figure_label(p: float, q: float, n: int) -> str:
    return f"K_p{_label_number(p)}_q{_label_number(q)}_n{n}"


def run_figure(
    params: Sequence[tuple[float, float, int]] = FIGURE_DEFAULT_PARAMS,
    ell: int = SchurerConfig.ell,
    grid_size: int = DEFAULT_GRID_SIZE,
    quad_tol: float = SchurerConfig.quad_tol,
    basis_variant: BasisVariant = SchurerConfig.basis_variant,
) -> FigureTable:
    """Columns of K(f_fig) for each (p, q, n) triple next to f_fig itself."""
    if not params:
        raise ConfigError("figure needs at least one (p, q, n) triple")
    operators = [(PQPair(p, q), _integer(n, "degree n")) for p, q, n in params]
    triples = tuple((pq.p, pq.q, n) for pq, n in operators)
    if len(set(triples)) < len(triples):
        raise ConfigError("figure (p, q, n) triples must be distinct")
    xs = _validate_run_grid(grid_size)
    columns = {"x": xs.tolist()}
    for pq, n in operators:
        config = SchurerConfig(n=n, ell=ell, basis_variant=basis_variant, quad_tol=quad_tol)
        f = make_function("f_fig", *bound_domain(config, pq))
        if "f" not in columns:
            columns["f"] = f(xs).tolist()
        columns[_figure_label(pq.p, pq.q, n)] = apply_on_grid(config, pq, f, xs).tolist()
    return FigureTable(
        ell=ell,
        grid_size=xs.size,
        quad_tol=quad_tol,
        basis_variant=basis_variant,
        params=triples,
        columns=columns,
    )


def run_moments(
    config: SchurerConfig, pq: PQPair, grid_size: int = DEFAULT_GRID_SIZE
) -> MomentReport:
    xs = _validate_run_grid(grid_size)
    return build_moment_report(config, pq, xs)


def run_bounds(
    theorem: str,
    config: SchurerConfig,
    pq: PQPair,
    function_name: str = "f_fig",
    grid_size: int = DEFAULT_GRID_SIZE,
    ratio_cap: float | None = None,
    lipschitz: tuple[float, float] | None = None,
) -> BoundReport:
    """One bound check of a built-in function over the run grid.

    ratio_cap applies to t34 only (None: DEFAULT_RATIO_CAP) and lipschitz to
    t33 only (None: the function's built-in data); either one passed with
    another theorem raises ConfigError.
    """
    if theorem not in ("t32", "t33", "t34"):
        raise ConfigError(f"unknown theorem {theorem!r}; choose t32, t33 or t34")
    if lipschitz is not None and theorem != "t33":
        # the flags are named too: the CLI passes them through unchecked
        raise ConfigError(
            f"Lipschitz data (M, alpha; --lip-m, --lip-alpha) apply to t33 only, not {theorem}"
        )
    if ratio_cap is not None and theorem != "t34":
        raise ConfigError(f"a ratio cap applies to t34 only, not {theorem}")
    if theorem == "t33" and lipschitz is None:
        lipschitz = LIPSCHITZ_DATA.get(function_name)
        if lipschitz is None:
            raise ConfigError(
                f"{function_name!r} has no built-in Lipschitz data; pass M and alpha"
            )
    xs = _validate_run_grid(grid_size)
    f = make_function(function_name, *bound_domain(config, pq))
    if theorem == "t32":
        return check_t32(config, pq, f, xs)
    if theorem == "t34":
        cap = DEFAULT_RATIO_CAP if ratio_cap is None else ratio_cap
        return check_t34(config, pq, f, xs, ratio_cap=cap)
    m_const, alpha = lipschitz
    return check_t33(config, pq, f, m_const, alpha, xs)


@dataclass(frozen=True)
class SelftestCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, eq=False)
class SelftestResult:
    checks: tuple[SelftestCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def matrix_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(f"selftest: {len(self.checks)} checks, {n_fail} failures")
        return "\n".join(lines) + "\n"


def _variants(configs) -> str:
    return ",".join(sorted({c.basis_variant.value for c in configs}))


def check_quadrature_monomials(pairs: Sequence[PQPair]) -> SelftestCheck:
    """The rule at tol 1e-12 integrates t^m, m = 0..6, to 1/[m+1] within 1e-11."""
    worst = 0.0
    for pq in pairs:
        rule = build_rule(pq, 1e-12)
        ints = pq_integers(pq, 7)
        for m in range(7):
            value = rule.weights @ rule.nodes**m
            worst = max(worst, abs(value - 1.0 / ints[m + 1]))
    return SelftestCheck("quadrature-monomials", worst <= 1e-11, f"max_err={worst:.3e}")


def check_quadrature_weight_sum(pairs: Sequence[PQPair]) -> SelftestCheck:
    """The weights at tol 1e-12 plus the tail bound sum to 1 within 1e-13."""
    worst = 0.0
    for pq in pairs:
        rule = build_rule(pq, 1e-12)
        worst = max(worst, abs(rule.weights.sum() + rule.tail_bound - 1.0))
    return SelftestCheck("quadrature-weight-sum", worst <= 1e-13, f"max_err={worst:.3e}")


def check_partition_of_unity(cases: Sequence[tuple]) -> SelftestCheck:
    """Each (config, pq) case's basis sums to 1 within 1e-12 at 101 points of [0, 1]."""
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 101)
    for config, pq in cases:
        totals = basis_matrix(config, pq, xs).sum(axis=-1)
        worst = max(worst, float(np.abs(totals - 1.0).max()))
    name = f"partition-of-unity[{_variants(c for c, _ in cases)}]"
    return SelftestCheck(name, worst <= 1e-12, f"max|sum-1|={worst:.3e}")


def check_constant_reproduction(cases: Sequence[tuple]) -> SelftestCheck:
    """Each (config, pq, xs, budget) case keeps |K(1; x) - 1| within its budget."""
    worst = 0.0  # deviation over each case's own budget
    for config, pq, xs, budget in cases:
        f = make_function("e0", *bound_domain(config, pq))
        for x in xs:
            worst = max(worst, abs(apply(config, pq, f, x) - 1.0) / budget)
    name = f"constant-reproduction[{_variants(c for c, *_ in cases)}]"
    detail = f"max|K(1;x)-1| at {worst:.3g}x the truncation budget"
    return SelftestCheck(name, worst <= 1.0, detail)


def check_p1_reduction(cases: Sequence[tuple]) -> SelftestCheck:
    """At p = 1, each (config, q, x, c) case matches the q-operator within 1e-9.

    The integrand is the polynomial sum_i c_i t^i."""
    worst = 0.0
    for config, q, x, coefs in cases:
        pq = PQPair(1.0, q)
        lo, hi = required_domain(config, pq)

        def poly(t, c=coefs):
            return sum((c[i] * t**i for i in range(1, len(c))), c[0])

        ours = apply(config, pq, RealFunction(poly, lo, hi, name="poly"), x)
        ref = q_kantorovich_schurer(config.n, config.ell, q, poly, x, config.quad_tol)
        worst = max(worst, abs(ours - ref))
    return SelftestCheck("p1-reduction-vs-reference", worst <= 1e-9, f"max_err={worst:.3e}")


def run_selftest(basis_variant: BasisVariant = SchurerConfig.basis_variant) -> SelftestResult:
    """Quadrature identities, partition of unity, constant reproduction, p=1 reduction.

    Each check is a function of its case list; the acceptance tests call the
    same functions with wider lists.  With the printed basis and p < 1 the
    partition and constant checks fail by design; that is the documented
    witness, not a bug.
    """
    pairs = [PQPair(1.0, 0.5), PQPair(0.9, 0.8), PQPair(0.99, 0.98)]
    partition = [
        (SchurerConfig(n=big_n, ell=0, basis_variant=basis_variant), pq)
        for pq in pairs
        for big_n in (1, 2, 4, 8, 16, 32, 64)
    ]
    constant = []
    for pq, (n, ell) in zip(pairs, ((5, 0), (10, 2), (20, 1))):
        config = SchurerConfig(n=n, ell=ell, basis_variant=basis_variant)
        constant.append((config, pq, (0.0, 0.25, 0.5, 0.75, 1.0), config.truncation_budget))

    rng = np.random.default_rng(20240704)
    reduction = []
    for _ in range(5):
        n = int(rng.integers(2, 20))
        ell = int(rng.integers(0, 3))
        q = float(rng.uniform(0.5, 0.95))
        x = float(rng.uniform(0.0, 1.0))
        coefs = rng.uniform(-1.0, 1.0, size=3)
        config = SchurerConfig(n=n, ell=ell, basis_variant=basis_variant, quad_tol=1e-12)
        reduction.append((config, q, x, coefs))

    checks = (
        (check_quadrature_monomials, pairs),
        (check_quadrature_weight_sum, pairs),
        (check_partition_of_unity, partition),
        (check_constant_reproduction, constant),
        (check_p1_reduction, reduction),
    )
    return SelftestResult(tuple(check(cases) for check, cases in checks))
