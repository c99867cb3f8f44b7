"""Moduli of continuity and empirical verification of the error-bound theorems.

Three inequalities are checked against the operator oracle on an x-grid:

* first-modulus bound:   |K(f;x) - f(x)| <= 2 omega(f, sqrt(delta_n(x)))
* Lipschitz-class bound: |K(f;x) - f(x)| <= M delta_n(x)^(alpha/2)
* smoothness (K-functional) bound:
      |K(f;x) - f(x)| <= C omega2(f, sqrt(a_n(x))) + omega(f, c_n(x)),
  where a_n = delta_n + (alpha_n - x)^2 and c_n = |alpha_n - x|; the absolute
  constant C is unspecified, so only finiteness and a configurable ratio cap
  are checked.

delta_n is the oracle second central moment; alpha_n is the transcribed
closed-form first moment (the quantity the smoothness bound is stated with),
and its drift from the oracle first moment is logged alongside.

Moduli are grid approximations: the domain is sampled at a fixed outer step
and sups are taken over every integer lag of that grid, with prefix-max
tables so queries at any delta are O(1) and monotone in delta by
construction.  Grid search underestimates the true sup, which only makes the
bound checks stricter where the modulus sits on the large side; the slack
budget covers the error side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import RealFunction
from .moments_closed import closed_first_moment
from .operator_eval import (
    SchurerConfig,
    apply_on_grid,
    central_moments_on_grid,
)
from .pq_core import PQPair
from .reportio import fmt_float, json_text, write_text

SCHEMA_VERSION = "1"

# outer sampling: domain_length / MODULUS_GRID_DIV points
MODULUS_GRID_DIV = 2000

DEFAULT_RATIO_CAP = 50.0

# denominators below this are float-cancellation artifacts (second differences
# of smooth O(1) functions carry ~1e-16 noise), treated as exactly zero
DENOMINATOR_FLOOR = 1e-13

CSV_COLUMNS = (
    "x",
    "error",
    "delta_n",
    "bound_t32",
    "bound_t33",
    "alpha_n",
    "a_n",
    "c_n",
    "omega2_term",
    "omega_term",
    "ratio_t34",
    "passed",
)


class NotLipschitzError(ValueError):
    """The sampled pair grid contradicts the claimed Lipschitz class."""


class ModulusGrid:
    """Prefix-max tables for the first and second moduli of one function."""

    def __init__(self, f: RealFunction, grid_step: float | None = None):
        length = f.hi - f.lo
        if grid_step is None:
            grid_step = length / MODULUS_GRID_DIV
        if not 0.0 < grid_step <= length:
            raise ValueError(f"grid_step must be in (0, {length:g}], got {grid_step!r}")
        m = int(round(length / grid_step)) + 1
        xs = np.linspace(f.lo, f.hi, m)
        vals = f(xs)
        self.step = length / (m - 1)
        lag1 = np.zeros(m)
        for lag in range(1, m):
            lag1[lag] = np.abs(vals[lag:] - vals[: m - lag]).max()
        lag2 = np.zeros((m - 1) // 2 + 1)
        for lag in range(1, len(lag2)):
            lag2[lag] = np.abs(vals[2 * lag :] - 2.0 * vals[lag : m - lag] + vals[: m - 2 * lag]).max()
        self._w1 = np.maximum.accumulate(lag1)
        self._w2 = np.maximum.accumulate(lag2)

    def omega(self, delta: float) -> float:
        """sup over grid pairs |x - y| <= delta of |f(x) - f(y)|; omega(0) = 0."""
        if delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {delta!r}")
        lag = min(int(delta / self.step + 1e-9), len(self._w1) - 1)
        return float(self._w1[lag])

    def omega2(self, delta: float) -> float:
        """sup over shifts 0 < h <= delta of the second difference |f(x+2h)-2f(x+h)+f(x)|."""
        if delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {delta!r}")
        lag = min(int(delta / self.step + 1e-9), len(self._w2) - 1)
        return float(self._w2[lag])


def modulus(f: RealFunction, delta: float, grid_step: float | None = None) -> float:
    return ModulusGrid(f, grid_step).omega(delta)


def modulus2(f: RealFunction, delta: float, grid_step: float | None = None) -> float:
    return ModulusGrid(f, grid_step).omega2(delta)


def delta_n(
    config: SchurerConfig, pq: PQPair, x: float | np.ndarray
) -> float | np.ndarray:
    """Oracle second central moment at x (a point or a grid), clamped at 0 for
    use under square roots."""
    return np.maximum(central_moments_on_grid(config, pq, x)[1], 0.0)


def alpha_n(
    config: SchurerConfig, pq: PQPair, x: float | np.ndarray
) -> float | np.ndarray:
    """Transcribed closed-form first moment (the smoothness bound is stated with it)."""
    return closed_first_moment(config, pq, x)


def verify_lipschitz(
    f: RealFunction, m_const: float, alpha: float, samples: int = 201, tol: float = 1e-9
) -> None:
    """Reject f unless |f(s) - f(t)| <= M |s - t|^alpha on a sampled pair grid."""
    xs = np.linspace(f.lo, f.hi, samples)
    vals = f(xs)
    gaps = np.abs(vals[:, None] - vals[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    excess = gaps - m_const * dist**alpha
    worst = float(excess.max())
    if worst > tol:
        i, j = np.unravel_index(int(excess.argmax()), excess.shape)
        raise NotLipschitzError(
            f"{f.name} is not Lipschitz(M={m_const:g}, alpha={alpha:g}) at sampled pairs: "
            f"|f({xs[i]:.6g}) - f({xs[j]:.6g})| exceeds the bound by {worst:.3g}"
        )


@dataclass(frozen=True)
class BoundRow:
    x: float
    error: float
    delta_n: float
    passed: bool
    bound_t32: float | None = None
    bound_t33: float | None = None
    alpha_n: float | None = None
    a_n: float | None = None
    c_n: float | None = None
    omega2_term: float | None = None
    omega_term: float | None = None
    ratio_t34: float | None = None


@dataclass(frozen=True, eq=False)
class BoundReport:
    theorem: str
    config: SchurerConfig
    pq: PQPair
    function_name: str
    rows: tuple[BoundRow, ...]
    slack: float
    all_passed: bool
    extras: dict

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    fmt_float(v)
                    for v in (
                        r.x,
                        r.error,
                        r.delta_n,
                        r.bound_t32,
                        r.bound_t33,
                        r.alpha_n,
                        r.a_n,
                        r.c_n,
                        r.omega2_term,
                        r.omega_term,
                        r.ratio_t34,
                        r.passed,
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": "bound_report",
            "theorem": self.theorem,
            "config": {
                "n": self.config.n,
                "ell": self.config.ell,
                "basis_variant": self.config.basis_variant.value,
                "quad_tol": self.config.quad_tol,
            },
            "pq": {"p": self.pq.p, "q": self.pq.q},
            "function": self.function_name,
            "slack": self.slack,
            "all_passed": self.all_passed,
            "extras": self.extras,
            "rows": [
                {k: v for k, v in vars(r).items() if v is not None}
                for r in self.rows
            ],
        }
        return json_text(doc)

    def write(self, base_path: str) -> tuple[str, str]:
        csv_path = base_path + ".csv"
        json_path = base_path + ".json"
        write_text(csv_path, self.to_csv_text())
        write_text(json_path, self.to_json_text())
        return csv_path, json_path


def _errors_on_grid(
    config: SchurerConfig, pq: PQPair, f: RealFunction, xs: np.ndarray
) -> np.ndarray:
    return np.abs(apply_on_grid(config, pq, f, xs) - f(xs))


def _quad_budget(config: SchurerConfig) -> float:
    return (config.degree + 1) * config.quad_tol


def check_t32(
    config: SchurerConfig,
    pq: PQPair,
    f: RealFunction,
    grid,
    grid_step: float | None = None,
) -> BoundReport:
    """Per grid point: error <= 2 omega(f, sqrt(delta_n)) + slack.

    Violations are reported in the row flags, never raised; the inequality is
    a theorem, so a violation beyond slack indicates an implementation bug.
    """
    xs = np.asarray(grid, dtype=float)
    mg = ModulusGrid(f, grid_step)
    # slack: quadrature truncation plus the sup the modulus grid can hide
    slack = 10.0 * (_quad_budget(config) + mg.omega(2.0 * mg.step))
    errors = _errors_on_grid(config, pq, f, xs)
    deltas = delta_n(config, pq, xs)
    rows = []
    for i, x in enumerate(float(v) for v in xs):
        d = float(deltas[i])
        bound = 2.0 * mg.omega(float(np.sqrt(d)))
        rows.append(
            BoundRow(
                x=x,
                error=float(errors[i]),
                delta_n=d,
                bound_t32=bound,
                passed=bool(errors[i] <= bound + slack),
            )
        )
    return BoundReport(
        theorem="t32",
        config=config,
        pq=pq,
        function_name=f.name,
        rows=tuple(rows),
        slack=slack,
        all_passed=all(r.passed for r in rows),
        extras={"modulus_grid_step": mg.step},
    )


def check_t33(
    config: SchurerConfig,
    pq: PQPair,
    f: RealFunction,
    m_const: float,
    alpha: float,
    grid,
) -> BoundReport:
    """Per grid point: error <= M delta_n^(alpha/2) + slack, after sampling the class."""
    if not m_const > 0.0:
        raise ValueError(f"M must be positive, got {m_const!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    verify_lipschitz(f, m_const, alpha)
    xs = np.asarray(grid, dtype=float)
    budget = _quad_budget(config)
    # delta_n enters through a concave power: (d - eps)^(a/2) >= d^(a/2) - eps^(a/2)
    slack = 10.0 * budget + m_const * budget ** (alpha / 2.0)
    errors = _errors_on_grid(config, pq, f, xs)
    deltas = delta_n(config, pq, xs)
    rows = []
    for i, x in enumerate(float(v) for v in xs):
        d = float(deltas[i])
        bound = m_const * d ** (alpha / 2.0)
        rows.append(
            BoundRow(
                x=x,
                error=float(errors[i]),
                delta_n=d,
                bound_t33=bound,
                passed=bool(errors[i] <= bound + slack),
            )
        )
    return BoundReport(
        theorem="t33",
        config=config,
        pq=pq,
        function_name=f.name,
        rows=tuple(rows),
        slack=slack,
        all_passed=all(r.passed for r in rows),
        extras={"lipschitz_m": m_const, "lipschitz_alpha": alpha},
    )


def check_t34(
    config: SchurerConfig,
    pq: PQPair,
    f: RealFunction,
    grid,
    grid_step: float | None = None,
    ratio_cap: float = DEFAULT_RATIO_CAP,
) -> BoundReport:
    """Bounded-ratio form of the smoothness bound.

    ratio = error / (omega2(f, sqrt(a_n)) + omega(f, c_n)) must be finite and
    below ratio_cap; rows with a zero denominator pass only if the error is
    within slack (then the ratio is defined as 0), otherwise they are flagged
    as degenerate.
    """
    xs = np.asarray(grid, dtype=float)
    mg = ModulusGrid(f, grid_step)
    slack = 10.0 * (_quad_budget(config) + mg.omega(2.0 * mg.step))
    errors = _errors_on_grid(config, pq, f, xs)
    oracle_m1 = apply_on_grid(
        config, pq, RealFunction(lambda t: t, f.lo, f.hi, name="id"), xs
    )
    deltas = delta_n(config, pq, xs)
    alphas = alpha_n(config, pq, xs)
    rows = []
    degenerate = 0
    max_drift = 0.0
    for i, x in enumerate(float(v) for v in xs):
        d = float(deltas[i])
        a_val = float(alphas[i])
        max_drift = max(max_drift, abs(a_val - float(oracle_m1[i])))
        a_n_val = d + (a_val - x) ** 2
        c_n_val = abs(a_val - x)
        om2 = mg.omega2(float(np.sqrt(a_n_val)))
        om1 = mg.omega(c_n_val)
        denom = om2 + om1
        err = float(errors[i])
        if denom > DENOMINATOR_FLOOR:
            ratio = err / denom
            ok = np.isfinite(ratio) and ratio <= ratio_cap
        elif err <= slack:
            ratio = 0.0
            ok = True
        else:
            ratio = float("inf")
            ok = False
            degenerate += 1
        rows.append(
            BoundRow(
                x=x,
                error=err,
                delta_n=d,
                alpha_n=a_val,
                a_n=a_n_val,
                c_n=c_n_val,
                omega2_term=om2,
                omega_term=om1,
                ratio_t34=ratio,
                passed=bool(ok),
            )
        )
    finite_ratios = [r.ratio_t34 for r in rows if np.isfinite(r.ratio_t34)]
    return BoundReport(
        theorem="t34",
        config=config,
        pq=pq,
        function_name=f.name,
        rows=tuple(rows),
        slack=slack,
        all_passed=all(r.passed for r in rows),
        extras={
            "ratio_cap": ratio_cap,
            "max_ratio": max(finite_ratios) if finite_ratios else 0.0,
            "degenerate_rows": degenerate,
            "max_alpha_oracle_drift": max_drift,
            "modulus_grid_step": mg.step,
        },
    )
