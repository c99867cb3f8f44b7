"""Moduli of continuity and empirical verification of the error-bound theorems.

Three inequalities are checked against the operator oracle on an x-grid:

* first-modulus bound:   |K(f;x) - f(x)| <= 2 omega(f, sqrt(delta_n(x)))
* Lipschitz-class bound: |K(f;x) - f(x)| <= M delta_n(x)^(alpha/2)
* smoothness (K-functional) bound:
      |K(f;x) - f(x)| <= C omega2(f, sqrt(a_n(x))) + omega(f, c_n(x)),
  where a_n = delta_n + (alpha_n - x)^2 and c_n = |alpha_n - x|; the absolute
  constant C is unspecified, so only finiteness and a configurable ratio cap
  are checked.

delta_n is the oracle second central moment clamped at 0; alpha_n is the
transcribed closed-form first moment (the smoothness bound is stated with it),
and its drift from the oracle first moment is logged alongside.

Moduli are grid approximations: f is sampled on bound_domain at m points a
fixed outer step apart; sups are taken over integer lags of the grid, through
prefix-max tables that are monotone in delta by construction.  Each table is
grown on demand up to the largest lag queried so far, so one function costs
O(m * that lag) in all, at most the O(m^2) of a table over every lag, and a
query within the lags already computed is a lookup.  The lags' differences are
formed in place in one buffer.  The checks sample f on bound_domain, which
the operator fixes, so the operator's entry in operator_eval._tables keeps
the ModulusGrids they build, keyed on the function object and
MODULUS_GRID_DIV, and t34 of a bundle continues t32's tables for f_fig.  Grid
search underestimates the true sup, which only makes the bound checks
stricter where the modulus sits on the large side; the slack budget covers
the error side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .functions import RealFunction
from .moments_closed import closed_moments
from .operator_eval import SchurerConfig, _tables, evaluate_on_grid, report_grid, required_domain
from .pq_core import BLOCK_VALUES, PQPair
from .reportio import Report, config_block, json_rows

# outer sampling: MODULUS_GRID_DIV + 1 points, domain_length / MODULUS_GRID_DIV apart
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
    """Prefix-max tables for the first and second moduli of one function.

    The function is sampled once; each table is grown on demand, up to the
    largest lag queried so far, and no lag is computed twice.
    """

    def __init__(self, f: RealFunction):
        self._vals = f(np.linspace(f.lo, f.hi, MODULUS_GRID_DIV + 1))
        self.step = (f.hi - f.lo) / MODULUS_GRID_DIV
        # table of order k covers lags 0..len-1 (lag 0 gives 0), up to (m-1)//k
        self._tables = {1: np.zeros(1), 2: np.zeros(1)}

    def _lag_sups(self, order: int, lags: range) -> np.ndarray:
        """Per lag h, the sup over the grid of |v[i+h] - v[i]| (order 1) or
        |v[i+2h] - 2 v[i+h] + v[i]| (order 2).

        Each lag's differences are formed in place in one buffer, by the
        ufuncs of the expressions as written, in their order, so the sups
        are those of the expressions bit for bit.
        """
        v = self._vals
        m = len(v)
        buf, sups = np.empty(m), np.empty(len(lags))
        subtract, add, absolute, sup = np.subtract, np.add, np.absolute, np.maximum.reduce
        if order == 1:
            for i, h in enumerate(lags):
                diff = buf[: m - h]
                subtract(v[h:], v[: m - h], out=diff)
                sups[i] = sup(absolute(diff, out=diff))
        else:
            twice = 2.0 * v
            for i, h in enumerate(lags):
                diff = buf[: m - 2 * h]
                subtract(v[2 * h :], twice[h : m - h], out=diff)
                add(diff, v[: m - 2 * h], out=diff)
                sups[i] = sup(absolute(diff, out=diff))
        return sups

    def _lookup(self, order: int, delta):
        d = np.asarray(delta, dtype=float)
        # written so that a NaN is rejected too
        if not (d >= 0.0).all():
            raise ValueError(f"delta must be non-negative, got {delta!r}")
        lag = np.minimum(d / self.step + 1e-9, (len(self._vals) - 1) // order).astype(int)
        table = self._tables[order]
        top = int(lag.max(initial=0))
        if top >= len(table):
            # continue the running max from the last lag computed
            sups = self._lag_sups(order, range(len(table), top + 1))
            table = np.concatenate([table, np.maximum.accumulate(np.maximum(sups, table[-1]))])
            self._tables[order] = table
        return float(table[lag]) if d.ndim == 0 else table[lag]

    def omega(self, delta: float | np.ndarray) -> float | np.ndarray:
        """sup over grid pairs |x - y| <= delta of |f(x) - f(y)|; omega(0) = 0.

        delta is one value (giving a float) or an array of values.
        """
        return self._lookup(1, delta)

    def omega2(self, delta: float | np.ndarray) -> float | np.ndarray:
        """sup over shifts 0 < h <= delta of the second difference |f(x+2h)-2f(x+h)+f(x)|."""
        return self._lookup(2, delta)


def _modulus_grid(config: SchurerConfig, pq: PQPair, f: RealFunction) -> ModulusGrid:
    """ModulusGrid(f) of f on bound_domain(config, pq), kept with the operator's entry."""
    moduli = _tables(config, pq).moduli
    key = (f.fn, MODULUS_GRID_DIV)
    grid = moduli.get(key)
    if grid is None:
        grid = moduli[key] = ModulusGrid(f)
    return grid


def _worst_pair(xs: np.ndarray, vals: np.ndarray, m_const: float, alpha: float):
    """The largest |f_i - f_j| - M |x_i - x_j|^alpha over sample pairs, and its first (i, j).

    The excess is symmetric in the pair, so only pairs j >= i are formed,
    BLOCK_VALUES // xs.size rows of them at a time; the first worst pair in
    row-major order is that of the full table.
    """
    worst, i, j = -math.inf, 0, 0
    step = max(1, BLOCK_VALUES // xs.size)
    for start in range(0, xs.size, step):
        rows = slice(start, start + step)
        # |f_i - f_j| - M |x_i - x_j|^alpha in place: two block temporaries
        excess = vals[rows, None] - vals[None, start:]
        dist = xs[rows, None] - xs[None, start:]
        np.abs(excess, out=excess)
        np.abs(dist, out=dist)
        dist **= alpha
        dist *= m_const
        excess -= dist
        at = int(excess.argmax())
        if excess.flat[at] > worst:
            worst = float(excess.flat[at])
            i, j = start + at // excess.shape[1], start + at % excess.shape[1]
    return worst, i, j


def verify_lipschitz(f: RealFunction, m_const: float, alpha: float) -> None:
    """Reject f unless |f(s) - f(t)| <= M |s - t|^alpha + 1e-9 on 201 x 201 sampled pairs.

    A non-finite sample is rejected too.
    """
    xs = np.linspace(f.lo, f.hi, 201)
    vals = f(xs)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NotLipschitzError(
            f"{f.name} is {float(vals[bad[0]])!r} at the sampled point {xs[bad[0]]:.6g}, not finite"
        )
    worst, i, j = _worst_pair(xs, vals, m_const, alpha)
    if worst > 1e-9:
        raise NotLipschitzError(
            f"{f.name} is not Lipschitz(M={m_const:g}, alpha={alpha:g}) at sampled pairs: "
            f"|f({xs[i]:.6g}) - f({xs[j]:.6g})| exceeds the bound by {worst:.3g}"
        )


# a JSON row names the CSV columns, with the verdict fourth
JSON_ROW = {name: name for name in (*CSV_COLUMNS[:3], "passed", *CSV_COLUMNS[3:-1])}


@dataclass(frozen=True, eq=False)
class BoundReport(Report):
    theorem: str
    config: SchurerConfig
    pq: PQPair
    function_name: str
    columns: dict[str, list]
    slack: float
    all_passed: bool
    extras: dict

    kind = "bound_report"

    def json_fields(self) -> dict:
        return {
            "theorem": self.theorem,
            **config_block(self.config, self.pq),
            "function": self.function_name,
            "slack": self.slack,
            "all_passed": self.all_passed,
            "extras": self.extras,
            "rows": json_rows(JSON_ROW, self.texts),
        }


def _bound_report(
    theorem: str,
    config: SchurerConfig,
    pq: PQPair,
    f: RealFunction,
    xs: np.ndarray,
    slack: float,
    extras: dict,
    **columns: np.ndarray,
) -> BoundReport:
    """The report of named columns over xs; a column not given is all None."""
    columns = {"x": xs, **columns}
    return BoundReport(
        theorem=theorem,
        config=config,
        pq=pq,
        function_name=f.name,
        columns={
            name: columns[name].tolist() if name in columns else [None] * len(xs)
            for name in CSV_COLUMNS
        },
        slack=slack,
        all_passed=bool(columns["passed"].all()),
        extras=extras,
    )


def bound_domain(config: SchurerConfig, pq: PQPair) -> tuple[float, float]:
    """Where the bound and convergence checks sample f: the operator's arguments and [0, 1]."""
    lo, hi = required_domain(config, pq)
    return min(lo, 0.0), max(hi, 1.0)


def _errors_and_deltas(
    config: SchurerConfig, pq: PQPair, f: RealFunction, grid
) -> tuple[RealFunction, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """f on bound_domain, and the grid, |K(f;x) - f(x)|, delta_n(x) and K(t;x) on it.

    Once evaluated, f covers bound_domain, and the checks sample it there,
    whatever wider domain it was declared on.
    """
    xs = report_grid(grid)
    op = evaluate_on_grid(config, pq, (f,), xs)
    errors = np.abs(op.values[0] - f(xs))
    lo, hi = bound_domain(config, pq)
    return replace(f, lo=lo, hi=hi), xs, errors, np.maximum(op.central[1], 0.0), op.raw[1]


def _modulus_slack(config: SchurerConfig, mg: ModulusGrid) -> float:
    # quadrature truncation plus the sup the modulus grid can hide
    return 10.0 * (config.truncation_budget + mg.omega(2.0 * mg.step))


def check_t32(
    config: SchurerConfig,
    pq: PQPair,
    f: RealFunction,
    grid,
) -> BoundReport:
    """Per grid point: error <= 2 omega(f, sqrt(delta_n)) + slack.

    Violations are reported in the row flags, never raised; the inequality is
    a theorem, so a violation beyond slack indicates an implementation bug.
    """
    f, xs, errors, deltas, _ = _errors_and_deltas(config, pq, f, grid)
    mg = _modulus_grid(config, pq, f)
    slack = _modulus_slack(config, mg)
    bounds = 2.0 * mg.omega(np.sqrt(deltas))
    return _bound_report(
        "t32", config, pq, f, xs, slack, {"modulus_grid_step": mg.step},
        error=errors, delta_n=deltas, bound_t32=bounds, passed=errors <= bounds + slack,
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
    if not (m_const > 0.0 and math.isfinite(m_const)):
        raise ValueError(f"M must be finite and positive, got {m_const!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    f, xs, errors, deltas, _ = _errors_and_deltas(config, pq, f, grid)
    verify_lipschitz(f, m_const, alpha)
    budget = config.truncation_budget
    # delta_n enters through a concave power: (d - eps)^(a/2) >= d^(a/2) - eps^(a/2)
    slack = 10.0 * budget + m_const * budget ** (alpha / 2.0)
    bounds = m_const * deltas ** (alpha / 2.0)
    return _bound_report(
        "t33", config, pq, f, xs, slack, {"lipschitz_m": m_const, "lipschitz_alpha": alpha},
        error=errors, delta_n=deltas, bound_t33=bounds, passed=errors <= bounds + slack,
    )


def check_t34(
    config: SchurerConfig,
    pq: PQPair,
    f: RealFunction,
    grid,
    ratio_cap: float = DEFAULT_RATIO_CAP,
) -> BoundReport:
    """Bounded-ratio form of the smoothness bound.

    ratio = error / (omega2(f, sqrt(a_n)) + omega(f, c_n)) must be finite and
    below ratio_cap; rows with a zero denominator pass only if the error is
    within slack (then the ratio is defined as 0), otherwise they are flagged
    as degenerate and their ratio is left undefined (None).
    """
    if not (ratio_cap > 0.0 and math.isfinite(ratio_cap)):
        raise ValueError(f"ratio_cap must be finite and positive, got {ratio_cap!r}")
    f, xs, errors, deltas, oracle_m1 = _errors_and_deltas(config, pq, f, grid)
    mg = _modulus_grid(config, pq, f)
    slack = _modulus_slack(config, mg)
    alphas = closed_moments(config, pq, xs)[0]
    a_n = deltas + (alphas - xs) ** 2
    c_n = np.abs(alphas - xs)
    omega2_term = mg.omega2(np.sqrt(a_n))
    omega_term = mg.omega(c_n)
    denom = omega2_term + omega_term
    regular = denom > DENOMINATOR_FLOOR
    within = errors <= slack
    degenerate = ~regular & ~within
    ratio = np.divide(errors, denom, out=np.zeros_like(errors), where=regular)
    passed = np.where(regular, np.isfinite(ratio) & (ratio <= ratio_cap), within)
    return _bound_report(
        "t34", config, pq, f, xs, slack,
        {
            "ratio_cap": ratio_cap,
            "max_ratio": float(ratio[np.isfinite(ratio)].max(initial=0.0)),
            "degenerate_rows": int(degenerate.sum()),
            "max_alpha_oracle_drift": float(np.abs(alphas - oracle_m1).max(initial=0.0)),
            "modulus_grid_step": mg.step,
        },
        error=errors, delta_n=deltas, alpha_n=alphas, a_n=a_n, c_n=c_n,
        omega2_term=omega2_term, omega_term=omega_term,
        ratio_t34=np.where(degenerate, None, ratio), passed=passed,
    )
