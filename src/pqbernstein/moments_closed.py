"""Closed-form moment expressions and their comparison against the operator.

The closed forms below are transcribed verbatim under one declared reading of
the two-term power (c x + 1 - x)^m, namely the rising product
prod_{s=0}^{m-1} (p^s c x + q^s (1 - x)) with c = p or p^2.  They are
*hypotheses under test*: the direct operator evaluation is ground truth, the
report records absolute differences and raises a machine-readable flag when
they exceed 100x the quadrature tolerance, and nothing asserts them equal.
Known internal tensions preserved as transcribed: the first central moment
uses (p^2 x + 1 - x)^N where linearity applied to the raw first moment gives
(p x + 1 - x)^N and drops a factor [N]; the second central moment carries an
extra q on its x^2 bracket.  Measured behaviour: the raw-moment forms are
exact for N = n + ell = 1 and drift for larger N.

closed_moments gives all four closed forms in one pass, for one x or a whole
x-grid (a NumPy array), the values on a grid identical to pointwise calls.  Per
call it takes the (p,q)-integers as one vector (pq_core.pq_integers) and
computes each bracket coefficient and rising product once; a rising product
is one blocked product over the grid (pq_rising_two_term).  (p x + 1 - x)^N
is (p x + 1 - x)^{N-1} times its last factor, the order the product itself
multiplies in, so it equals the full product bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .functions import make_function
from .operator_eval import (
    BasisVariant,
    SchurerConfig,
    evaluate_on_grid,
    report_grid,
    required_domain,
)
from .pq_core import PQPair, pq_integers, pq_rising_two_term
from .reportio import Report, config_block, json_rows

INTERPRETATION_TAG = (
    "(c*x + 1 - x)^m_{p,q} read as prod_{s<m} (p^s * c * x + q^s * (1 - x))"
)

CSV_COLUMNS = (
    "x",
    "oracle_m0",
    "oracle_m1",
    "closed_m1",
    "diff_m1",
    "oracle_m2",
    "closed_m2",
    "diff_m2",
    "oracle_c1",
    "closed_c1",
    "diff_c1",
    "oracle_c2",
    "closed_c2",
    "diff_c2",
)


def _last_factor(c: float, x, m: int, pq: PQPair):
    """Factor s = m - 1 of (c x + 1 - x)^m_{p,q}, rounded as the product rounds it."""
    s = m - 1
    return pq.p**s * c * x + pq.q**s * (1.0 - x)


def closed_moments(
    config: SchurerConfig, pq: PQPair, x: float | np.ndarray
) -> tuple[float | np.ndarray, ...]:
    """The transcribed moments (m1, m2, c1, c2), discrepancies preserved, N = n + ell.

    m1 = (px+1-x)^N / ([2][n+1]) + (p+2q-1) [N] x / ([2][n+1]); m2 and c2 lead
    with (p^2 x + 1 - x)^N / ([3][n+1]^2), c1 with (p^2 x + 1 - x)^N / ([2][n+1]).
    """
    p, q = pq.p, pq.q
    big_n = config.degree
    ints = pq_integers(pq, max(3, big_n, config.n + 1))
    two, three, np1, int_n, int_n_less = ints[[2, 3, config.n + 1, big_n, big_n - 1]].tolist()
    denom, np1_sq = two * np1, np1**2
    slope = p + 2.0 * q - 1.0
    mid_coef = 1.0 + 2.0 * q / two + (q * q - 1.0) / three
    tail_coef = 1.0 + 2.0 * (q - 1.0) / two + (q - 1.0) ** 2 / three
    rising_p2 = pq_rising_two_term(p * p, 1.0, x, 1.0 - x, big_n, pq)
    rising_p_short = pq_rising_two_term(p, 1.0, x, 1.0 - x, big_n - 1, pq)
    rising_p = rising_p_short * _last_factor(p, x, big_n, pq)

    head = rising_p2 / (three * np1_sq)
    m1 = rising_p / denom + slope * int_n * x / denom
    m2 = (
        head
        + mid_coef * int_n / np1_sq * rising_p_short * x
        + tail_coef * int_n * int_n_less / np1_sq * x * x
    )
    c1 = rising_p2 / denom + (slope / denom - 1.0) * x
    c2 = (
        head
        + (mid_coef * int_n * rising_p_short / np1_sq - 2.0 * rising_p / denom) * x
        + (q * tail_coef * int_n * int_n_less / np1_sq - 2.0 * slope * int_n / denom + 1.0) * x * x
    )
    return m1, m2, c1, c2


# a JSON row groups the oracle and closed-form columns and leaves out diff_*
JSON_ROW = {
    "x": "x",
    "oracle": {key: f"oracle_{key}" for key in ("m0", "m1", "m2", "c1", "c2")},
    "closed": {key: f"closed_{key}" for key in ("m1", "m2", "c1", "c2")},
}


@dataclass(frozen=True, eq=False)
class MomentReport(Report):
    config: SchurerConfig
    pq: PQPair
    columns: dict[str, list]
    max_abs_diff: dict[str, float]
    flagged: bool
    # worst deviations of the oracle's own consistency identities
    max_m0_dev: float
    max_c1_consistency: float
    max_c2_consistency: float

    kind = "moment_report"

    @property
    def max_abs_diff_overall(self) -> float:
        return max(self.max_abs_diff.values())

    def json_fields(self) -> dict:
        return {
            **config_block(self.config, self.pq),
            "interpretation": INTERPRETATION_TAG,
            "max_abs_diff": self.max_abs_diff,
            "closed_form_discrepancy_flag": self.flagged,
            "oracle_consistency": {
                "max_m0_dev": self.max_m0_dev,
                "max_c1_dev": self.max_c1_consistency,
                "max_c2_dev": self.max_c2_consistency,
            },
            "rows": json_rows(JSON_ROW, self.texts),
        }


def build_moment_report(config: SchurerConfig, pq: PQPair, grid) -> MomentReport:
    """Oracle moments vs closed forms over an x-grid in [0, 1]."""
    xs = report_grid(grid)
    # m1 and m2 by direct means of t and t^2 (the Gauss rules wherever they
    # pay), independent of the node-moment expansion the central moments
    # come from, so the consistency fields below compare two routes; m0 is
    # the node-moment K(1; x) itself
    lo, hi = required_domain(config, pq)
    oracle = evaluate_on_grid(
        config, pq, [make_function(name, lo, hi) for name in ("e1", "e2")], xs
    )
    oracle_m0 = oracle.raw[0]
    oracle_m1, oracle_m2 = oracle.values
    oracle_c1, oracle_c2 = oracle.central
    closed_m1, closed_m2, closed_c1, closed_c2 = closed_moments(config, pq, xs)
    table = {"x": xs, "oracle_m0": oracle_m0}
    max_abs_diff = {}
    for key, oracle_col, closed_col in (
        ("m1", oracle_m1, closed_m1),
        ("m2", oracle_m2, closed_m2),
        ("c1", oracle_c1, closed_c1),
        ("c2", oracle_c2, closed_c2),
    ):
        table[f"oracle_{key}"] = oracle_col
        table[f"closed_{key}"] = closed_col
        table[f"diff_{key}"] = np.abs(closed_col - oracle_col)
        max_abs_diff[key] = float(table[f"diff_{key}"].max())
    flagged = bool(max(max_abs_diff.values()) > 100.0 * config.quad_tol)
    normalized = config.basis_variant is BasisVariant.NORMALIZED
    max_m0_dev = float(np.abs(oracle_m0 - 1.0).max()) if normalized else 0.0
    # x**2 by Python's float power (libm pow), as the per-row form computed
    # it: NumPy squares by x*x, which differs in the last bit at some points
    # of some grids linspace(0, 1, G) (the first is G = 42)
    x_squared = np.array(list(map(pow, xs.tolist(), repeat(2))))
    c2_expected = oracle_m2 - 2.0 * xs * oracle_m1 + x_squared
    return MomentReport(
        config=config,
        pq=pq,
        columns={name: table[name].tolist() for name in CSV_COLUMNS},
        max_abs_diff=max_abs_diff,
        flagged=flagged,
        max_m0_dev=max_m0_dev,
        max_c1_consistency=float(np.abs(oracle_c1 - (oracle_m1 - xs)).max()),
        max_c2_consistency=float(np.abs(oracle_c2 - c2_expected).max()),
    )
