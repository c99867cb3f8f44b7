"""Scalar reference formulas the tests compare the package against.

Each evaluates one definition term by term in plain floats: the
(p,q)-integer as a correctly rounded sum of its terms, the (p,q)-factorial,
binomial, falling power and rising two-term product, a single basis value,
one Kantorovich argument, a quadrature rule applied to a function, the
moduli of continuity of a function, the modulus tables built in full over
every lag, the Lipschitz check over the full pair table, the CSV writer
that formats cell by cell, and the JSON writer that builds each row as a
dict and encodes it with ``json``.
``exact_basis_rows`` is the exception: it evaluates the basis exactly in
rational arithmetic.
"""

import json
import math
from fractions import Fraction

import numpy as np

from pqbernstein.error_bounds import JSON_ROW as BOUND_JSON_ROW
from pqbernstein.error_bounds import MODULUS_GRID_DIV, ModulusGrid, NotLipschitzError
from pqbernstein.experiments import KOROVKIN_JSON_ROW
from pqbernstein.functions import DOMAIN_EDGE_TOL, DomainError, RealFunction
from pqbernstein.moments_closed import JSON_ROW as MOMENT_JSON_ROW
from pqbernstein.operator_eval import SchurerConfig, basis_matrix
from pqbernstein.pq_core import PQPair
from pqbernstein.pq_quadrature import QuadratureRule
from pqbernstein.reportio import SCHEMA_VERSION


def pq_integer(n: int, pq: PQPair) -> float:
    """[n]_{p,q} = sum_{i=0}^{n-1} p^(n-1-i) q^i, with [0] = 0.

    The summation form equals (p^n - q^n)/(p - q) algebraically but does not
    cancel catastrophically as p -> q.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    p, q = pq.p, pq.q
    return math.fsum(p ** (n - 1 - i) * q**i for i in range(n))


def pq_factorial(n: int, pq: PQPair) -> float:
    """[n]_{p,q}! = prod_{k=1}^{n} [k]_{p,q}, with [0]! = 1."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    out = 1.0
    for k in range(1, n + 1):
        out *= pq_integer(k, pq)
    return out


def pq_binomial(n: int, k: int, pq: PQPair) -> float:
    """[n k]_{p,q} = [n]!/([k]! [n-k]!); k outside [0, n] gives 0."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0.0
    return pq_factorial(n, pq) / (pq_factorial(k, pq) * pq_factorial(n - k, pq))


def pq_power_falling(x: float, m: int, pq: PQPair) -> float:
    """(1-x)^m_{p,q} = prod_{s=0}^{m-1} (p^s - q^s x); empty product for m = 0."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    p, q = pq.p, pq.q
    out = 1.0
    for s in range(m):
        out *= p**s - q**s * x
    return out


def rising_two_term_loop(a: float, b: float, x, y, m: int, pq: PQPair):
    """(ax + by)^m_{p,q} = prod_{s=0}^{m-1} (p^s a x + q^s b y), one factor at a time.

    The scalar loop the blocked product must reproduce bit for bit; x and y
    may be NumPy arrays, and m = 0 gives the float 1.0 for any input.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    p, q = pq.p, pq.q
    out = 1.0
    for s in range(m):
        out *= p**s * a * x + q**s * b * y
    return out


def basis(config: SchurerConfig, pq: PQPair, k: int, x: float) -> float:
    """Single basis value; k outside [0, n+ell] gives 0."""
    if k < 0 or k > config.degree:
        return 0.0
    return float(basis_matrix(config, pq, x)[k])


def exact_basis_rows(
    big_n: int, p: Fraction, q: Fraction, xs, normalized: bool
) -> list[list[float]]:
    """Basis rows of degree N at rational p, q and each rational x, correctly rounded.

    Term k of the printed basis is [N k]_{p,q} x^k prod_{s<N-k} (p^s - q^s x);
    the normalized basis multiplies it by p^{(k(k-1) - N(N-1))/2}.  With
    p = a/d, q = b/d and x = u/w in integers, [j]_{p,q} = I_j / d^(j-1) with
    I_{j+1} = b I_j + a^j, and [N k]_{p,q} = B_k / d^(k(N-k)) with the integer
    B_k = B_{k-1} I_{N-k+1} / I_k, a division that is exact.  Term k is then

        B_k u^k P_{N-k} / (w^N d^E_k)   printed,
        B_k u^k P_{N-k} / (w^N a^E_k)   normalized,

    where P_m = prod_{s<m} (a^s w - b^s u) and E_k = (N(N-1) - k(k-1))/2, so
    every value is one quotient of integers, rounded once to a float.
    """
    d = math.lcm(p.denominator, q.denominator)
    a, b = int(p * d), int(q * d)
    ints = [0]
    for j in range(big_n):
        ints.append(b * ints[-1] + a**j)
    binom = [1]
    for k in range(1, big_n + 1):
        binom.append(binom[-1] * ints[big_n - k + 1] // ints[k])
    base = a if normalized else d
    scale = [1]  # base^E_k for k = N down to 0; E_{k-1} - E_k = k - 1
    for k in range(big_n, 0, -1):
        scale.append(scale[-1] * base ** (k - 1))
    scale.reverse()
    rows = []
    for x in xs:
        u, w = x.numerator, x.denominator
        falling = [1]
        for s in range(big_n):
            falling.append(falling[-1] * (a**s * w - b**s * u))
        rows.append(
            [
                binom[k] * u**k * falling[big_n - k] / (w**big_n * scale[k])
                for k in range(big_n + 1)
            ]
        )
    return rows


def argument(k: int, t: float, config: SchurerConfig, pq: PQPair) -> float:
    """Kantorovich argument [k]/[n+1] + ([k+1]-[k]) t/[n+1] (both read as [.]_{p,q}).

    The slope is evaluated as ((q-1)[k] + p^k)/[n+1], exact by the recurrence
    [k+1] = q[k] + p^k; it is negative for large k when p < 1, so the argument
    is affine but not always increasing in t.
    """
    denom = pq_integer(config.n + 1, pq)
    ik = pq_integer(k, pq)
    return ik / denom + ((pq.q - 1.0) * ik + pq.p**k) / denom * t


def integrate(rule: QuadratureRule, f: RealFunction) -> float:
    """sum_j w_j f(t_j); truncation error is at most sup|f| * rule.tail_bound."""
    if f.lo > 0.0 + DOMAIN_EDGE_TOL or f.hi < rule.top_node - DOMAIN_EDGE_TOL:
        raise DomainError(
            f"integrand {f.name} must cover [0, {rule.top_node:.6g}] "
            f"(declared domain [{f.lo:.6g}, {f.hi:.6g}])"
        )
    return float(np.dot(rule.weights, f(rule.nodes)))


def modulus(f, delta: float) -> float:
    return ModulusGrid(f).omega(delta)


def modulus2(f, delta: float) -> float:
    return ModulusGrid(f).omega2(delta)


class FullModulusGrid:
    """ModulusGrid with both prefix-max tables built over every lag up front.

    Same sampling, per-lag expressions and lookup as ModulusGrid, so its
    values must agree bit for bit with the on-demand tables.
    """

    def __init__(self, f, grid_step=None):
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

    def _lookup(self, table, delta):
        d = np.asarray(delta, dtype=float)
        if not (d >= 0.0).all():
            raise ValueError(f"delta must be non-negative, got {delta!r}")
        lag = np.minimum(d / self.step + 1e-9, len(table) - 1).astype(int)
        return float(table[lag]) if d.ndim == 0 else table[lag]

    def omega(self, delta):
        return self._lookup(self._w1, delta)

    def omega2(self, delta):
        return self._lookup(self._w2, delta)


def worst_pair_full(xs, vals, m_const: float, alpha: float):
    """The worst excess |f_i - f_j| - M |x_i - x_j|^alpha over the full pair table, first (i, j).

    One (m, m) table over every ordered pair, as verify_lipschitz formed it
    before it scanned half of it in row blocks.
    """
    gaps = np.abs(vals[:, None] - vals[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    excess = gaps - m_const * dist**alpha
    i, j = np.unravel_index(int(excess.argmax()), excess.shape)
    return float(excess.max()), int(i), int(j)


def verify_lipschitz_full(f: RealFunction, m_const: float, alpha: float) -> None:
    """verify_lipschitz on the full 201 x 201 table of finite samples: the same message."""
    xs = np.linspace(f.lo, f.hi, 201)
    worst, i, j = worst_pair_full(xs, f(xs), m_const, alpha)
    if worst > 1e-9:
        raise NotLipschitzError(
            f"{f.name} is not Lipschitz(M={m_const:g}, alpha={alpha:g}) at sampled pairs: "
            f"|f({xs[i]:.6g}) - f({xs[j]:.6g})| exceeds the bound by {worst:.3g}"
        )


def csv_text_per_cell(columns, rows) -> str:
    """The CSV writer that formats each cell through the full type test.

    None is an empty cell, a bool true/false, an int its digits and any
    other value its ``repr``; it checks no finiteness.
    """

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        return repr(v)

    lines = [",".join(columns)]
    lines += [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


_encode = json.JSONEncoder(allow_nan=False).encode


def json_rows_per_row(template, columns) -> list[dict]:
    """A table's JSON rows as dicts, one row and one key at a time.

    A None cell is left out of a top-level row and kept inside a nested
    group; a row whose top-level cells are all None and that has no group
    is empty.
    """

    def row(template, i, nested):
        out = {}
        for key, value in template.items():
            cell = columns[value][i] if isinstance(value, str) else row(value, i, True)
            if nested or cell is not None:
                out[key] = cell
        return out

    size = len(next(iter(columns.values()), ()))
    return [row(template, i, False) for i in range(size)]


def json_text_by_encoder(value, pad: str = "") -> str:
    """A JSON document in the report layout, every compact part from json's encoder.

    Fields are indented by two spaces; a list holding dicts or lists is
    written one compact element per line, any other value on one line.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        fields = [f"{inner}{_encode(k)}: {json_text_by_encoder(v, inner)}" for k, v in value.items()]
        text = "{\n" + ",\n".join(fields) + "\n" + pad + "}"
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        text = "[\n" + inner + (",\n" + inner).join(map(_encode, value)) + "\n" + pad + "]"
    else:
        text = _encode(value)
    return text + "\n" if pad == "" else text


ROW_TEMPLATES = {
    "bound_report": BOUND_JSON_ROW,
    "moment_report": MOMENT_JSON_ROW,
    "korovkin_run": KOROVKIN_JSON_ROW,
}


def report_json_doc(report) -> dict:
    """The report's JSON document with its table laid out as plain dicts and lists."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": report.kind, **report.json_fields()}
    if report.kind in ROW_TEMPLATES:
        doc["rows"] = json_rows_per_row(ROW_TEMPLATES[report.kind], report.columns)
    else:
        (x, xs), (f, fs), *curves = report.columns.items()
        doc.update({x: xs, f: fs, "columns": dict(curves)})
    return doc
