"""Scalar reference formulas the tests compare the package against.

Each evaluates one definition term by term in plain floats: the
(p,q)-factorial, binomial and falling power, a single basis value, one
Kantorovich argument, the moduli of continuity of a function, and the
modulus tables built in full over every lag.
"""

import numpy as np

from pqbernstein.error_bounds import MODULUS_GRID_DIV, ModulusGrid
from pqbernstein.operator_eval import SchurerConfig, basis_row
from pqbernstein.pq_core import PQPair, pq_integer


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


def basis(config: SchurerConfig, pq: PQPair, k: int, x: float) -> float:
    """Single basis value; k outside [0, n+ell] gives 0."""
    if k < 0 or k > config.degree:
        return 0.0
    return float(basis_row(config, pq, x)[k])


def argument(k: int, t: float, config: SchurerConfig, pq: PQPair) -> float:
    """Kantorovich argument [k]/[n+1] + ([k+1]-[k]) t/[n+1] (both read as [.]_{p,q}).

    The slope is evaluated as ((q-1)[k] + p^k)/[n+1], exact by the recurrence
    [k+1] = q[k] + p^k; it is negative for large k when p < 1, so the argument
    is affine but not always increasing in t.
    """
    denom = pq_integer(config.n + 1, pq)
    ik = pq_integer(k, pq)
    return ik / denom + ((pq.q - 1.0) * ik + pq.p**k) / denom * t


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
