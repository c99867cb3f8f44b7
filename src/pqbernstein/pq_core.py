"""Arithmetic primitives of the two-parameter (p,q)-deformation of the integers.

Everything here is a pure function over an immutable :class:`PQPair` and runs
in ordinary double precision.  With 0 < q < p <= 1 each [k]_{p,q} <= k.  The
operator's basis is evaluated in r = q/p (see operator_eval), not from
(p,q)-factorials, which leave the double range from degree 142 to 235.  The
operator, the quadrature rule, the Gauss rules and the closed-form moments
all take r^j, 1 - r^j and [j]_{p,q} from the one log r of log_ratio.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# float64 values per working block (256 KB).  The integral means
# (operator_eval) form their arguments c0_k + c1_k t one block of rows at a
# time, and the rising products take their table a block at a time.  A block
# and the four or so temporaries of f_fig (1 + cos(5 t^2)) fit in a 2 MB
# per-core L2 cache; at 2**17 (1 MB) they spill to L3.  Timed on a 2-vCPU
# Xeon on sweep-shaped means (n = 8..128, K up to about 3,000), relative to
# 2**17: 2**14 0.84, 2**15 0.82, 2**16 0.86, 2**18 1.26.
BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class PQPair:
    """Parameter pair with 0 < q < p <= 1 (strictly p - q > 0)."""

    p: float
    q: float

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        # operator_eval._check_point's rule: a bool or a string is not a parameter
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in (p, q)):
            raise TypeError(f"p, q must be real numbers, got p={p!r}, q={q!r}")
        if not (math.isfinite(p) and math.isfinite(q)):
            raise ValueError(f"p, q must be finite numbers, got p={p!r}, q={q!r}")
        if not 0.0 < q < p <= 1.0:
            raise ValueError(f"require 0 < q < p <= 1, got p={p!r}, q={q!r}")
        # plain floats, so NumPy scalar types never reach the reports
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "q", float(q))
        # every cache lookup hashes the pair: hash it once
        object.__setattr__(self, "_hash", hash((self.p, self.q)))

    def __hash__(self) -> int:
        return self._hash


def log_ratio(pq: PQPair) -> float:
    """log r, r = q/p, to a few ulps relative while q/p is a normal float.

    From q = p/2 up, q - p is exact (Sterbenz); below, |log r| > 0.69.  The
    log of a rounded r would cost eps/(1 - r) relative near r = 1, and
    log q - log p carries each log's rounding, eps |log q| absolute.
    """
    p, q = pq.p, pq.q
    return math.log1p((q - p) / p) if q >= 0.5 * p else math.log(q / p)


def ratio_powers(pq: PQPair, top: int) -> tuple[np.ndarray, np.ndarray]:
    """r^j and 1 - r^j, r = q/p, for j = 0..top: exp(j log r) and -expm1(j log r).

    1 - r^j by subtraction would cancel as r -> 1.
    """
    j_log_r = log_ratio(pq) * np.arange(top + 1)
    return np.exp(j_log_r), -np.expm1(j_log_r)


def ratio_cutoff(pq: PQPair, tol: float, cap: int) -> tuple[int, float]:
    """The least K >= 0 with r^(K+1) = exp((K+1) log r) <= tol, and that float as compared.

    A K above cap says only that no K up to cap will do.
    """
    log_r = log_ratio(pq)
    k = max(0, math.ceil(math.log(tol) / log_r) - 1)  # a step off at most
    while 0 < k <= cap + 1 and math.exp(log_r * k) <= tol:
        k -= 1
    while k <= cap and math.exp(log_r * (k + 1)) > tol:
        k += 1
    return k, math.exp(log_r * (k + 1))


def pq_integers(pq: PQPair, top: int) -> np.ndarray:
    """[j]_{p,q} = p^(j-1) (1 - r^j) / (1 - r) for j = 0..top, top >= 1.

    Algebraically sum_{i<j} p^(j-1-i) q^i; from 1 - r^j it does not cancel
    as p -> q.  [0] = 0 and [1] = 1 exactly.
    """
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    one_minus = ratio_powers(pq, top)[1]
    ints = np.power(pq.p, np.arange(top)) * (one_minus[1:] / one_minus[1])
    return np.concatenate([[0.0], ints])


def pq_rising_two_term(
    a: float, b: float, x: float | np.ndarray, y: float | np.ndarray, m: int, pq: PQPair
) -> float | np.ndarray:
    """(ax + by)^m_{p,q} = prod_{s=0}^{m-1} (p^s a x + q^s b y).

    This is the only product form defined for two-term bases; the closed-form
    moment module maps expressions like (px + 1 - x)^m onto it with a = p,
    b = 1, y = 1 - x.  x and y are numbers (giving a float) or NumPy arrays
    that broadcast together (a whole x-grid).

    The factors form a table, one row per s and one column per point, and
    the product is taken down the rows, BLOCK_VALUES values of table at a
    time.  Each block after the first starts with the running product as its
    first row, so every element is multiplied in the order of the scalar
    loop ``out = 1.0; for s in range(m): out *= p**s * a * x + q**s * b * y``
    and equals its result bit for bit.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    p, q = pq.p, pq.q
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    # the coefficients by Python's float power, as in the loop: np.power
    # differs from it in the last bit for some exponents
    x_coef = np.array([p**s * a for s in range(m)]).reshape((m,) + (1,) * len(shape))
    y_coef = np.array([q**s * b for s in range(m)]).reshape((m,) + (1,) * len(shape))
    out = np.ones(shape)
    rows = max(1, BLOCK_VALUES // max(1, out.size))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        carry = 1 if start else 0
        table = np.empty((carry + stop - start,) + shape)
        np.multiply(x_coef[start:stop], x, out=table[carry:])
        table[carry:] += y_coef[start:stop] * y
        if carry:
            table[0] = out
        out = np.multiply.reduce(table, axis=0)
    return float(out) if out.ndim == 0 else out
