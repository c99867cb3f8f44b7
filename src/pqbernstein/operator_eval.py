"""Direct evaluation of the Kantorovich-type (p,q)-Bernstein-Schurer operator.

The operator at x in [0, 1] is the finite sum over k = 0..n+ell of a basis
weight times the (p,q)-integral mean of f along an affine argument in t.
Everything is computed straight from that definition, which makes this module
the numerical ground truth against which the closed-form moment expressions
and the error-bound theorems are checked.

Both basis conventions come from the Phillips q-Bernstein basis in r = q/p,

    [N k]_r x^k prod_{s<N-k} (1 - r^s x),   N = n + ell,

which is the default, normalized variant: a partition of unity, so constants
are reproduced.  The product basis as printed, [N k]_{p,q} x^k
prod_{s<N-k} (p^s - q^s x), is the same basis times p^{(N(N-1) - k(k-1))/2};
it is *not* a partition of unity when p < 1 (its sum at degree 2 is
p + (1-p) x^2).

The integral means do not depend on x, so a whole grid is evaluated at once:
one (G, N+1) basis matrix times one mean vector.  evaluate_on_grid builds
that matrix once per call and applies it to the raw moment means and to the
means of every function asked for; the other grid functions are cases of it.
The basis needs only O(N) coefficients and no quadrature rule.  The means
are defined by the rule's K nodes and the argument coefficients, O(N + K).
Every argument is an affine image of the same nodes, so one Gauss rule of the
rule's discrete measure (pq_quadrature.gauss_rules, s = 16 and s + 4 = 20
points, built at most once per operator) serves every k: the analytic
built-ins (functions.ANALYTIC_BUILTINS, f_fig) cost (N+1)(2s + 4) evaluations
instead of (N+1)(K+1), on operators where that saving outweighs the build,
and keep the Gauss means only where the two rules agree within quad_tol.
Every other function, and any that fails that check, takes the K-node rule,
which stays the definition: the arguments c0_k + c1_k t are formed one row
block of MEANS_BLOCK values at a time, sized to stay in a core's L2 cache,
and reduced against the weights at once, so the (N+1) x K argument table
never exists.  The means of each function are cached.  The raw moments of
t^0, t^1, t^2 expand over the K-node rule's node moments and give the
central moments.

Where [N k]_r overflows (from N = 1234 along the classic and q-only
schedules, never for q/p below about 0.997) or the argument means do (small
p at large N), NumericalRangeError is raised instead of returning NaN.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .functions import ANALYTIC_BUILTINS, DOMAIN_EDGE_TOL, DomainError, RealFunction
from .pq_core import BLOCK_VALUES, PQPair
from .pq_quadrature import GAUSS_POINTS, GaussRules, QuadratureRule, build_rule, gauss_rules


# one ulp of 1: a smaller tolerance asks the quadrature for less error than
# float rounding of its sums leaves, and the e0 gate fails on a correct operator
QUAD_TOL_MIN = 2.0**-52


class BasisVariant(enum.Enum):
    AS_PRINTED = "printed"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class SchurerConfig:
    """Operator indices: degree n >= 1, shift ell >= 0, basis and quadrature tolerance."""

    n: int
    ell: int = 0
    basis_variant: BasisVariant = BasisVariant.NORMALIZED
    quad_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.ell, int) and self.ell >= 0):
            raise ValueError(f"ell must be an integer >= 0, got {self.ell!r}")
        if not isinstance(self.basis_variant, BasisVariant):
            raise ValueError(
                f"basis_variant must be a BasisVariant, got {self.basis_variant!r}"
            )
        if not (self.quad_tol >= QUAD_TOL_MIN and math.isfinite(self.quad_tol)):
            raise ValueError(f"quad_tol must be finite and >= 2**-52, got {self.quad_tol!r}")
        # every cache lookup hashes the config: hash once, from numbers only,
        # so the value is the same in every process and survives pickling
        variant = self.basis_variant is BasisVariant.AS_PRINTED
        object.__setattr__(self, "_hash", hash((self.n, self.ell, variant, self.quad_tol)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return self.n + self.ell

    @property
    def truncation_budget(self) -> float:
        """(N+1) quad_tol: the quadrature truncation allowed in K(1; x)."""
        return (self.degree + 1) * self.quad_tol


class NumericalRangeError(ArithmeticError):
    """The basis coefficients of this (config, pq) overflow double precision."""


# float64 elements per row block of the integral means (256 KB): the argument
# values c0_k + c1_k t and f of them exist one block of rows at a time.  A
# block and the four or so temporaries of f_fig (1 + cos(5 t^2)) fit in a
# 2 MB per-core L2 cache; at 2**17 (1 MB) they spill to L3.  Timed on a
# 2-vCPU Xeon on sweep-shaped means (n = 8..128, K up to about 3,000),
# relative to 2**17: 2**14 0.84, 2**15 0.82, 2**16 0.86, 2**18 1.26.
MEANS_BLOCK = BLOCK_VALUES

# The Gauss path pays for itself when the evaluations it saves,
# (N+1)(K+1 - (2s+4)), outweigh the build of its rules, which costs about
# GAUSS_BUILD_FIXED + GAUSS_BUILD_PER_NODE (K+1) K-node evaluations of f_fig.
# Timed on a 2-vCPU Xeon, cold, medians of 21 to 25: a K-node evaluation of
# f_fig costs about 13 ns and a build about 0.40 ms + 0.08 us per node
# (0.45 ms at K+1 = 196, 0.63 ms at 2,292, 2.0 ms at 23,614), which the
# constants round to 0.35 ms + 0.13 us.  The crossover in N+1 is therefore
# 177 at K+1 = 200, 39 at 1,000, 20 at 3,000 and 12 at 23,614.  Timed
# directly, the Gauss path first won at N+1 = 25 at K+1 = 2,982 (17 lost),
# at 41 at K+1 = 1,140 (33 tied), and at 9, the smallest tried, at
# K+1 = 23,614.  An operator with N+1 <= 28 needs K+1 >= 1,556 to cross it.
# The crossover depends on (N, K) alone, so the path, and with it every
# result, does not depend on what is cached.
GAUSS_BUILD_FIXED = 27_000
GAUSS_BUILD_PER_NODE = 10


@dataclass(frozen=True, eq=False)
class _Basis:
    """Per-(config, pq) basis coefficients; O(N), no quadrature rule."""

    coef: np.ndarray         # [N k]_r, times p^{(N(N-1) - k(k-1))/2} for the printed variant
    powers: np.ndarray       # exponents k = 0..N of x^k
    fall: np.ndarray         # r^s, s = 0..N-1, of the falling product prod_{s<N-k} (1 - r^s x)
    one_minus: np.ndarray    # 1 - r^j, j = 1..N+1


@dataclass(frozen=True, eq=False)
class _Tables:
    """Per-(config, pq) argument coefficients and rule; O(N + K), no (N+1) x K table."""

    rule: QuadratureRule
    c0: np.ndarray           # [k]/[n+1]
    c1: np.ndarray           # ([k+1]-[k])/[n+1], computed as ((q-1)[k]+p^k)/[n+1]
    raw_means: np.ndarray    # sum_t w_t (c0_k + c1_k t)^j for j = 0, 1, 2, shape (3, N+1)
    domain: tuple[float, float]  # hull of the arguments, see required_domain

    @cached_property
    def gauss(self) -> GaussRules:
        """The Gauss rules of this rule, built on first use and kept with the entry."""
        return gauss_rules(self.rule)


@lru_cache(maxsize=32)
def _basis(config: SchurerConfig, pq: PQPair) -> _Basis:
    p, q = pq.p, pq.q
    big_n = config.degree
    k = np.arange(big_n + 1)
    # log r from log1p: rounding r = q/p itself would cost eps/(1-r) relative
    log_r = math.log1p(q - 1.0) - math.log1p(p - 1.0)
    one_minus = -np.expm1(log_r * np.arange(1, big_n + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = one_minus[big_n - 1 :: -1] / one_minus[:big_n]
        coef = np.concatenate([[1.0], np.cumprod(ratios)])
        if config.basis_variant is BasisVariant.AS_PRINTED:
            # an entry that underflows to 0 is the correctly rounded value
            coef *= p ** ((big_n * (big_n - 1) - k * (k - 1)) / 2)
    if not np.isfinite(coef).all():
        raise NumericalRangeError(
            f"basis coefficients are not finite in double precision at N = n + ell = "
            f"{big_n}, p={p!r}, q={q!r} ({config.basis_variant.value} basis)"
        )
    return _Basis(
        coef=coef, powers=k.astype(float), fall=np.exp(log_r * k[:-1]), one_minus=one_minus
    )


def _pq_integers(p: float, one_minus: np.ndarray) -> np.ndarray:
    """[j]_{p,q} = p^{j-1} (1 - r^j) / (1 - r) for j = 0..len(one_minus), from 1 - r^j."""
    powers = np.power(p, np.arange(one_minus.size))
    return np.concatenate([[0.0], powers * (one_minus / one_minus[0])])


# Each entry pins the rule's K nodes and weights and a few O(N) vectors
# (about 50 KB at classic N = 130, 400 KB at N = 1024).  Callers finish with
# one (config, pq) before they move to the next; the longest walk, a default
# Korovkin run, visits five.
@lru_cache(maxsize=8)
def _tables(config: SchurerConfig, pq: PQPair) -> _Tables:
    # the basis first, so a degree whose coefficients overflow raises here too
    basis = _basis(config, pq)
    p, q = pq.p, pq.q
    big_n = config.degree
    k = np.arange(big_n + 1)
    ints = _pq_integers(p, basis.one_minus)  # j = 0..N+1, which covers [n+1]
    rule = build_rule(pq, config.quad_tol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = ints[config.n + 1]
        c0 = ints[:-1] / denom
        c1 = ((q - 1.0) * ints[:-1] + np.power(p, k)) / denom
        # arguments are affine in t over (0, 1/p], so their values at t = 0 and
        # at the top node bound the hull
        at_top = c0 + c1 * rule.top_node
        domain = (min(0.0, float(at_top.min())), max(float(c0.max()), float(at_top.max())))
        # the raw means expand over the node moments S_j = sum_t w_t t^j, so f
        # is never evaluated for them
        nodes, weights = rule.nodes, rule.weights
        s0, s1, s2 = weights.sum(), weights @ nodes, (weights * nodes) @ nodes
        raw_means = np.stack(
            [
                np.full_like(c0, s0),
                c0 * s0 + c1 * s1,
                c0 * c0 * s0 + 2.0 * c0 * c1 * s1 + c1 * c1 * s2,
            ]
        )
    # [n+1]_{p,q} is about p^n / (1 - q/p), so at small p the arguments
    # [k]/[n+1] grow like p^-n while the basis stays finite
    if not np.isfinite(raw_means).all():
        raise NumericalRangeError(
            f"integral means of t^2 are not finite in double precision at N = n + ell = "
            f"{big_n}, p={p!r}, q={q!r} (arguments reach {max(-domain[0], domain[1]):.3g})"
        )
    return _Tables(rule=rule, c0=c0, c1=c1, raw_means=raw_means, domain=domain)


def _gauss_means(tb: _Tables, fn, tol: float) -> np.ndarray | None:
    """(s+4)-point Gauss means of fn per k; None if the s-point ones differ by more than tol."""
    arg = tb.c0[:, None] + tb.c1[:, None] * tb.gauss.nodes
    small, large = (np.asarray(fn(arg), dtype=float) @ tb.gauss.weights).T
    # written so that a NaN fails too
    if np.all(np.abs(small - large) <= tol * np.maximum(1.0, np.abs(large))):
        return large
    return None


@lru_cache(maxsize=32)
def _integral_means(config: SchurerConfig, pq: PQPair, fns: tuple) -> np.ndarray:
    """sum_t w_t fn(c0_k + c1_k t) per fn and k, shape (len(fns), N+1), read-only.

    An analytic built-in, on an operator large enough for the Gauss path to
    pay (see GAUSS_BUILD_FIXED), takes that path: (N+1)(2s + 4) evaluations,
    kept if the s- and (s+4)-point means agree within quad_tol.  Every other
    fn, and any that fails that check, takes the K-node rule: its arguments
    are built and reduced one row block of about MEANS_BLOCK values at a
    time, shared by every such fn, so no (N+1) x K array exists.  The cache
    keys on the callables themselves: two closures never share an entry, and
    a fn must be a pure function of its argument.
    """
    tb = _tables(config, pq)
    nodes, weights = tb.rule.nodes, tb.rule.weights
    out = np.empty((len(fns), tb.c0.size))
    saved = tb.c0.size * (nodes.size - 2 * GAUSS_POINTS - 4)
    gauss_pays = saved >= GAUSS_BUILD_FIXED + GAUSS_BUILD_PER_NODE * nodes.size
    rest = []
    for i, fn in enumerate(fns):
        means = None
        if gauss_pays and fn in ANALYTIC_BUILTINS:
            means = _gauss_means(tb, fn, config.quad_tol)
        if means is None:
            rest.append(i)
        else:
            out[i] = means
    rows = max(1, MEANS_BLOCK // nodes.size)
    # no fn left: no argument block either
    for start in range(0, tb.c0.size, rows) if rest else ():
        block = slice(start, start + rows)
        arg = tb.c0[block, None] + tb.c1[block, None] * nodes
        for i in rest:
            out[i, block] = np.asarray(fns[i](arg), dtype=float) @ weights
    out.flags.writeable = False
    return out


def basis_matrix(config: SchurerConfig, pq: PQPair, xs) -> np.ndarray:
    """Basis values at every x, shape xs.shape + (N+1,); nonnegative on [0, 1].

    Term k is coef_k x^k prod_{s<N-k} (1 - r^s x).  A scalar x gives one
    row, which equals the matching row of any grid that contains x.
    """
    tb = _basis(config, pq)
    x = np.asarray(xs, dtype=float)[..., None]
    falling = (1.0 - tb.fall * x).cumprod(axis=-1)
    out = x**tb.powers
    out *= tb.coef
    out[..., :-1] *= falling[..., ::-1]
    return out


def basis_row(config: SchurerConfig, pq: PQPair, x: float) -> np.ndarray:
    """All N+1 basis values at one x, nonnegative on [0, 1]."""
    return basis_matrix(config, pq, float(x))


def required_domain(config: SchurerConfig, pq: PQPair) -> tuple[float, float]:
    """Interval every integrand argument lands in; f passed to apply must cover it.

    Arguments are affine in t over (0, 1/p], so the hull of their values at
    t = 0 and at the top quadrature node covers everything.
    """
    return _tables(config, pq).domain


def _check_points(xs) -> None:
    x = np.asarray(xs, dtype=float)
    if x.size == 0:
        return
    lo, hi = (float(x), float(x)) if x.ndim == 0 else (float(x.min()), float(x.max()))
    # written so that a NaN fails too
    if not (-DOMAIN_EDGE_TOL <= lo and hi <= 1.0 + DOMAIN_EDGE_TOL):
        worst = lo if not -DOMAIN_EDGE_TOL <= lo else hi
        raise ValueError(f"operator is evaluated on [0, 1], got x={worst!r}")


def _check_covers(config: SchurerConfig, pq: PQPair, f: RealFunction) -> None:
    lo, hi = required_domain(config, pq)
    if f.lo > lo + DOMAIN_EDGE_TOL or f.hi < hi - DOMAIN_EDGE_TOL:
        raise DomainError(
            f"{f.name} declared on [{f.lo:.6g}, {f.hi:.6g}] but the operator needs "
            f"[{lo:.6g}, {hi:.6g}]"
        )


def apply(config: SchurerConfig, pq: PQPair, f: RealFunction, x: float) -> float:
    """Operator value at x; linear and positive in f up to quadrature truncation."""
    _check_points(x)
    _check_covers(config, pq, f)
    return float(basis_row(config, pq, x) @ _integral_means(config, pq, (f.fn,))[0])


class GridEvaluation(NamedTuple):
    """Operator values at the points x, all from one basis matrix."""

    x: np.ndarray               # the points as evaluated; a NumPy scalar for one point
    raw: tuple[np.ndarray, np.ndarray, np.ndarray]  # K(t^j; x) for j = 0, 1, 2
    values: list[np.ndarray]    # K(f; x), one per f asked for

    @property
    def central(self) -> tuple[np.ndarray, np.ndarray]:
        """K((t - x); x) = K(t) - x K(1) and K((t - x)^2; x) = K(t^2) - 2x K(t) + x^2 K(1)."""
        x = self.x
        m0, m1, m2 = self.raw
        return m1 - x * m0, m2 - 2.0 * x * m1 + x * x * m0


def evaluate_on_grid(config: SchurerConfig, pq: PQPair, fs, xs) -> GridEvaluation:
    """K(t^j; x) for j = 0, 1, 2 and K(f; x) for each f in fs, each of xs.shape.

    One basis matrix serves them all.  The raw moments come from the means
    kept with the tables, expanded over the node moments, so the power
    functions are never evaluated on the arguments; the fs share one pass
    over the argument blocks.
    """
    _check_points(xs)
    for f in fs:
        _check_covers(config, pq, f)
    x = np.asarray(xs, dtype=float)[()]  # a NumPy scalar for one point: cheaper arithmetic
    # f.fn directly: _check_covers has compared f's domain with the cached
    # hull of the arguments, so a second scan of them is redundant
    means = _integral_means(config, pq, tuple(f.fn for f in fs))
    raw_means = _tables(config, pq).raw_means
    b = basis_matrix(config, pq, x)
    return GridEvaluation(x, tuple(b @ m for m in raw_means), [b @ m for m in means])


def apply_on_grid(
    config: SchurerConfig, pq: PQPair, f: RealFunction, xs: np.ndarray
) -> np.ndarray:
    """Operator values on a grid of x; the integral means are shared across x."""
    return evaluate_on_grid(config, pq, (f,), xs).values[0]


def apply_central_moment(config: SchurerConfig, pq: PQPair, x: float, order: int) -> float:
    """Operator applied to (t - x)^order for order in {1, 2}.

    The power functions are total, so no domain declaration is involved; the
    order-2 value is nonnegative up to quadrature truncation.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return float(evaluate_on_grid(config, pq, (), float(x)).central[order - 1])
