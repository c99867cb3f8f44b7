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
one (G, N+1) basis matrix times one mean vector.  evaluate_on_grid takes
that matrix once per call and applies it to the raw moment means and to the
means of every function asked for; the other grid functions are cases of it.
The point functions run the same code on one x, kept a float: the same
ufuncs give a 1-D row, so a point costs its arithmetic and no broadcasting.
_tables keeps one entry, the operator (config, pq) in use: every caller
finishes with one operator before it moves to the next.  The entry holds all
there is of it: its O(N) basis coefficients, then from first use its K-node
rule and argument coefficients, O(N + K), its Gauss rules, the means of each
function, the last function object apply found inside its hull, the
ModulusGrids error_bounds samples on its bound domain, and a plain dict of
at most one block (pq_core.BLOCK_BYTES, headers and keys counted) of
read-only basis values: the row of each float point it evaluated, keyed on
x, and the matrix of each grid, keyed on the grid's shape and float64 bytes.
A basis that would overflow the block empties the dict and starts it over;
one larger than a block is not kept.  So e0, f_fig and (t - x)^2 at the
same x build one row, a warm point call is one lookup and its ndarray.dot
products, @'s ddot without its dispatch (about 1 us for apply at N = 16),
and the moment report and the three bound checks of one operator on one
grid build one basis.  Moving to another operator releases all of it.
basis_matrix builds its values afresh and keeps none.
Every argument is an affine image of the same nodes, so one set of Gauss
rules of the rule's discrete measure (pq_quadrature.gauss_rules: s = 16 and
s + 4 = 20 points, built in closed form, plus 20 tail nodes for the
truncation) serves every k: the built-ins whose record allows it
(functions.BUILTINS: e1, e2 and f_fig) cost (N+1)(3s + 8)
evaluations instead of (N+1)(K+1) where that saving reaches GAUSS_BUILD,
and keep the Gauss means only where the two rules agree within quad_tol.
Every other function (e0 among them), and any that fails that check, takes
the K-node rule, which stays the definition: the arguments c0_k + c1_k t
are formed in row blocks of at most pq_core.BLOCK_VALUES values, each
reduced against the weights at once, so the (N+1) x K argument table never
exists.  The raw moments of t^0, t^1, t^2 expand over the K-node rule's
node moments and give the central moments.

Where [N k]_r overflows (from N = 1234 along the classic and q-only
schedules, never for q/p below about 0.997) or the means of t^2 or of a
function do, NumericalRangeError is raised instead of returning NaN.
"""

from __future__ import annotations

import enum
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .functions import DOMAIN_EDGE_TOL, GAUSS_FNS, DomainError, RealFunction
from .pq_core import (
    BLOCK_BYTES,
    BLOCK_VALUES,
    PQPair,
    is_finite,
    pq_integers,
    ratio_complements,
    ratio_powers,
)
from .pq_quadrature import GAUSS_NODES, GaussRules, QuadratureRule, build_rule, gauss_rules


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
        # stored as int and float, so bools and NumPy scalars never reach the reports
        for name, least in (("n", 1), ("ell", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not isinstance(self.basis_variant, BasisVariant):
            raise ValueError(
                f"basis_variant must be a BasisVariant, got {self.basis_variant!r}"
            )
        real = isinstance(self.quad_tol, numbers.Real) and not isinstance(self.quad_tol, bool)
        if not (real and self.quad_tol >= QUAD_TOL_MIN and is_finite(self.quad_tol)):
            raise ValueError(f"quad_tol must be finite and >= 2**-52, got {self.quad_tol!r}")
        object.__setattr__(self, "quad_tol", float(self.quad_tol))
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
    """The basis coefficients or integral means of this (config, pq) leave double precision."""


# The Gauss path runs where the evaluations it saves, (N+1)(K+1 - GAUSS_NODES),
# reach its build and means counted in K-node f_fig evaluations (the two paths
# break even at 13,000 to 18,000: 2-vCPU Xeon, one BLAS thread).  That depends
# on (N, K) alone, so no result depends on what is cached.
GAUSS_BUILD = 15_000


class _Arguments(NamedTuple):
    """The arguments c0_k + c1_k t of an operator's integral means; O(N), no (N+1) x K table."""

    c0: np.ndarray           # [k]/[n+1]
    c1: np.ndarray           # ([k+1]-[k])/[n+1], computed as ((q-1)[k]+p^k)/[n+1]
    raw_means: tuple[np.ndarray, np.ndarray, np.ndarray]  # sum_t w_t (c0_k + c1_k t)^j, j = 0, 1, 2
    domain: tuple[float, float]  # hull of the arguments, see required_domain


class _Operator:
    """Everything kept about one operator (config, pq), each part built when first needed.

    Construction builds the O(N) basis coefficients and no quadrature rule;
    the rule, the arguments and the Gauss rules, O(N + K), follow on first
    use (about 50 KB at classic N = 130, 400 KB at N = 1024).  The integral
    means add N+1 read-only floats per function object applied, and moduli
    one ModulusGrid (40 KB at the default division) per function object
    checked; both hold the function while the operator is the one in use.
    The basis values kept_basis keeps add at most BLOCK_BYTES (125 KB: 15 rows
    at N = 1024, 355 at N = 27, or one 101-point grid at N = 130), counted in
    held; the next basis that would overflow them starts kept over.
    """

    def __init__(self, config: SchurerConfig, pq: PQPair) -> None:
        self.config, self.pq = config, pq
        p, q = pq.p, pq.q
        big_n = config.degree
        k = np.arange(big_n + 1)
        r_powers, one_minus = ratio_powers(pq, big_n), ratio_complements(pq, big_n)  # j <= N
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = one_minus[big_n:0:-1] / one_minus[1:]
            coef = np.concatenate([[1.0], np.cumprod(ratios)])
            if config.basis_variant is BasisVariant.AS_PRINTED:
                # an entry that underflows to 0 is the correctly rounded value
                coef *= p ** ((big_n * (big_n - 1) - k * (k - 1)) / 2)
        if not np.isfinite(coef).all():
            raise NumericalRangeError(
                f"basis coefficients are not finite in double precision at N = n + ell = "
                f"{big_n}, p={p!r}, q={q!r} ({config.basis_variant.value} basis)"
            )
        self.coef = coef                    # [N k]_r, times p^{(N(N-1) - k(k-1))/2} if printed
        self.powers = k.astype(float)       # exponents k = 0..N of x^k
        self.fall = r_powers[:-1]           # r^s, s < N, of prod_{s<N-k} (1 - r^s x)
        self.means: dict = {}               # fn -> its integral means, see integral_means
        self.moduli: dict = {}              # (fn, division) -> error_bounds.ModulusGrid
        self.kept: dict = {}                # basis values by point or grid, see kept_basis
        self.held = 0                       # the bytes of kept, as kept_basis counts them
        self.covered = None                 # the last (frozen) f apply found inside the hull

    @cached_property
    def rule(self) -> QuadratureRule:
        return build_rule(self.pq, self.config.quad_tol)

    @cached_property
    def arguments(self) -> _Arguments:
        p, q = self.pq.p, self.pq.q
        ints = pq_integers(self.pq, self.config.degree + 1)  # [k], k <= N, and [n+1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            denom = ints[self.config.n + 1]
            c0 = ints[:-1] / denom
            c1 = ((q - 1.0) * ints[:-1] + np.power(p, self.powers)) / denom
            at_top = c0 + c1 * self.rule.top_node
            domain = (min(0.0, float(at_top.min())), max(float(c0.max()), float(at_top.max())))
            # the raw means expand over the node moments S_j = sum_t w_t t^j, so f
            # is never evaluated for them
            nodes, weights = self.rule.nodes, self.rule.weights
            s0, s1, s2 = weights.sum(), weights @ nodes, (weights * nodes) @ nodes
            raw_means = (
                np.full_like(c0, s0),
                c0 * s0 + c1 * s1,
                c0 * c0 * s0 + 2.0 * c0 * c1 * s1 + c1 * c1 * s2,
            )
        # [n+1]_{p,q} is about p^n / (1 - q/p), so at small p the arguments
        # [k]/[n+1] grow like p^-n while the basis stays finite
        self.check_finite("t^2", raw_means, domain)
        return _Arguments(c0, c1, raw_means, domain)

    def check_finite(self, name: str, means, domain: tuple[float, float]) -> None:
        if not np.isfinite(means).all():
            raise NumericalRangeError(
                f"integral means of {name} are not finite in double precision at N = n + ell = "
                f"{self.config.degree}, p={self.pq.p!r}, q={self.pq.q!r} "
                f"(arguments' hull [{domain[0]:.3g}, {domain[1]:.3g}])"
            )

    @cached_property
    def gauss(self) -> GaussRules:
        return gauss_rules(self.rule)

    def basis(self, xs) -> np.ndarray:
        """Basis values at every x, shape xs.shape + (N+1,); a float x gives one 1-D row."""
        x = xs if type(xs) is float else np.asarray(xs, dtype=float)[..., None]
        falling = (1.0 - self.fall * x).cumprod(axis=-1)
        out = x**self.powers
        out *= self.coef
        out[..., :-1] *= falling[..., ::-1]
        return out

    def kept_basis(self, x: float | np.ndarray) -> np.ndarray:
        """basis(x), read-only, built once per point or grid while self.kept holds it.

        A float x is keyed on x, or on x.hex() for the zeros, equal floats
        whose rows differ in sign ((-0.0)**1 is -0.0); a grid on its shape and
        float64 bytes.  Each counts its array header and its key's float, text or bytes.
        """
        point = type(x) is float
        key = (x or x.hex()) if point else (x.shape, x.tobytes())
        basis = self.kept.get(key)
        if basis is None:
            basis = self.basis(x)
            basis.flags.writeable = False
            size = sys.getsizeof(basis) + sys.getsizeof(key if point else key[1])
            if size <= BLOCK_BYTES:
                if self.held + size > BLOCK_BYTES:
                    self.kept.clear()  # frees the dict's table too
                    self.held = 0
                self.kept[key] = basis
                self.held += size
        return basis

    def check_covers(self, f: RealFunction) -> None:
        lo, hi = self.arguments.domain
        if f.lo > lo + DOMAIN_EDGE_TOL or f.hi < hi - DOMAIN_EDGE_TOL:
            raise DomainError(
                f"{f.name} declared on [{f.lo:.6g}, {f.hi:.6g}] but the operator needs "
                f"[{lo:.6g}, {hi:.6g}]"
            )

    def gauss_means(self, fn) -> np.ndarray | None:
        """(s+4)-point Gauss means of fn per k; None if the s-point ones differ by more than tol."""
        arg = self.arguments.c0[:, None] + self.arguments.c1[:, None] * self.gauss.nodes
        small, large = (np.asarray(fn(arg), dtype=float) @ self.gauss.weights).T
        # written so that a NaN fails too
        agree = np.abs(small - large) <= self.config.quad_tol * np.maximum(1.0, np.abs(large))
        return large if agree.all() else None

    def integral_means(self, fns) -> list[np.ndarray]:
        """sum_t w_t fn(c0_k + c1_k t), k = 0..N, per fn; kept in self.means, read-only.

        The fns not kept yet share one pass: the Gauss path for those in
        functions.GAUSS_FNS where it pays, else one block of the K-node
        arguments at a time (see the module docstring).  The means are keyed on
        the callables: two closures never share them, and a fn must be a pure function.
        """
        missing = [fn for fn in fns if fn not in self.means]
        if missing:
            c0, c1, _, _ = self.arguments
            nodes, weights = self.rule.nodes, self.rule.weights
            out = np.empty((len(missing), c0.size))
            gauss_pays = c0.size * (nodes.size - GAUSS_NODES) >= GAUSS_BUILD
            rest = []
            for i, fn in enumerate(missing):
                means = self.gauss_means(fn) if gauss_pays and fn in GAUSS_FNS else None
                if means is None:
                    rest.append(i)
                else:
                    out[i] = means
            rows = max(1, BLOCK_VALUES // nodes.size)
            # every fn took the Gauss path: no argument block either
            for start in range(0, c0.size, rows) if rest else ():
                block = slice(start, start + rows)
                arg = c0[block, None] + c1[block, None] * nodes
                for i in rest:
                    out[i, block] = np.asarray(missing[i](arg), dtype=float) @ weights
            # after both paths: a NaN fails the Gauss check and falls through to here
            for fn, means in zip(missing, out):
                self.check_finite(getattr(fn, "__name__", fn), means, self.arguments.domain)
            out.flags.writeable = False
            self.means.update(zip(missing, out))
        return [self.means[fn] for fn in fns]


# Callers finish with one (config, pq) before they move to the next, so the
# operator in use is the only one worth keeping.
_tables = lru_cache(maxsize=1)(_Operator)


def basis_matrix(config: SchurerConfig, pq: PQPair, xs) -> np.ndarray:
    """Basis values at every x, shape xs.shape + (N+1,); nonnegative on [0, 1].

    Term k is coef_k x^k prod_{s<N-k} (1 - r^s x).  A scalar x gives one
    row, which equals the matching row of any grid that contains x.  The
    values are built afresh and kept nowhere, so the caller may write into them.
    """
    return _tables(config, pq).basis(_check_points(xs))


def required_domain(config: SchurerConfig, pq: PQPair) -> tuple[float, float]:
    """Interval every integrand argument lands in; f passed to apply must cover it.

    Arguments are affine in t over (0, 1/p], so the hull of their values at
    t = 0 and at the top quadrature node covers everything.
    """
    return _tables(config, pq).arguments.domain


def _check_point(x) -> float:
    """x as a float: one real number in [0, 1], a bool or an array of points being refused."""
    if type(x) is not float:
        if isinstance(x, np.ndarray):
            x = x[()]  # the scalar of a 0-d array; any other array stays one
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise TypeError(
                f"x must be one real number, got {x!r}; "
                "evaluate arrays of points with apply_on_grid or evaluate_on_grid"
            )
        try:
            x = float(x)
        except OverflowError:
            pass  # a number beyond float range, such as 10**400: refused below
    # written so that a NaN fails too
    if not -DOMAIN_EDGE_TOL <= x <= 1.0 + DOMAIN_EDGE_TOL:
        raise ValueError(f"operator is evaluated on [0, 1], got x={x!r}")
    return x


def _check_points(xs) -> float | np.ndarray:
    """The points as evaluated, each in [0, 1]: a float for one point, else a float array."""
    x = xs if type(xs) is float else np.asarray(xs)
    if type(x) is float or x.ndim == 0:
        return _check_point(x)
    if x.dtype.kind not in "iuf":  # strings, bytes, bools, complex, objects
        raise TypeError(f"x must be real numbers, got an array of dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if x.size:
        _check_point(float(x.min()))
        _check_point(float(x.max()))
    return x


def report_grid(grid) -> np.ndarray:
    """A report's x-grid as evaluated: _check_points' rule, one axis, at least one point."""
    xs = _check_points(grid)
    if np.ndim(xs) != 1 or xs.size == 0:
        raise ValueError(f"a report grid is a non-empty 1-D sequence of points, got {grid!r}")
    return xs


def apply(config: SchurerConfig, pq: PQPair, f: RealFunction, x: float) -> float:
    """Operator value at x; linear and positive in f up to quadrature truncation."""
    x = _check_point(x)
    op = _tables(config, pq)
    if f is not op.covered:
        op.check_covers(f)
        op.covered = f
    means = op.means.get(f.fn)
    if means is None:
        (means,) = op.integral_means((f.fn,))
    b = op.kept.get(x or x.hex())  # kept_basis's key; only a miss calls it
    if b is None:
        b = op.kept_basis(x)
    return float(b.dot(means))


class GridEvaluation(NamedTuple):
    """Operator values at the points x, all from one basis matrix."""

    x: float | np.ndarray       # the points as evaluated; a float for one point
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
    kept with the operator, expanded over the node moments, so the power
    functions are never evaluated on the arguments; the fs share one pass
    over the argument blocks.
    """
    fs = tuple(fs)  # an iterator would be used up by the domain checks
    x = _check_points(xs)  # a float for one point: 1-D rows and scalar arithmetic
    op = _tables(config, pq)
    for f in fs:
        op.check_covers(f)
    # f.fn directly: check_covers has compared f's domain with the cached
    # hull of the arguments, so a second scan of them is redundant
    means = op.integral_means([f.fn for f in fs]) if fs else ()
    b = op.kept_basis(x)
    m0, m1, m2 = op.arguments.raw_means
    return GridEvaluation(x, (b @ m0, b @ m1, b @ m2), [b @ m for m in means])


def apply_on_grid(
    config: SchurerConfig, pq: PQPair, f: RealFunction, xs: np.ndarray
) -> np.ndarray:
    """Operator values on a grid of x; the integral means are shared across x."""
    return evaluate_on_grid(config, pq, (f,), xs).values[0]


def apply_central_moment(config: SchurerConfig, pq: PQPair, x: float, order: int) -> float:
    """Operator applied to (t - x)^order for order in {1, 2}.

    The power functions are total, so no domain declaration is involved; the
    order-2 value is nonnegative up to quadrature truncation.  It is
    GridEvaluation.central at one point, bit for bit: the same dot products
    of the one basis row and the same expression, for the order asked only.
    """
    if type(order) is not int or order not in (1, 2):
        raise ValueError(f"order must be the int 1 or 2, got {order!r}")
    x = _check_point(x)
    op = _tables(config, pq)
    b = op.kept.get(x or x.hex())  # as in apply
    if b is None:
        b = op.kept_basis(x)
    m0, m1, m2 = op.arguments.raw_means
    k0, k1 = float(b.dot(m0)), float(b.dot(m1))
    if order == 1:
        return k1 - x * k0
    return float(b.dot(m2)) - 2.0 * x * k1 + x * x * k0
