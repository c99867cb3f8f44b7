"""Evaluable real functions with declared domains, plus the built-in test set."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Absolute guard band for float round-off at interval edges; values beyond it
# are a hard error, never a silent extension.
DOMAIN_EDGE_TOL = 1e-12


class DomainError(ValueError):
    """A function was evaluated outside its declared domain."""


@dataclass(frozen=True, eq=False)
class RealFunction:
    """A real-valued map restricted to the closed interval [lo, hi].

    ``fn`` must accept numpy arrays (all built-ins do); scalar input returns a
    float, array input an array of the same shape.  Each operator it is
    applied to keeps N+1 integral means per ``fn`` object, and the ``fn``
    itself, while the operator is the one in use (operator_eval's _tables),
    so ``fn`` must be hashable and a pure function of its argument.
    """

    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lo: float
    hi: float
    name: str = "f"

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.size:
            xmin, xmax = float(arr.min()), float(arr.max())
            if xmin < self.lo - DOMAIN_EDGE_TOL or xmax > self.hi + DOMAIN_EDGE_TOL:
                raise DomainError(
                    f"{self.name} evaluated on [{xmin:.6g}, {xmax:.6g}] outside its "
                    f"domain [{self.lo:.6g}, {self.hi:.6g}]"
                )
        out = self.fn(arr)
        if np.ndim(x) == 0:
            return float(out)
        return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class Builtin:
    """What the package knows about one built-in test function."""

    fn: Callable[[np.ndarray], np.ndarray]  # a named def, so an error about its values names it
    gauss: bool  # its integral means may take the Gauss rules (see operator_eval)
    lipschitz: tuple[float, float] | None  # (M, alpha): |f(s) - f(t)| <= M |s - t|^alpha on R


def e0(t): return np.ones_like(t)
def e1(t): return t
def e2(t): return t**2
def f_fig(t): return 1.0 + np.cos(5.0 * t**2)
def holder_half(t): return np.sqrt(np.abs(t - 0.5))


# The built-ins by CLI selector name.  e1 and e2 are polynomials the Gauss
# rules sum exactly and f_fig is entire; holder_half has a kink at 1/2.
BUILTINS: dict[str, Builtin] = {
    # e0 keeps the K-node rule: its Gauss means sum to 1 less accurately than
    # the weights do, and at classic n = 60 they would move the FROZEN K(e0)
    # of tests/test_point_values.py from 4.5 to 10.5 ulp of its 50-digit
    # reference (printed basis: 2.5 to 6.5 ulp).
    "e0": Builtin(e0, gauss=False, lipschitz=(1.0, 1.0)),
    "e1": Builtin(e1, gauss=True, lipschitz=(1.0, 1.0)),
    "e2": Builtin(e2, gauss=True, lipschitz=None),
    "f_fig": Builtin(f_fig, gauss=True, lipschitz=None),
    "holder_half": Builtin(holder_half, gauss=False, lipschitz=(1.0, 0.5)),
}
GAUSS_FNS = frozenset(b.fn for b in BUILTINS.values() if b.gauss)  # for operator_eval


def make_function(name: str, lo: float, hi: float) -> RealFunction:
    """Instantiate a built-in test function on the given domain."""
    if name not in BUILTINS:
        raise ValueError(f"unknown function {name!r}; choose from {tuple(BUILTINS)}")
    return RealFunction(BUILTINS[name].fn, lo, hi, name=name)
