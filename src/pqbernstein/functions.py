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
    itself, while the operator is among the 8 most recent (operator_eval's
    _tables), so ``fn`` must be hashable and a pure function of its argument.
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


# Built-in test functions, keyed by their CLI selector names.
_BUILTINS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "e0": lambda t: np.ones_like(t),
    "e1": lambda t: t,
    "e2": lambda t: t**2,
    "f_fig": lambda t: 1.0 + np.cos(5.0 * t**2),
    "holder_half": lambda t: np.sqrt(np.abs(t - 0.5)),
}
for _name, _fn in _BUILTINS.items():
    _fn.__name__ = _name  # so an error about a built-in's values can name it

# (M, alpha) witnesses for the Lipschitz-class bound checks.
LIPSCHITZ_DATA: dict[str, tuple[float, float]] = {
    "e0": (1.0, 1.0),
    "e1": (1.0, 1.0),
    "holder_half": (1.0, 0.5),
}

# Built-ins whose integral means the operator may take with a Gauss rule (see
# operator_eval): f_fig is entire.  holder_half has a kink at 1/2.  e0, e1
# and e2 keep the K-node rule, so their means stay the same sums, to
# rounding, as the node-moment means the moment report's consistency fields
# compare them with.
ANALYTIC_BUILTINS = frozenset({_BUILTINS["f_fig"]})

FUNCTION_NAMES = tuple(_BUILTINS)


def make_function(name: str, lo: float, hi: float) -> RealFunction:
    """Instantiate a built-in test function on the given domain."""
    try:
        fn = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown function {name!r}; choose from {FUNCTION_NAMES}") from None
    return RealFunction(fn, lo, hi, name=name)
