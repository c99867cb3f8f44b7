"""The (p,q)-definite integral on [0, a] as a truncated node/weight rule.

For p > q (enforced by :class:`~pqbernstein.pq_core.PQPair`) the integral is
the geometric series

    int_0^a f dt = (p - q) a sum_{j>=0} (q^j / p^{j+1}) f(a q^j / p^{j+1}),

so truncating after index K leaves a tail bounded by sup|f| * a * (q/p)^{K+1}
and the retained weights sum exactly to a - a (q/p)^{K+1}.  Note the largest
node is a/p, which exceeds a whenever p < 1; integrands must be defined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import DOMAIN_EDGE_TOL, DomainError, RealFunction
from .pq_core import PQPair

DEFAULT_HARD_CAP = 10**6


class TruncationError(RuntimeError):
    """The requested tolerance needs more nodes than the hard cap allows."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Immutable truncated rule; safe to share across threads."""

    a: float
    pq: PQPair
    trunc_index: int
    nodes: np.ndarray
    weights: np.ndarray
    tail_bound: float

    @property
    def top_node(self) -> float:
        return self.a / self.pq.p


def build_rule(
    pq: PQPair, a: float, tol: float, hard_cap: int = DEFAULT_HARD_CAP
) -> QuadratureRule:
    """Smallest-K rule with certified tail a*(q/p)^(K+1) <= tol."""
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"upper limit a must be positive and finite, got {a}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    p, q = pq.p, pq.q
    r = q / p
    k = max(0, math.ceil(math.log(tol / a) / math.log(r)) - 1)
    # correct for log round-off so the bound holds in float arithmetic
    while a * r ** (k + 1) > tol:
        k += 1
        if k > hard_cap:
            break
    if k > hard_cap:
        raise TruncationError(
            f"truncation infeasible: tol={tol:g} at q/p={r:.12g} needs more than "
            f"{hard_cap} nodes"
        )
    j = np.arange(k + 1)
    rj = np.power(r, j)
    nodes = a * rj / p
    weights = (p - q) * a * rj / p
    return QuadratureRule(
        a=a,
        pq=pq,
        trunc_index=k,
        nodes=nodes,
        weights=weights,
        tail_bound=a * r ** (k + 1),
    )


def integrate(rule: QuadratureRule, f: RealFunction) -> float:
    """sum_j w_j f(t_j); truncation error is at most sup|f| * rule.tail_bound."""
    if f.lo > 0.0 + DOMAIN_EDGE_TOL or f.hi < rule.top_node - DOMAIN_EDGE_TOL:
        raise DomainError(
            f"integrand {f.name} must cover [0, {rule.top_node:.6g}] "
            f"(declared domain [{f.lo:.6g}, {f.hi:.6g}])"
        )
    return float(np.dot(rule.weights, f(rule.nodes)))
