"""The (p,q)-definite integral on [0, 1] as a truncated node/weight rule.

For p > q (enforced by :class:`~pqbernstein.pq_core.PQPair`) the integral is
the geometric series

    int_0^1 f dt = (p - q) sum_{j>=0} (q^j / p^{j+1}) f(q^j / p^{j+1}),

so truncating after index K leaves a tail bounded by sup|f| * (q/p)^{K+1}
and the retained weights sum exactly to 1 - (q/p)^{K+1}.  A rule is applied
as weights @ f(nodes).  Note the largest node is 1/p, which exceeds 1
whenever p < 1; integrands must be defined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pq_core import PQPair

DEFAULT_HARD_CAP = 10**6


class TruncationError(RuntimeError):
    """The requested tolerance needs more nodes than the hard cap allows."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Immutable truncated rule; safe to share across threads."""

    pq: PQPair
    trunc_index: int
    nodes: np.ndarray
    weights: np.ndarray
    tail_bound: float

    @property
    def top_node(self) -> float:
        return 1.0 / self.pq.p


def build_rule(pq: PQPair, tol: float) -> QuadratureRule:
    """Smallest-K rule with certified tail (q/p)^(K+1) <= tol."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    p, q = pq.p, pq.q
    r = q / p
    k = max(0, math.ceil(math.log(tol) / math.log(r)) - 1)
    # correct for log round-off so the bound holds in float arithmetic
    while r ** (k + 1) > tol:
        k += 1
        if k > DEFAULT_HARD_CAP:
            break
    if k > DEFAULT_HARD_CAP:
        raise TruncationError(
            f"truncation infeasible: tol={tol:g} at q/p={r:.12g} needs more than "
            f"{DEFAULT_HARD_CAP} nodes"
        )
    j = np.arange(k + 1)
    rj = np.power(r, j)
    nodes = rj / p
    weights = (p - q) * rj / p
    return QuadratureRule(
        pq=pq,
        trunc_index=k,
        nodes=nodes,
        weights=weights,
        tail_bound=r ** (k + 1),
    )

