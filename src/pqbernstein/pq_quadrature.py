"""The (p,q)-definite integral on [0, 1] as a truncated node/weight rule.

For p > q (enforced by :class:`~pqbernstein.pq_core.PQPair`) the integral is
the geometric series

    int_0^1 f dt = (p - q) sum_{j>=0} (q^j / p^{j+1}) f(q^j / p^{j+1}),

so truncating after index K leaves a tail bounded by sup|f| * (q/p)^{K+1}
and the retained weights sum exactly to 1 - (q/p)^{K+1}.  A rule is applied
as weights @ f(nodes).  Note the largest node is 1/p, which exceeds 1
whenever p < 1; integrands must be defined there.

The truncated rule is a discrete measure on K+1 points, so it has Gauss
rules of its own: s nodes in (0, 1/p] that sum every polynomial of degree
below 2s exactly as the K+1 nodes do (Golub & Welsch, Math. Comp. 23, 1969;
Gautschi, Orthogonal Polynomials: Computation and Approximation, OUP 2004,
section 2.2).  gauss_rules builds a rule's GAUSS_POINTS- and
GAUSS_POINTS+4-point Gauss rules from one discrete Stieltjes pass over its
K+1 nodes; their recurrence coefficients are nested, so the pass costs
O(K (s+4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pq_core import PQPair

DEFAULT_HARD_CAP = 10**6

# s of the smaller Gauss rule; the larger has s + 4 points, and the gap
# between their sums is the error estimate of the smaller one.  At p = 0.9,
# q = 0.8, n = 20, whose arguments span [0, 1.1], the s-point f_fig means
# differ from the K-node ones by 1.6e-6 at s = 8, 9.5e-10 at s = 10,
# 1.5e-13 at s = 12 and 1.5e-15 at s = 16; at classic n = 128 and 1024
# every s from 8 up is within 7e-15.
GAUSS_POINTS = 16


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


@dataclass(frozen=True, eq=False)
class GaussRules:
    """The s- and (s+4)-point Gauss rules of one truncated rule, s = GAUSS_POINTS.

    nodes holds the s nodes and then the s + 4 nodes.  Column 0 of weights
    carries the s-point weights on the first s rows, column 1 the
    (s+4)-point weights on the last s + 4, and every other entry is 0, so
    f(nodes) @ weights is both rules' sums of f at once.
    """

    nodes: np.ndarray    # shape (2s + 4,), each rule's nodes ascending in (0, 1/p]
    weights: np.ndarray  # shape (2s + 4, 2)


def _stieltjes(nodes: np.ndarray, weights: np.ndarray, steps: int):
    """Recurrence coefficients alpha_k, beta_k (k < steps) of sum_j weights_j delta(t - nodes_j).

    The discrete Stieltjes procedure in orthonormal form: cur holds
    sqrt(weights) times the k-th orthonormal polynomial at the nodes, so
    alpha_k = sum nodes cur^2 and beta_{k+1} is the squared norm of the next
    unnormalized vector.  beta_0 is the total weight.  Needs more than
    `steps` nodes of positive weight.

    The inner products are einsum, not BLAS dot: above about 10^4 nodes
    OpenBLAS spreads a dot over threads, which sleep during the elementwise
    steps in between.  At K+1 = 23,614 on 2 vCPUs a pass took 3.6 ms with
    dot (87 ms averaged over one series of ten) and 1.8 to 2.2 ms with einsum.
    """
    alpha, beta = np.empty(steps), np.empty(steps)
    cur = np.sqrt(weights)
    beta[0] = np.einsum("i,i", cur, cur)
    cur /= math.sqrt(beta[0])
    prev, nxt = np.zeros_like(cur), np.empty_like(cur)
    for k in range(steps):
        np.multiply(nodes, cur, out=nxt)
        alpha[k] = np.einsum("i,i", nxt, cur)
        nxt -= alpha[k] * cur
        if k:
            nxt -= math.sqrt(beta[k]) * prev
        if k + 1 < steps:
            beta[k + 1] = np.einsum("i,i", nxt, nxt)
            nxt /= math.sqrt(beta[k + 1])
            prev, cur, nxt = cur, nxt, prev
    return alpha, beta


def _golub_welsch(alpha: np.ndarray, beta: np.ndarray, s: int):
    """Nodes and weights of the s-point Gauss rule from the first s coefficients."""
    off = np.sqrt(beta[1:s])
    jacobi = np.diag(alpha[:s]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, beta[0] * vectors[0] ** 2


def gauss_rules(rule: QuadratureRule) -> GaussRules:
    """Gauss rules of a truncated rule, exact on its sums of polynomials of degree < 2s.

    Not cached here: operator_eval keeps the rules of each operator's rule
    beside it.  Raises ValueError if the rule has no more than 2s + 4 nodes:
    its Gauss rules would then evaluate an integrand as often as it does.
    """
    s = GAUSS_POINTS
    if rule.nodes.size <= 2 * s + 4:
        pq = rule.pq
        raise ValueError(
            f"the rule at p={pq.p!r}, q={pq.q!r} with {rule.nodes.size} nodes is too small: "
            f"Gauss rules of {s} and {s + 4} points need more than {2 * s + 4}"
        )
    alpha, beta = _stieltjes(rule.nodes, rule.weights, s + 4)
    small, large = _golub_welsch(alpha, beta, s), _golub_welsch(alpha, beta, s + 4)
    weights = np.zeros((2 * s + 4, 2))
    weights[:s, 0], weights[s:, 1] = small[1], large[1]
    # eigh may round a node a few ulps past the rule's hull; pin it inside, so
    # every argument stays in the operator's required domain
    nodes = np.clip(np.concatenate([small[0], large[0]]), 0.0, rule.top_node)
    nodes.flags.writeable = weights.flags.writeable = False
    return GaussRules(nodes=nodes, weights=weights)
