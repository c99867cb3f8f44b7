"""The (p,q)-definite integral on [0, 1] as a truncated node/weight rule.

For p > q (enforced by :class:`~pqbernstein.pq_core.PQPair`) the integral is
the geometric series

    int_0^1 f dt = (p - q) sum_{j>=0} (q^j / p^{j+1}) f(q^j / p^{j+1}),

so truncating after index K leaves a tail bounded by sup|f| * (q/p)^{K+1}
and the retained weights sum exactly to 1 - (q/p)^{K+1}.  A rule is applied
as weights @ f(nodes).  Note the largest node is 1/p, which exceeds 1
whenever p < 1; integrands must be defined there.

With r = q/p the untruncated rule is the Jackson measure in base r, weight
(1 - r) r^j at node r^j/p.  Its orthogonal polynomials are little q-Legendre
(little q-Jacobi with a = b = 1; Koekoek, Lesky & Swarttouw, Hypergeometric
Orthogonal Polynomials and Their q-Analogues, Springer 2010, section 14.12),
so its Gauss rules come from a closed-form Jacobi matrix (Golub & Welsch,
Math. Comp. 23, 1969).  The measure is self-similar, so the K+1-node sum of
f is exactly G(f) - r^(K+1) G(f(r^(K+1) .)), G the untruncated Gauss sum:
gauss_rules builds GAUSS_POINTS- and GAUSS_POINTS+4-point rules of the
truncated rule that way, in O(s^3) whatever K is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pq_core import PQPair, ratio_complements, ratio_cutoff, ratio_powers

DEFAULT_HARD_CAP = 10**6

# s of the smaller Gauss rule; the larger has s + 4 points, and the gap
# between their sums is the error estimate of the smaller one.  At p = 0.9,
# q = 0.8, n = 20, whose arguments span [0, 1.1], the s-point f_fig means
# differ from the K-node ones by 1.6e-6 at s = 8, 9.5e-10 at s = 10,
# 1.5e-13 at s = 12 and 1.5e-15 at s = 16; at classic n = 128 and 1024
# every s from 8 up is within 7e-15.
GAUSS_POINTS = 16
GAUSS_NODES = 3 * GAUSS_POINTS + 8  # of a GaussRules: both rules and the tail


class TruncationError(RuntimeError):
    """The requested tolerance needs more nodes than the hard cap allows."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Immutable truncated rule; safe to share across threads."""

    pq: PQPair
    nodes: np.ndarray
    weights: np.ndarray
    tail_bound: float

    @property
    def top_node(self) -> float:
        return 1.0 / self.pq.p


def build_rule(pq: PQPair, tol: float) -> QuadratureRule:
    """Smallest-K rule with certified tail r^(K+1) <= tol: K, tail and r^j all from pq_core."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    k, tail = ratio_cutoff(pq, tol, DEFAULT_HARD_CAP)
    if k > DEFAULT_HARD_CAP:
        raise TruncationError(
            f"truncation infeasible: tol={tol:g} at p={pq.p!r}, q={pq.q!r} needs more than "
            f"{DEFAULT_HARD_CAP} nodes"
        )
    r_powers = ratio_powers(pq, k)
    return QuadratureRule(pq, r_powers / pq.p, (pq.p - pq.q) * r_powers / pq.p, tail)


@dataclass(frozen=True, eq=False)
class GaussRules:
    """The s- and (s+4)-point Gauss rules of one truncated rule, s = GAUSS_POINTS.

    nodes holds the s nodes, the s + 4 nodes, and then the s + 4 nodes
    scaled by r^(K+1), the tail.  Column 0 of weights carries the s-point
    weights on the first s rows, column 1 the (s+4)-point weights on the
    next s + 4, both columns carry -r^(K+1) times the (s+4)-point weights on
    the tail rows, and every other entry is 0, so f(nodes) @ weights is both
    rules' sums of f at once.  The tail weights are negative because they
    subtract the part of the untruncated measure that the K+1 nodes leave
    out; they are at most tol times the others.
    """

    nodes: np.ndarray    # shape (3s + 8,), each block ascending in (0, 1/p]
    weights: np.ndarray  # shape (3s + 8, 2)


def _golub_welsch(alpha: np.ndarray, beta: np.ndarray, s: int):
    """Nodes and weights of the s-point Gauss rule of a unit measure.

    alpha[:s] are its monic recurrence coefficients alpha_0..alpha_{s-1},
    beta[:s-1] its beta_1..beta_{s-1}.
    """
    off = np.sqrt(beta[: s - 1])
    jacobi = np.diag(alpha[:s]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, vectors[0] ** 2


def gauss_rules(rule: QuadratureRule) -> GaussRules:
    """Gauss rules of a truncated rule, exact on its sums of polynomials of degree < 2s.

    Not cached here: operator_eval keeps the rules of each operator's rule
    beside it.
    """
    s, pq = GAUSS_POINTS, rule.pq
    # little q-Legendre in base r: with A_n = r^n (1-r^(n+1))^2 /
    # ((1-r^(2n+1))(1-r^(2n+2))) and C_n = r^n (1-r^n)^2 / ((1-r^(2n))(1-r^(2n+1))),
    # C_0 = 0, alpha_n = A_n + C_n and beta_n = A_(n-1) C_n
    r_powers, one_minus = ratio_powers(pq, 2 * s + 8), ratio_complements(pq, 2 * s + 8)
    n, m = np.arange(s + 4), np.arange(1, s + 4)
    a = r_powers[n] * one_minus[n + 1] ** 2 / (one_minus[2 * n + 1] * one_minus[2 * n + 2])
    c = r_powers[m] * one_minus[m] ** 2 / (one_minus[2 * m] * one_minus[2 * m + 1])
    alpha, beta = a + np.concatenate([[0.0], c]), a[:-1] * c
    small, large = _golub_welsch(alpha, beta, s), _golub_welsch(alpha, beta, s + 4)
    # the K+1 nodes are the untruncated measure less r^(K+1) times itself: the
    # (s+4)-point rule, scaled and negated, sums that tail for both columns
    tail = rule.tail_bound
    weights = np.zeros((GAUSS_NODES, 2))
    weights[:s, 0], weights[s : 2 * s + 4, 1] = small[1], large[1]
    weights[2 * s + 4 :] = -tail * large[1][:, None]
    # eigh may round a node a few ulps past the rule's hull; pin it inside, so
    # every argument stays in the operator's required domain
    nodes = np.concatenate([small[0], large[0], tail * large[0]]) / pq.p
    nodes = np.clip(nodes, 0.0, rule.top_node)
    nodes.flags.writeable = weights.flags.writeable = False
    return GaussRules(nodes=nodes, weights=weights)
