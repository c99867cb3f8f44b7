import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pqbernstein.functions import DomainError, RealFunction
from pqbernstein.pq_core import PQPair
from pqbernstein.pq_quadrature import (
    DEFAULT_HARD_CAP,
    GAUSS_POINTS,
    TruncationError,
    build_rule,
    gauss_rules,
)
from pqbernstein.qreference import jackson_integral

from oracles import integrate, pq_integer

PAIRS = [PQPair(1.0, 0.5), PQPair(0.9, 0.8), PQPair(0.99, 0.98)]


def monomial(m, hi):
    return RealFunction(lambda t, m=m: t**m, 0.0, hi, name=f"t^{m}")


class TestBuildRule:
    def test_truncation_index_formula(self):
        pq = PQPair(0.9, 0.8)
        rule = build_rule(pq, 1e-12)
        k = rule.nodes.size - 1
        assert k == math.ceil(math.log(1e-12) / math.log(8 / 9)) - 1
        r = pq.q / pq.p
        assert rule.tail_bound <= 1e-12
        # minimality: one fewer node would breach the tolerance
        assert 1.0 * r**k > 1e-12

    def test_weight_sum_is_exact_partial_geometric(self):
        for pq in PAIRS:
            rule = build_rule(pq, 1e-12)
            assert abs(rule.weights.sum() - (1.0 - rule.tail_bound)) <= 1e-13
            assert (rule.weights > 0).all()

    def test_nodes_strictly_decreasing_and_top(self):
        rule = build_rule(PQPair(0.9, 0.8), 1e-10)
        assert (np.diff(rule.nodes) < 0).all()
        assert rule.nodes[0] == pytest.approx(1.0 / 0.9, rel=1e-15)
        assert rule.top_node > 1.0  # node range exceeds [0, 1] when p < 1

    def test_p1_classical_jackson_rule(self):
        rule = build_rule(PQPair(1.0, 0.5), 1e-10)
        j = np.arange(rule.nodes.size)
        assert rule.nodes == pytest.approx(0.5**j)
        assert rule.weights == pytest.approx(0.5 ** (j + 1))

    def test_truncation_cap(self):
        # about 2.8e9 nodes: the cap must fire before any node array exists
        pq = PQPair(1.0, 1.0 - 1e-8)
        assert math.log(1e-12) / math.log(pq.q / pq.p) > DEFAULT_HARD_CAP
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError, match="truncation infeasible"):
                build_rule(pq, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_weights_and_tail_sum_to_one_within_tol(self):
        # 360 seeded draws: p = 1, p in (0.05, 1) or p = 1 - 10^U(-8,-1);
        # 1 - q/p = 10^U(-5,-1); tol = 10^U(log10 2.2e-16, -8).  About 320
        # fit under the cap, up to K+1 near 10^6.  The sum is exact (fsum),
        # so only the rule's own rounding counts: r^j from the rounded q/p
        # missed by up to 1,970 tol here, the difference of the logs of q and p
        # by up to 600 tol
        rng = np.random.default_rng(21)
        feasible, worst = 0, 0.0
        for _ in range(360):
            kind = rng.integers(3)
            p = 1.0 if kind == 0 else (
                rng.uniform(0.05, 1.0) if kind == 1 else 1.0 - 10.0 ** rng.uniform(-8, -1)
            )
            q = p * (1.0 - 10.0 ** rng.uniform(-5, -1))
            tol = 10.0 ** rng.uniform(math.log10(2.2e-16), -8)
            try:
                rule = build_rule(PQPair(p, q), tol)
            except TruncationError:
                continue
            feasible += 1
            assert rule.tail_bound <= tol
            miss = abs(math.fsum([*rule.weights.tolist(), rule.tail_bound, -1.0]))
            worst = max(worst, miss / tol)
        assert feasible >= 300
        assert worst <= 1.0

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.inf, math.nan])
    def test_rejects_bad_inputs(self, tol):
        with pytest.raises(ValueError):
            build_rule(PQPair(0.9, 0.8), tol)


class TestIntegrate:
    def test_constant_is_weight_sum(self):
        rule = build_rule(PQPair(0.9, 0.8), 1e-12)
        f = RealFunction(lambda t: np.ones_like(t), 0.0, 2.0, name="one")
        assert integrate(rule, f) == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("pq", PAIRS)
    @pytest.mark.parametrize("m", range(7))
    def test_monomial_identity(self, pq, m):
        rule = build_rule(pq, 1e-12)
        value = integrate(rule, monomial(m, rule.top_node))
        assert abs(value - 1.0 / pq_integer(m + 1, pq)) <= 1e-12 + 1e-13

    def test_first_and_second_moment_values(self):
        rule = build_rule(PQPair(0.9, 0.8), 1e-12)
        assert integrate(rule, monomial(1, rule.top_node)) == pytest.approx(
            1.0 / 1.7, abs=1e-11
        )
        assert integrate(rule, monomial(2, rule.top_node)) == pytest.approx(
            1.0 / 2.17, abs=1e-11
        )

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
    )
    def test_linearity(self, a, b, cf, cg):
        rule = build_rule(PQPair(0.9, 0.8), 1e-12)
        hi = rule.top_node

        def poly(c):
            return RealFunction(lambda t, c=c: c[0] + c[1] * t + c[2] * t**2, 0.0, hi)

        combo = RealFunction(
            lambda t: a * (cf[0] + cf[1] * t + cf[2] * t**2)
            + b * (cg[0] + cg[1] * t + cg[2] * t**2),
            0.0,
            hi,
        )
        lhs = integrate(rule, combo)
        rhs = a * integrate(rule, poly(cf)) + b * integrate(rule, poly(cg))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_positivity(self):
        rule = build_rule(PQPair(0.99, 0.98), 1e-10)
        f = RealFunction(lambda t: (t - 0.4) ** 2, 0.0, rule.top_node)
        assert integrate(rule, f) >= 0.0

    def test_p1_matches_independent_jackson(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = float(rng.uniform(0.3, 0.95))
            coefs = rng.uniform(-2.0, 2.0, size=4)
            rule = build_rule(PQPair(1.0, q), 1e-12)

            def poly(t, c=coefs):
                return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3

            ours = integrate(rule, RealFunction(poly, 0.0, 1.0))
            ref = jackson_integral(poly, q, tol=1e-12)
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_domain_violation(self):
        rule = build_rule(PQPair(0.9, 0.8), 1e-10)
        too_small = RealFunction(lambda t: t, 0.0, 1.0, name="f")  # top node is 1/0.9
        with pytest.raises(DomainError):
            integrate(rule, too_small)


EPS = np.finfo(float).eps
MOMENTS = 2 * GAUSS_POINTS + 8  # degrees m < 2(s + 4), exact for the larger rule


def truncated_moments(pq, k1, count):
    """sum_{j<k1} (1 - r) r^j (r^j)^m for m < count, r = q/p: the K-node sums of (p t)^m."""
    log_r = math.log(pq.q) - math.log(pq.p)
    m1 = np.arange(1, count + 1)
    return -np.expm1(log_r) * np.expm1(m1 * k1 * log_r) / np.expm1(m1 * log_r)


def assert_sums_match(rule, pq, want):
    """The K-node rule and both Gauss rules sum (p t)^m, m < MOMENTS, as want within their slacks."""
    degrees = np.arange(want.size)
    rules = gauss_rules(rule)
    k_node = (pq.p * rule.nodes) ** degrees[:, None] @ rule.weights
    small, large = ((pq.p * rules.nodes) ** degrees[:, None] @ rules.weights).T
    exact_small = slice(0, 2 * GAUSS_POINTS)
    assert (np.abs(k_node - want) <= k_node_slack(degrees, pq)).all()
    assert (np.abs(small - want)[exact_small] <= gauss_slack(degrees)[exact_small]).all()
    assert (np.abs(large - want) <= gauss_slack(degrees)).all()


# Slacks set from the worst misses against the exact truncated moments over
# 14,000 draws of p in [0.5, 1], q/p in [0.3, 0.999] and tol in [1e-14, 1e-6],
# a fifth of each at an end of its range.  Both Gauss rules missed degree m
# by at most max(12, 1.94 m) eps (12 eps at m = 0, 75.5 eps at m = 39): node
# rounding moves t^m by about m eps.  The K-node float sums missed by at most
# (1.6 + m/4) eps / (1 - r): K+1 ~ 1/(1 - r) rounded weights and nodes.  The
# worst draws used 0.84 of gauss_slack and 0.78 of k_node_slack.
def gauss_slack(degrees):
    return (16 + 2 * degrees) * EPS


def k_node_slack(degrees, pq):
    return (3 + degrees / 4) * EPS / -math.expm1(math.log(pq.q) - math.log(pq.p))


class TestGaussRules:
    """The s- and (s+4)-point Gauss rules of the K-node rule's discrete measure."""

    @given(
        p=st.floats(min_value=0.5, max_value=1.0),
        ratio=st.floats(min_value=0.3, max_value=0.999),
        tol=st.floats(min_value=1e-14, max_value=1e-6),
    )
    @example(p=0.9999999999999999, ratio=0.680207421826858, tol=1e-10)
    @example(p=0.7566514846146122, ratio=0.99609375, tol=1e-10)
    # q = 9e-18: q - 1.0 rounds to -1.0, so log r cannot come from log1p(q - 1.0)
    @example(p=0.9, ratio=1e-17, tol=1e-10)
    def test_monomial_sums_match_the_exact_truncated_moments(self, p, ratio, tol):
        # monomials of p t, which spans (0, 1] on the nodes, so every sum is
        # at most 1; each rule is measured against the exact sum, not the
        # other's rounded one
        pq = PQPair(p, p * ratio)
        rule = build_rule(pq, tol)
        assert_sums_match(rule, pq, truncated_moments(pq, rule.nodes.size, MOMENTS))

    @pytest.mark.parametrize(
        "p, q, nodes", [(1.0, 0.5, 34), (0.75, 0.5, 57), (1.0, 0.875, 173), (0.5, 0.375, 81)]
    )
    def test_rational_pairs_match_fraction_moments(self, p, q, nodes):
        # dyadic p and q are exact floats, so the truncated moments
        # (1 - r)(1 - r^((m+1)(K+1)))/(1 - r^(m+1)) are exact fractions.  The
        # 34-node rule has fewer nodes than its 56 Gauss nodes, so the Gauss
        # path saves nothing and its operators keep the K-node rule at every
        # N; its Gauss rules are exact all the same
        pq = PQPair(p, q)
        rule = build_rule(pq, 1e-10)
        assert rule.nodes.size == nodes
        r = Fraction(q) / Fraction(p)
        exact = [(1 - r) * (1 - r ** ((m + 1) * nodes)) / (1 - r ** (m + 1)) for m in range(MOMENTS)]
        assert_sums_match(rule, pq, np.array([float(v) for v in exact]))

    def test_layout_nodes_inside_the_rule_and_negative_tail_weights(self):
        pq = PQPair(0.9, 0.8)
        rule = build_rule(pq, 1e-10)
        rules, s = gauss_rules(rule), GAUSS_POINTS
        main, tail = slice(0, 2 * s + 4), slice(2 * s + 4, None)
        assert rules.nodes.shape == (3 * s + 8,) and rules.weights.shape == (3 * s + 8, 2)
        assert (rules.weights[s : 2 * s + 4, 0] == 0.0).all() and (rules.weights[:s, 1] == 0.0).all()
        assert (rules.weights[:s, 0] > 0.0).all() and (rules.weights[s:main.stop, 1] > 0.0).all()
        # the tail subtracts r^(K+1) times the (s+4)-point rule, in both columns
        large = rules.weights[s:main.stop, 1]
        for column in (0, 1):
            np.testing.assert_array_equal(rules.weights[tail, column], -rule.tail_bound * large)
        assert rules.weights[main].sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-14)
        for nodes in (rules.nodes[:s], rules.nodes[s:main.stop], rules.nodes[tail]):
            assert (np.diff(nodes) > 0.0).all()
            assert 0.0 < nodes[0] and nodes[-1] <= rule.top_node
        assert rules.nodes[tail].max() <= rule.tail_bound * rule.top_node
        assert not rules.nodes.flags.writeable and not rules.weights.flags.writeable
