import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqbernstein.functions import DomainError, RealFunction
from pqbernstein.pq_core import PQPair, pq_integer
from pqbernstein.pq_quadrature import (
    DEFAULT_HARD_CAP,
    GAUSS_POINTS,
    TruncationError,
    build_rule,
    gauss_rules,
)
from pqbernstein.qreference import jackson_integral

from oracles import integrate

PAIRS = [PQPair(1.0, 0.5), PQPair(0.9, 0.8), PQPair(0.99, 0.98)]


def monomial(m, hi):
    return RealFunction(lambda t, m=m: t**m, 0.0, hi, name=f"t^{m}")


class TestBuildRule:
    def test_truncation_index_formula(self):
        pq = PQPair(0.9, 0.8)
        rule = build_rule(pq, 1e-12)
        assert rule.trunc_index == math.ceil(math.log(1e-12) / math.log(8 / 9)) - 1
        r = pq.q / pq.p
        assert rule.tail_bound <= 1e-12
        # minimality: one fewer node would breach the tolerance
        assert 1.0 * r**rule.trunc_index > 1e-12

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
        j = np.arange(rule.trunc_index + 1)
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


class TestGaussRules:
    """The s- and (s+4)-point Gauss rules of the K-node rule's discrete measure."""

    @given(
        p=st.floats(min_value=0.5, max_value=1.0),
        ratio=st.floats(min_value=0.6, max_value=0.999),
    )
    def test_monomial_sums_match_the_k_node_rule(self, p, ratio):
        # monomials of p t, which spans (0, 1] on the nodes, so every sum is
        # at most 1; a node rounded by eps moves (p t)^m by about m eps, hence
        # the slack that grows past degree 16 (measured worst over 1,500
        # random pairs: 1.9e-14 at degree 31)
        pq = PQPair(p, p * ratio)
        rule = build_rule(pq, 1e-10)
        rules = gauss_rules(rule)
        s = GAUSS_POINTS
        degrees = np.arange(2 * s + 8)
        want = (p * rule.nodes) ** degrees[:, None] @ rule.weights
        got = (p * rules.nodes) ** degrees[:, None] @ rules.weights
        slack = 1e-14 * np.maximum(1.0, degrees / 16)
        assert (np.abs(got[: 2 * s, 0] - want[: 2 * s]) <= slack[: 2 * s]).all()
        assert (np.abs(got[:, 1] - want) <= slack).all()

    def test_layout_nodes_inside_the_rule_and_positive_weights(self):
        pq = PQPair(0.9, 0.8)
        rule = build_rule(pq, 1e-10)
        rules, s = gauss_rules(rule), GAUSS_POINTS
        assert rules.nodes.shape == (2 * s + 4,) and rules.weights.shape == (2 * s + 4, 2)
        assert (rules.weights[s:, 0] == 0.0).all() and (rules.weights[:s, 1] == 0.0).all()
        assert (rules.weights[:s, 0] > 0.0).all() and (rules.weights[s:, 1] > 0.0).all()
        for nodes in (rules.nodes[:s], rules.nodes[s:]):
            assert (np.diff(nodes) > 0.0).all()
            assert 0.0 < nodes[0] and nodes[-1] <= rule.top_node
        assert not rules.nodes.flags.writeable and not rules.weights.flags.writeable

    def test_too_few_nodes_are_refused(self):
        # q/p = 0.5 at tol 1e-10: 34 nodes, no more than the 2s + 4 Gauss nodes
        pq = PQPair(1.0, 0.5)
        rule = build_rule(pq, 1e-10)
        assert rule.nodes.size <= 2 * GAUSS_POINTS + 4
        with pytest.raises(ValueError, match="Gauss rules"):
            gauss_rules(rule)
