import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqbernstein.functions import DomainError, RealFunction
from pqbernstein.pq_core import PQPair, pq_integer
from pqbernstein.pq_quadrature import DEFAULT_HARD_CAP, TruncationError, build_rule
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
