import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqbernstein.functions import DomainError, RealFunction, make_function
from pqbernstein.operator_eval import (
    BasisVariant,
    NumericalRangeError,
    SchurerConfig,
    apply,
    apply_central_moment,
    apply_on_grid,
    basis_matrix,
    required_domain,
)
from pqbernstein.pq_core import PQPair
from pqbernstein.pq_quadrature import build_rule
from pqbernstein.qreference import q_kantorovich_schurer

from oracles import (
    argument,
    basis,
    exact_basis_rows,
    integrate,
    pq_binomial,
    pq_integer,
    pq_power_falling,
)

PQ = PQPair(0.9, 0.8)


def brute_force_apply(config, pq, fn, x):
    """Slow reference: the defining sum assembled from the scalar primitives."""
    big_n = config.degree
    rule = build_rule(pq, config.quad_tol)
    total = 0.0
    for k in range(big_n + 1):
        b = pq_binomial(big_n, k, pq) * x**k * pq_power_falling(x, big_n - k, pq)
        if config.basis_variant is BasisVariant.NORMALIZED:
            b *= pq.p ** ((k * (k - 1) - big_n * (big_n - 1)) / 2.0)
        integral = sum(
            w * fn(argument(k, float(t), config, pq))
            for t, w in zip(rule.nodes, rule.weights)
        )
        total += b * integral
    return total


class TestBasis:
    def test_printed_sum_witness_degree_two(self):
        # sum over k of the printed basis at N=2 is p + (1-p) x^2, not 1
        config = SchurerConfig(n=2, ell=0, basis_variant=BasisVariant.AS_PRINTED)
        for x in np.linspace(0.0, 1.0, 101):
            total = sum(basis(config, PQ, k, float(x)) for k in range(3))
            assert abs(total - (0.9 + 0.1 * x**2)) <= 1e-13

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_normalized_partition_of_unity(self, n, ell, x):
        config = SchurerConfig(n=n, ell=ell)
        total = sum(basis(config, PQ, k, x) for k in range(config.degree + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_nonnegative_on_unit_interval(self):
        for variant in BasisVariant:
            config = SchurerConfig(n=6, ell=1, basis_variant=variant)
            for x in np.linspace(0.0, 1.0, 21):
                assert (basis_matrix(config, PQ, float(x)) >= 0.0).all()

    def test_at_zero_only_first_survives(self):
        config = SchurerConfig(n=5, ell=2)
        row = basis_matrix(config, PQ, 0.0)
        assert row[0] == pytest.approx(1.0, rel=1e-14)
        assert row[1:] == pytest.approx(np.zeros(config.degree), abs=0.0)

    def test_out_of_range_k_is_zero(self):
        config = SchurerConfig(n=3)
        assert basis(config, PQ, -1, 0.5) == 0.0
        assert basis(config, PQ, 4, 0.5) == 0.0


# |sum_k b_k(x) - 1| <= PARTITION_ULPS * 1e-16 * (N + 1): one rounding per
# factor of the coefficient and falling products; the largest measured
# constant over 400 random (p, q/p <= 0.99, N <= 512) draws and the classic
# schedule to N = 1233 was 0.74, over 400 draws with N <= 4096 it was 0.56
PARTITION_ULPS = 4.0
XS_WIDE = np.linspace(0.0, 1.0, 41)
EXACT_XS = (Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1))


def assert_basis_sound(config, pq, xs):
    """Finite, nonnegative, and for the normalized variant a partition of unity."""
    b = basis_matrix(config, pq, xs)
    assert np.isfinite(b).all() and (b >= 0.0).all()
    if config.basis_variant is BasisVariant.NORMALIZED:
        bound = PARTITION_ULPS * 1e-16 * (config.degree + 1)
        assert np.abs(b.sum(axis=-1) - 1.0).max() <= bound


class TestWideRange:
    @pytest.mark.parametrize("p, q, big_n", [(0.9, 0.8, 141), (0.95, 0.9, 234), (0.9, 0.8, 200)])
    def test_partition_where_the_factorial_ratio_failed(self, p, q, big_n):
        # the first two drifted silently (3.0e-2 and 2.9e-5) from subnormal
        # factorials; the third overflowed
        b = basis_matrix(SchurerConfig(n=big_n), PQPair(p, q), XS_WIDE)
        assert np.abs(b.sum(axis=-1) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_classic_schedule(self, n):
        pq = PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))
        for variant in BasisVariant:
            config = SchurerConfig(n=n, basis_variant=variant)
            assert_basis_sound(config, pq, XS_WIDE)

    # the basis builds no quadrature rule or argument means, so N reaches
    # 4096; with q/p <= 0.99 the Gaussian binomials stay below 1e72
    @given(
        st.floats(min_value=0.6, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=4096),
    )
    def test_finite_nonnegative_partition(self, p, ratio, big_n):
        for variant in BasisVariant:
            config = SchurerConfig(n=big_n, basis_variant=variant)
            assert_basis_sound(config, PQPair(p, ratio * p), XS_WIDE)

    @pytest.mark.parametrize("q", [1e-17, 1e-200, 5e-324])
    def test_tiny_q_is_a_finite_partition_of_unity(self, q):
        # q - 1.0 rounds to -1.0 below about 1.1e-16, so log q cannot come
        # from log1p(q - 1.0) there
        pq = PQPair(0.9, q)
        for variant in BasisVariant:
            assert_basis_sound(SchurerConfig(n=3, basis_variant=variant), pq, XS_WIDE)
        config = SchurerConfig(n=3)
        e0 = make_function("e0", *required_domain(config, pq))
        assert apply(config, pq, e0, 0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("big_n", [6, 141, 200])
    @pytest.mark.parametrize(
        "p, q",
        [
            (Fraction(9, 10), Fraction(4, 5)),
            (Fraction(19, 20), Fraction(9, 10)),
            (Fraction(1), Fraction(99, 100)),
        ],
    )
    def test_matches_exact_rational_basis(self, p, q, big_n):
        # the float p, q differ from the rationals by half an ulp, which moves
        # the basis by less than 1e-14 here
        xs = [float(x) for x in EXACT_XS]
        for variant in BasisVariant:
            exact = exact_basis_rows(big_n, p, q, EXACT_XS, variant is BasisVariant.NORMALIZED)
            config = SchurerConfig(n=big_n, basis_variant=variant)
            got = basis_matrix(config, PQPair(float(p), float(q)), xs)
            assert np.abs(got - np.array(exact)).max() <= 1e-13

    @pytest.mark.parametrize("big_n", [1, 2, 5, 9])
    def test_exact_oracle_is_the_definition(self, big_n):
        # dyadic p, q and x are floats exactly, so the term-by-term float
        # definition differs from the exact rows only by its own rounding
        p, q = Fraction(15, 16), Fraction(5, 8)
        pq = PQPair(float(p), float(q))
        xs = (Fraction(0), Fraction(3, 8), Fraction(1))
        for normalized in (False, True):
            for x, row in zip(xs, exact_basis_rows(big_n, p, q, xs, normalized)):
                for k, value in enumerate(row):
                    want = pq_binomial(big_n, k, pq) * float(x) ** k
                    want *= pq_power_falling(float(x), big_n - k, pq)
                    if normalized:
                        want *= pq.p ** ((k * (k - 1) - big_n * (big_n - 1)) / 2.0)
                    assert value == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_non_finite_means_raise_and_name_the_function(self):
        # the arguments reach 8.1e153: f_fig's t^2 overflows, so its means are
        # NaN, while holder_half stays finite there, as the contract allows
        config = SchurerConfig(n=979, ell=3, quad_tol=1.1711911695041253e-4)
        pq = PQPair(0.6961011500744568, 0.32288160198390276)
        lo, hi = required_domain(config, pq)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalRangeError, match=r"f_fig .*\[0, 8\.1\d*e\+153\]"):
                apply(config, pq, make_function("f_fig", lo, hi), 0.5)
        assert math.isfinite(apply(config, pq, make_function("holder_half", lo, hi), 0.5))


class TestArgument:
    def test_k_zero_is_scaled_t(self):
        config = SchurerConfig(n=7, ell=1)
        for t in (0.0, 0.3, 1.1):
            assert argument(0, t, config, PQ) == pytest.approx(
                t / pq_integer(8, PQ), rel=1e-14
            )

    def test_t_zero_is_shift_only(self):
        config = SchurerConfig(n=7, ell=1)
        for k in range(9):
            assert argument(k, 0.0, config, PQ) == pytest.approx(
                pq_integer(k, PQ) / pq_integer(8, PQ), rel=1e-14
            )

    def test_p1_slope_coefficient_is_qk(self):
        # at p=1 the step [k+1]-[k] collapses to q^k, the coefficient form of
        # the q-parameter operator
        q = 0.77
        pq = PQPair(1.0, q)
        config = SchurerConfig(n=40, ell=0)
        denom = pq_integer(41, pq)
        for k in range(33):
            slope = argument(k, 1.0, config, pq) - argument(k, 0.0, config, pq)
            assert slope == pytest.approx(q**k / denom, rel=1e-12)

    def test_slope_can_be_negative_for_small_p(self):
        # [k]_{p,q} decays for large k when p < 1, so the argument need not be
        # increasing in t
        config = SchurerConfig(n=12, ell=0)
        slope = argument(12, 1.0, config, PQ) - argument(12, 0.0, config, PQ)
        assert slope < 0.0


class TestRequiredDomain:
    def test_p1_no_shift_stays_inside_unit(self):
        pq = PQPair(1.0, 0.8)
        lo, hi = required_domain(SchurerConfig(n=6, ell=0), pq)
        assert lo == 0.0
        assert hi <= 1.0 + 1e-12

    def test_p1_with_shift_enumeration(self):
        pq = PQPair(1.0, 0.8)
        config = SchurerConfig(n=6, ell=2)
        lo, hi = required_domain(config, pq)
        # top argument is [n+ell+1]/[n+1] at the top node t=1
        expected = pq_integer(9, pq) / pq_integer(7, pq)
        assert hi == pytest.approx(expected, rel=1e-13)
        assert hi > 1.0

    def test_small_p_inflates_top(self):
        hi_p1 = required_domain(SchurerConfig(n=6, ell=0), PQPair(1.0, 0.8))[1]
        hi_small = required_domain(SchurerConfig(n=6, ell=0), PQ)[1]
        assert hi_small != hi_p1  # top quadrature node moves to 1/p


class TestApply:
    def test_constant_reproduction(self):
        for (n, ell, p, q) in [(5, 0, 0.9, 0.8), (10, 2, 0.95, 0.9), (20, 1, 0.99, 0.98)]:
            config = SchurerConfig(n=n, ell=ell)
            pq = PQPair(p, q)
            f = make_function("e0", *required_domain(config, pq))
            for x in (0.0, 0.3, 1.0):
                budget = (config.degree + 1) * config.quad_tol
                assert abs(apply(config, pq, f, x) - 1.0) <= budget

    def test_first_moment_at_zero(self):
        config = SchurerConfig(n=9, ell=1, quad_tol=1e-12)
        f = make_function("e1", *required_domain(config, PQ))
        expected = 1.0 / (pq_integer(2, PQ) * pq_integer(10, PQ))
        assert apply(config, PQ, f, 0.0) == pytest.approx(expected, abs=1e-11)

    def test_single_term_collapse_at_zero(self):
        # apply(f; 0) equals the plain quadrature of f(t/[n+1])
        config = SchurerConfig(n=6, ell=0, quad_tol=1e-12)
        denom = pq_integer(7, PQ)
        f = make_function("f_fig", *required_domain(config, PQ))
        rule = build_rule(PQ, 1e-12)
        scaled = RealFunction(lambda t: f.fn(t / denom), 0.0, rule.top_node)
        assert apply(config, PQ, f, 0.0) == pytest.approx(
            integrate(rule, scaled), abs=1e-12
        )

    def test_matches_brute_force_reference(self):
        config = SchurerConfig(n=3, ell=1, quad_tol=1e-10)
        f = make_function("f_fig", *required_domain(config, PQ))
        for x in (0.0, 0.37, 0.9, 1.0):
            assert apply(config, PQ, f, x) == pytest.approx(
                brute_force_apply(config, PQ, f.fn, x), rel=1e-12
            )

    def test_matches_brute_force_printed_variant(self):
        config = SchurerConfig(
            n=4, ell=0, basis_variant=BasisVariant.AS_PRINTED, quad_tol=1e-10
        )
        f = make_function("e2", *required_domain(config, PQ))
        assert apply(config, PQ, f, 0.62) == pytest.approx(
            brute_force_apply(config, PQ, f.fn, 0.62), rel=1e-12
        )

    def test_p1_matches_independent_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(2, 25))
            ell = int(rng.integers(0, 4))
            q = float(rng.uniform(0.5, 0.95))
            x = float(rng.uniform(0.0, 1.0))
            coefs = rng.uniform(-1.0, 1.0, size=4)
            pq = PQPair(1.0, q)
            config = SchurerConfig(n=n, ell=ell, quad_tol=1e-12)

            def poly(t, c=coefs):
                return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3

            ours = apply(config, pq, RealFunction(poly, *required_domain(config, pq)), x)
            ref = q_kantorovich_schurer(n, ell, q, poly, x, tol=1e-12)
            assert ours == pytest.approx(ref, abs=1e-9)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_linearity(self, a, b, x):
        config = SchurerConfig(n=4, ell=1)
        lo, hi = required_domain(config, PQ)
        f = make_function("e1", lo, hi)
        g = make_function("f_fig", lo, hi)
        combo = RealFunction(lambda t: a * t + b * (1.0 + np.cos(5.0 * t**2)), lo, hi)
        lhs = apply(config, PQ, combo, x)
        rhs = a * apply(config, PQ, f, x) + b * apply(config, PQ, g, x)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_positivity(self, roots, x):
        config = SchurerConfig(n=5, ell=0)
        lo, hi = required_domain(config, PQ)
        f = RealFunction(lambda t: (t - roots[0]) ** 2 * (t - roots[1]) ** 2, lo, hi)
        budget = (config.degree + 1) * config.quad_tol
        assert apply(config, PQ, f, x) >= -budget

    def test_monotonicity_in_f(self):
        config = SchurerConfig(n=6, ell=1)
        lo, hi = required_domain(config, PQ)
        f = make_function("e1", lo, hi)
        g = RealFunction(lambda t: t + 0.05 * (1.0 + np.sin(3.0 * t)), lo, hi)  # g >= f
        budget = 2 * (config.degree + 1) * config.quad_tol
        for x in np.linspace(0.0, 1.0, 11):
            assert apply(config, PQ, f, float(x)) <= apply(config, PQ, g, float(x)) + budget

    def test_grid_evaluation_matches_pointwise(self):
        config = SchurerConfig(n=7, ell=1)
        f = make_function("f_fig", *required_domain(config, PQ))
        xs = np.linspace(0.0, 1.0, 9)
        grid_vals = apply_on_grid(config, PQ, f, xs)
        for x, v in zip(xs, grid_vals):
            assert v == pytest.approx(apply(config, PQ, f, float(x)), rel=1e-14)

    def test_domain_violation_raises(self):
        config = SchurerConfig(n=5, ell=2)
        f = make_function("e1", 0.0, 1.0)  # required domain goes beyond 1
        with pytest.raises(DomainError):
            apply(config, PQ, f, 0.5)

    def test_x_outside_unit_interval_rejected(self):
        config = SchurerConfig(n=5, ell=0)
        f = make_function("e1", *required_domain(config, PQ))
        with pytest.raises(ValueError):
            apply(config, PQ, f, 1.5)


class TestCentralMoments:
    def test_second_nonnegative_up_to_truncation(self):
        for x in np.linspace(0.0, 1.0, 11):
            value = apply_central_moment(SchurerConfig(n=8, ell=1), PQ, float(x), 2)
            assert value >= -1e-9

    def test_first_at_zero_is_raw_first_moment(self):
        config = SchurerConfig(n=9, ell=1)
        f = make_function("e1", *required_domain(config, PQ))
        assert apply_central_moment(config, PQ, 0.0, 1) == pytest.approx(
            apply(config, PQ, f, 0.0), rel=1e-12
        )

    def test_classical_kantorovich_limit(self):
        # p=1, q ~ 1 surrogate against the classical Bernstein-Kantorovich
        # second central moment, computed by brute force
        n, x = 50, 0.3
        pq = PQPair(1.0, 0.9999)
        value = apply_central_moment(SchurerConfig(n=n, ell=0), pq, x, 2)

        classical = 0.0
        h = 1.0 / (n + 1)
        for k in range(n + 1):
            a = k * h - x
            piece = a * a + a * h + h * h / 3.0  # int_0^1 ((k+t)h - x)^2 dt
            classical += math.comb(n, k) * x**k * (1 - x) ** (n - k) * piece
        assert value > 0.0
        assert value == pytest.approx(classical, rel=0.05)

    # 2.0 used to fail on the tuple index and True to pass as order 1
    @pytest.mark.parametrize("order", [3, 0, 2.0, 1.0, True, False, "2", None], ids=repr)
    def test_invalid_order(self, order):
        with pytest.raises(ValueError, match="order must be the int 1 or 2"):
            apply_central_moment(SchurerConfig(n=4), PQ, 0.5, order)


class TestConfigValidation:
    @pytest.mark.parametrize("variant", ["printed", "normalized", None, 0])
    def test_rejects_basis_variant_that_is_not_the_enum(self, variant):
        # a string used to evaluate the normalized basis silently
        with pytest.raises(ValueError, match="basis_variant"):
            SchurerConfig(n=2, basis_variant=variant)

    def test_enum_members_accepted(self):
        for variant in BasisVariant:
            assert SchurerConfig(n=2, basis_variant=variant).basis_variant is variant

    @pytest.mark.parametrize("tol", [1e-18, 2.0**-53, 5e-324])
    def test_rejects_tolerance_below_float_resolution(self, tol):
        # the e0 gate 10 (N+1) tol failed on a correct operator at tol 1e-18
        with pytest.raises(ValueError, match="quad_tol"):
            SchurerConfig(n=8, quad_tol=tol)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            # bools used to be kept and written as JSON true/false
            ({"n": True}, "n"),
            ({"n": 3, "ell": False}, "ell"),
            ({"n": 3, "quad_tol": True}, "quad_tol"),
            ({"n": 0}, "n"),
            ({"n": 3.0}, "n"),
            ({"n": "3"}, "n"),
            ({"n": 3, "ell": -1}, "ell"),
            ({"n": 3, "ell": np.float64(1.0)}, "ell"),
            ({"n": 3, "quad_tol": "1e-10"}, "quad_tol"),
        ],
    )
    def test_rejects_fields_of_the_wrong_type(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SchurerConfig(**kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        config = SchurerConfig(n=np.int64(3), ell=np.int32(1), quad_tol=np.float64(1e-9))
        assert (type(config.n), type(config.ell), type(config.quad_tol)) == (int, int, float)
        assert config == SchurerConfig(n=3, ell=1, quad_tol=1e-9)
        assert hash(config) == hash(SchurerConfig(n=3, ell=1, quad_tol=1e-9))


class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        one = SchurerConfig(n=6, ell=2, basis_variant=BasisVariant.AS_PRINTED, quad_tol=1e-9)
        two = SchurerConfig(6, 2, BasisVariant.AS_PRINTED, 1e-9)
        assert one == two and hash(one) == hash(two)
        assert SchurerConfig(n=6, ell=2, quad_tol=1e-9) != one

    def test_cached_hash_keeps_the_dataclass_surface(self):
        config = SchurerConfig(n=6, ell=2)
        assert [f.name for f in dataclasses.fields(config)] == [
            "n", "ell", "basis_variant", "quad_tol"
        ]
        assert "_hash" not in repr(config)
        moved = dataclasses.replace(config, basis_variant=BasisVariant.AS_PRINTED)
        fresh = SchurerConfig(n=6, ell=2, basis_variant=BasisVariant.AS_PRINTED)
        assert moved == fresh and hash(moved) == hash(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n = 7

    def test_unpickled_keys_from_another_process_find_their_entry(self):
        # the child hashes str and Enum values with another seed, so a hash
        # built from them would be stale here
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": str(src)}
        code = (
            "import pickle, sys\n"
            "from pqbernstein import BasisVariant, PQPair, SchurerConfig\n"
            "key = (SchurerConfig(n=7, ell=1, basis_variant=BasisVariant.AS_PRINTED),"
            " PQPair(0.9, 0.8))\n"
            "sys.stdout.buffer.write(pickle.dumps(key))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, env=env
        ).stdout
        key = (SchurerConfig(n=7, ell=1, basis_variant=BasisVariant.AS_PRINTED), PQPair(0.9, 0.8))
        assert {key: "entry"}[pickle.loads(out)] == "entry"
