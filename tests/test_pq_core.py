import dataclasses
import decimal
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp

from pqbernstein import pq_core
from pqbernstein.pq_core import PQPair, log_ratio, pq_integers, pq_rising_two_term

from oracles import (
    pq_binomial,
    pq_factorial,
    pq_integer,
    pq_power_falling,
    rising_two_term_loop,
)

PQ = PQPair(0.9, 0.8)
EPS = np.finfo(float).eps


def pq_pairs(min_p=0.4):
    """Strategy for valid (p, q); p below ~0.4 underflows the factorial path
    at the degrees probed here and is far outside the operating range anyway."""
    return st.tuples(
        st.floats(min_value=min_p, max_value=1.0),
        st.floats(min_value=0.05, max_value=0.999),
    ).map(lambda t: PQPair(t[0], min(t[1], 0.999) * t[0]))


def binomial_recurrence_table(n_max, pq):
    """Independent oracle: [n k] = q^k [n-1 k] + p^(n-k) [n-1 k-1], seeded [0 0] = 1."""
    p, q = pq.p, pq.q
    table = [[1.0]]
    for n in range(1, n_max + 1):
        prev = table[-1]
        row = []
        for k in range(n + 1):
            up = prev[k] if k < len(prev) else 0.0
            diag = prev[k - 1] if k >= 1 else 0.0
            row.append(q**k * up + p ** (n - k) * diag)
        table.append(row)
    return table


class TestPQPair:
    def test_valid(self):
        assert PQPair(1.0, 0.5).p == 1.0

    @pytest.mark.parametrize("p,q", [(0.8, 0.9), (0.9, 0.9), (1.1, 0.5), (0.9, 0.0), (0.9, -0.1)])
    def test_rejects_bad_order(self, p, q):
        with pytest.raises(ValueError):
            PQPair(p, q)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PQPair(float("nan"), 0.5)

    @pytest.mark.parametrize(
        "p, q", [(10**400, 0.5), (1.0, -(10**400))], ids=["p=10**400", "q=-10**400"]
    )
    def test_rejects_an_int_beyond_float_range(self, p, q):
        # math.isfinite raised OverflowError on these
        with pytest.raises(ValueError, match="finite"):
            PQPair(p, q)

    @pytest.mark.parametrize(
        "p, q",
        [(True, 0.5), (np.True_, 0.5), (0.9, False), ("0.95", "0.9"), (0.9, None),
         (np.array(0.9), 0.5), (0.9, 0.5 + 0j)],
        ids=repr,
    )
    def test_rejects_what_is_not_a_real_number(self, p, q):
        # True used to become p = 1.0, as it is refused for n, ell, quad_tol and x
        with pytest.raises(TypeError, match="real numbers"):
            PQPair(p, q)

    def test_hashable_by_value(self):
        assert PQPair(0.9, 0.8) == PQPair(0.9, 0.8)
        assert hash(PQPair(0.9, 0.8)) == hash(PQPair(0.9, 0.8))

    def test_cached_hash_keeps_the_dataclass_surface(self):
        pq = PQPair(0.9, 0.8)
        assert [f.name for f in dataclasses.fields(pq)] == ["p", "q"]
        assert repr(pq) == "PQPair(p=0.9, q=0.8)"
        moved = dataclasses.replace(pq, q=0.7)
        assert moved == PQPair(0.9, 0.7) and hash(moved) == hash(PQPair(0.9, 0.7))
        # NumPy floats become plain floats, so they hash as the equal pair
        assert hash(PQPair(np.float64(0.9), np.float32(0.5))) == hash(PQPair(0.9, 0.5))


def log_ratio_reference(pq):
    """log q - log p in 40 digits, rounded once to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(decimal.Decimal(pq.q).ln() - decimal.Decimal(pq.p).ln())


# p = 1, p anywhere in (0, 1] on a log scale, and p just below 1
PARAMETERS = st.one_of(
    st.just(1.0),
    st.floats(min_value=-300.0, max_value=0.0).map(lambda e: 10.0**e),
    st.floats(min_value=-16.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
)


class TestLogRatio:
    @given(PARAMETERS, st.one_of(
        st.floats(min_value=0.5, max_value=1.0),
        st.floats(min_value=-16.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
    ))
    @example(1.0, 1.0 - 2.0**-53)
    @example(0.9999983126586219, 0.999787914476763 / 0.9999983126586219)
    def test_a_few_ulps_relative_from_one_half_up(self, p, ratio):
        # q - p is exact here, so log r keeps a relative error of a few ulps
        # however close r is to 1; log q - log p would carry each log's
        # rounding, eps |log q| absolute
        q = p * ratio
        assume(0.5 * p <= q < p)
        want = log_ratio_reference(PQPair(p, q))
        assert abs(log_ratio(PQPair(p, q)) - want) <= 4.0 * math.ulp(want)

    @given(PARAMETERS, st.floats(min_value=-300.0, max_value=math.log10(0.5)))
    @example(1.0, -300.0)
    @example(0.9, math.log10(1e-17 / 0.9))
    def test_a_few_ulps_of_log_q_below(self, p, exponent):
        q = p * 10.0**exponent
        assume(0.0 < q < 0.5 * p and q / p >= sys.float_info.min)
        want = log_ratio_reference(PQPair(p, q))
        assert abs(log_ratio(PQPair(p, q)) - want) <= 4.0 * math.ulp(math.log(q))


class TestPQInteger:
    def test_zero_is_empty_sum(self):
        assert pq_integer(0, PQ) == 0.0

    def test_two_term_sum(self):
        assert pq_integer(2, PQ) == pytest.approx(1.7, abs=1e-15)

    def test_three_ratio_form(self):
        # (p^3 - q^3)/(p - q) = (0.729 - 0.512)/0.1
        assert pq_integer(3, PQ) == pytest.approx(2.17, abs=1e-14)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_p1_reduces_to_q_integer(self, q):
        pq = PQPair(1.0, q)
        for n in range(65):
            classical = (1.0 - q**n) / (1.0 - q)
            assert abs(pq_integer(n, pq) - classical) <= 1e-14 * max(1.0, classical)

    def test_p_equal_q_limit_is_exact(self):
        # summation form at p = q = 1 gives n with no cancellation; probe via
        # the closest admissible pair
        pq = PQPair(1.0, 1.0 - 1e-15)
        for n in (1, 7, 64):
            assert pq_integer(n, pq) == pytest.approx(n, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pq_integer(-1, PQ)


def classic(n):
    return PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))


def pairs_near_and_far():
    """p = 1, p below and above 0.5, and the classic pairs up to n = 1233;
    q/p = 1 - 10^e runs from about 0.1 to 1 - 1e-12."""
    ratio = st.floats(min_value=-12.0, max_value=-0.05).map(lambda e: 1.0 - 10.0**e)
    p = st.one_of(
        st.just(1.0),
        st.floats(min_value=0.01, max_value=0.5, exclude_max=True),
        st.floats(min_value=0.5, max_value=1.0),
    )
    return st.one_of(
        st.builds(lambda p, r: PQPair(p, p * r), p, ratio),
        st.integers(min_value=1, max_value=1233).map(classic),
    )


class TestPQIntegers:
    @given(pairs_near_and_far(), st.integers(min_value=1, max_value=1234))
    @example(PQPair(1.0, 1.0 - 1.0 / 1025), 1025)
    @example(classic(1024), 1025)
    @example(PQPair(0.9, 0.8), 201)
    @example(PQPair(0.49, 0.49 * (1.0 - 1e-6)), 900)
    def test_match_the_summation_form(self, pq, top):
        ints = pq_integers(pq, top)
        assert ints.shape == (top + 1,) and np.isfinite(ints).all()
        assert ints[0] == 0.0 and ints[1] == 1.0
        js = np.unique(np.concatenate([[2, 3, top], np.linspace(1, top, 13).astype(int)]))
        js = js[js <= top]
        want = np.array([pq_integer(int(j), pq) for j in js])
        # log p and log q each round to an ulp before log r = log q - log p,
        # and [j] carries that error (j - 1)/2 times while q/p -> 1, up to
        # r/(1 - r) times: below p = 0.5 that reaches 1.5e-14 at
        # p = 0.49, q/p = 1 - 1e-6, j <= 900; at p = 1 and on the classic
        # pairs it is below 1e-15
        r = pq.q / pq.p
        spread = np.minimum((js - 1) / 2.0, r / (1.0 - r))
        rel = 1e-14 + 2.0 * EPS * abs(math.log(pq.q)) * spread
        # below 1e-280 the terms of the reference underflow
        assert np.all(np.abs(ints[js] - want) <= rel * want + 1e-280)

    @pytest.mark.parametrize("top", [0, -1])
    def test_rejects_top_below_one(self, top):
        with pytest.raises(ValueError):
            pq_integers(PQ, top)


class TestPQFactorial:
    def test_empty_product(self):
        assert pq_factorial(0, PQ) == 1.0

    def test_two(self):
        assert pq_factorial(2, PQ) == pytest.approx(1.7, abs=1e-15)

    def test_three(self):
        assert pq_factorial(3, PQ) == pytest.approx(1.7 * 2.17, rel=1e-14)


class TestPQBinomial:
    def test_edge_columns(self):
        assert pq_binomial(5, 0, PQ) == 1.0
        assert pq_binomial(5, 5, PQ) == 1.0

    def test_out_of_range_is_zero(self):
        assert pq_binomial(4, -1, PQ) == 0.0
        assert pq_binomial(4, 5, PQ) == 0.0

    def test_column_one_is_the_integer(self):
        p, q = PQ.p, PQ.q
        assert pq_binomial(3, 1, PQ) == pytest.approx(p * p + p * q + q * q, rel=1e-14)

    def test_four_choose_two_vs_recurrence(self):
        table = binomial_recurrence_table(4, PQ)
        assert pq_binomial(4, 2, PQ) == pytest.approx(table[4][2], rel=1e-13)

    @given(pq_pairs(), st.integers(min_value=0, max_value=32))
    def test_recurrence_oracle(self, pq, n):
        table = binomial_recurrence_table(n, pq)
        for k in range(n + 1):
            assert pq_binomial(n, k, pq) == pytest.approx(table[n][k], rel=1e-12)

    @given(pq_pairs(), st.integers(min_value=0, max_value=24))
    def test_symmetry(self, pq, n):
        for k in range(n + 1):
            assert pq_binomial(n, k, pq) == pytest.approx(
                pq_binomial(n, n - k, pq), rel=1e-13
            )


class TestPowerProducts:
    def test_falling_empty(self):
        assert pq_power_falling(0.3, 0, PQ) == 1.0

    def test_falling_single_factor(self):
        assert pq_power_falling(0.3, 1, PQ) == pytest.approx(0.7, abs=1e-15)

    def test_falling_hand_expansion(self):
        # (1 - 0.5)(0.9 - 0.8*0.5)
        assert pq_power_falling(0.5, 2, PQ) == pytest.approx(0.25, abs=1e-15)

    @given(pq_pairs(), st.integers(min_value=0, max_value=64))
    def test_falling_at_zero(self, pq, m):
        # abs floor: p^(m(m-1)/2) can land subnormal where rel comparison is moot
        expected = pq.p ** (m * (m - 1) // 2)
        assert pq_power_falling(0.0, m, pq) == pytest.approx(
            expected, rel=1e-14, abs=1e-300
        )

    def test_rising_empty(self):
        assert pq_rising_two_term(2.0, 3.0, 0.1, 0.2, 0, PQ) == 1.0

    def test_rising_pure_p_powers(self):
        # a=1, b=1, x=1, y=0, m=3: product of p^s over s=0..2
        assert pq_rising_two_term(1.0, 1.0, 1.0, 0.0, 3, PQ) == pytest.approx(
            PQ.p**3, rel=1e-15
        )

    def test_rising_classical_square(self):
        pq = PQPair(1.0, 1.0 - 1e-15)
        a, b, x, y = 1.3, -0.4, 0.7, 0.2
        assert pq_rising_two_term(a, b, x, y, 2, pq) == pytest.approx(
            (a * x + b * y) ** 2, rel=1e-12
        )

    @given(pq_pairs(), st.floats(min_value=0.0, max_value=1.0), st.integers(0, 32))
    def test_falling_matches_rising_special_case(self, pq, x, m):
        # prod (p^s - q^s x) = rising product with a=1, x slot=1, b=-1, y=x
        lhs = pq_power_falling(x, m, pq)
        rhs = pq_rising_two_term(1.0, -1.0, 1.0, x, m, pq)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def same_bits(new, old) -> bool:
    """Equal value, sign of zero and NaN positions, element by element."""
    new, old = np.broadcast_arrays(np.asarray(new, dtype=float), np.asarray(old, dtype=float))
    return new.tobytes() == old.tobytes()


# x and y: a number or a grid of up to 40 points (several chunks once the
# block is patched small); the values reach overflow and zero factors
operands = st.floats(min_value=-2.0, max_value=2.0)
grids = hnp.arrays(float, st.integers(1, 40), elements=operands)


class TestRisingBlockedProduct:
    @given(
        pq_pairs(min_p=0.05),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.one_of(operands, grids),
        st.integers(0, 400),
        st.sampled_from([1, 3, 64, 1000, pq_core.BLOCK_VALUES]),
        st.data(),
    )
    def test_equals_the_factor_loop(self, pq, a, b, x, m, block, data):
        # y is a number, or a grid of x's shape
        shape = np.shape(x)
        y = data.draw(
            st.one_of(operands, hnp.arrays(float, shape, elements=operands))
            if shape else operands
        )
        with mock.patch.object(pq_core, "BLOCK_VALUES", block):
            new = pq_rising_two_term(a, b, x, y, m, pq)
        old = rising_two_term_loop(a, b, x, y, m, pq)
        assert np.shape(new) == np.broadcast_shapes(np.shape(x), np.shape(y))
        assert same_bits(new, old)

    @pytest.mark.parametrize(
        "block", [1, 101, 5 * 101, pytest.param(pq_core.BLOCK_VALUES, id="BLOCK_VALUES")]
    )
    def test_classic_grid_crossing_chunk_boundaries(self, block):
        # the shape of a theorems closed form: N = 131 factors over G = 101
        # points, one or three points per block when patched, all at once else
        n = 130
        pq = PQPair(1.0 - 1.0 / (n + 2) ** 2, 1.0 - 1.0 / (n + 2))
        xs = np.linspace(0.0, 1.0, 101)
        with mock.patch.object(pq_core, "BLOCK_VALUES", block):
            new = pq_rising_two_term(pq.p * pq.p, 1.0, xs, 1.0 - xs, n + 1, pq)
        assert same_bits(new, rising_two_term_loop(pq.p * pq.p, 1.0, xs, 1.0 - xs, n + 1, pq))

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_scalar_input_returns_float(self, m):
        value = pq_rising_two_term(0.9, 1.0, 0.3, 0.7, m, PQ)
        assert type(value) is float
        assert value == rising_two_term_loop(0.9, 1.0, 0.3, 0.7, m, PQ)

    def test_empty_product_over_a_grid_is_ones(self):
        xs = np.linspace(0.0, 1.0, 5)
        value = pq_rising_two_term(0.9, 1.0, xs, 1.0 - xs, 0, PQ)
        assert value.shape == (5,) and (value == 1.0).all()

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="non-negative"):
            pq_rising_two_term(1.0, 1.0, 0.5, 0.5, -1, PQ)
