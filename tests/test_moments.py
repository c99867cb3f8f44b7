import json
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from pqbernstein import moments_closed
from pqbernstein.error_bounds import check_t34
from pqbernstein.functions import make_function
from pqbernstein.moments_closed import CSV_COLUMNS, build_moment_report, closed_moments
from pqbernstein.operator_eval import (
    BasisVariant,
    SchurerConfig,
    evaluate_on_grid,
    required_domain,
)
from pqbernstein.pq_core import PQPair, pq_integers, pq_rising_two_term

from oracles import pq_integer, rising_two_term_loop

PQ = PQPair(0.9, 0.8)


def table_rows(report):
    """The report's table one row at a time, each cell an attribute named by its column."""
    names = list(report.columns)
    return [SimpleNamespace(**dict(zip(names, cells))) for cells in zip(*report.columns.values())]


class TestClosedForms:
    def test_first_moment_collapse_at_zero(self):
        config = SchurerConfig(n=4, ell=2)
        big_n = config.degree
        expected = PQ.q ** (big_n * (big_n - 1) // 2) / (
            pq_integer(2, PQ) * pq_integer(5, PQ)
        )
        assert closed_moments(config, PQ, 0.0)[0] == pytest.approx(expected, rel=1e-14)

    def test_second_moment_collapse_at_zero(self):
        config = SchurerConfig(n=4, ell=2)
        big_n = config.degree
        expected = PQ.q ** (big_n * (big_n - 1) // 2) / (
            pq_integer(3, PQ) * pq_integer(5, PQ) ** 2
        )
        assert closed_moments(config, PQ, 0.0)[1] == pytest.approx(expected, rel=1e-14)

    def test_classical_limit_first_moment(self):
        # p=1, q ~ 1: (n x + 1/2)/(n+1) for ell = 0
        n, x = 10, 0.5
        config = SchurerConfig(n=n, ell=0)
        value = closed_moments(config, PQPair(1.0, 0.9999), x)[0]
        assert value == pytest.approx((n * x + 0.5) / (n + 1), abs=2e-3)

    def test_classical_limit_second_moment(self):
        n, x = 10, 0.5
        config = SchurerConfig(n=n, ell=0)
        value = closed_moments(config, PQPair(1.0, 0.9999), x)[1]
        classical = 0.0
        h = 1.0 / (n + 1)
        import math

        for k in range(n + 1):
            # int_0^1 ((k+t) h)^2 dt
            piece = (k * h) ** 2 + k * h * h + h * h / 3.0
            classical += math.comb(n, k) * x**k * (1 - x) ** (n - k) * piece
        assert value == pytest.approx(classical, abs=2e-3)

    def test_central_first_reduces_to_head_at_zero(self):
        config = SchurerConfig(n=3, ell=1)
        big_n = config.degree
        c1 = closed_moments(config, PQ, 0.0)[2]
        head = PQ.q ** (big_n * (big_n - 1) // 2) / (pq_integer(2, PQ) * pq_integer(4, PQ))
        assert c1 == pytest.approx(head, rel=1e-14)

    def test_central_consistent_with_raw_when_degree_one(self):
        # the transcribed central form drops a factor [N] and swaps p for p^2
        # in its head; both discrepancies vanish when N = n + ell = 1 at p = 1
        config = SchurerConfig(n=1, ell=0)
        pq = PQPair(1.0, 0.8)
        for x in np.linspace(0.0, 1.0, 11):
            m1, _, c1, _ = closed_moments(config, pq, float(x))
            assert c1 == pytest.approx(m1 - x, abs=1e-12)

    def test_central_inconsistent_with_raw_for_higher_degree(self):
        # for N >= 2 the dropped [N] factor is visible even at p = 1
        config = SchurerConfig(n=3, ell=0)
        pq = PQPair(1.0, 0.8)
        m1, _, c1, _ = closed_moments(config, pq, 0.5)
        assert abs(c1 - (m1 - 0.5)) > 1e-3


def classic(n):
    return PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))


def squares_disagree_grid(size=20):
    """Points where Python's x**2 (libm pow) and NumPy's x*x differ in the last
    bit: about one random x in a thousand with glibc, none where pow rounds
    correctly (then the grid is [0.5])."""
    xs = np.random.default_rng(0).random(100_000).tolist()
    return np.sort([x for x in xs if x**2 != x * x][:size] or [0.5])


class TestClosedFormsAgainstTheFactorLoop:
    @pytest.mark.parametrize(
        "config, pq",
        [
            (SchurerConfig(n=1), PQPair(0.9, 0.8)),
            (SchurerConfig(n=4, ell=2), PQ),
            (SchurerConfig(n=128, ell=2), classic(128)),
            (SchurerConfig(n=300), PQPair(1.0, 0.99)),
        ],
    )
    def test_bit_identical_to_the_loop_products(self, config, pq):
        xs = np.linspace(0.0, 1.0, 101)
        new = closed_moments(config, pq, xs)
        with mock.patch.object(moments_closed, "pq_rising_two_term", rising_two_term_loop):
            old = closed_moments(config, pq, xs)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
        # m1 as transcribed, from the full N-factor loop product rather than
        # N - 1 factors times the last one, on the same (p,q)-integers
        p, q, big_n = pq.p, pq.q, config.degree
        ints = pq_integers(pq, big_n + 1).tolist()
        denom = ints[2] * ints[config.n + 1]
        head = rising_two_term_loop(p, 1.0, xs, 1.0 - xs, big_n, pq)
        m1 = head / denom + (p + 2.0 * q - 1.0) * ints[big_n] * xs / denom
        assert np.array_equal(new[0], m1)

    @pytest.mark.parametrize("big_n", [1, 2, 131, 400])
    @pytest.mark.parametrize("c", [0.95, 0.95**2])
    def test_last_factor_extends_the_product_in_loop_order(self, big_n, c):
        pq = PQPair(0.95, 0.9)
        xs = np.linspace(0.0, 1.0, 1001)
        shorter = rising_two_term_loop(c, 1.0, xs, 1.0 - xs, big_n - 1, pq)
        full = rising_two_term_loop(c, 1.0, xs, 1.0 - xs, big_n, pq)
        assert np.array_equal(shorter * moments_closed._last_factor(c, xs, big_n, pq), full)

    def test_scalar_x_gives_floats(self):
        for value in closed_moments(SchurerConfig(n=6, ell=1), PQ, 0.3):
            assert type(value) is float

    def test_large_degree_fine_grid_stays_small(self):
        # one product block is 256 KB; the unblocked factor table at
        # N = 1000, G = 1001 would be 8 MB, with temporaries of its size
        config, pq = SchurerConfig(n=1000), classic(1000)
        xs = np.linspace(0.0, 1.0, 1001)
        tracemalloc.start()
        try:
            closed_moments(config, pq, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_two_rising_products_per_report_and_per_t34(self):
        # (p^2 x + 1 - x)^N and (p x + 1 - x)^{N-1}, each built once
        config, xs = SchurerConfig(n=40, ell=1), np.linspace(0.0, 1.0, 11)
        f = make_function("e1", *required_domain(config, PQ))
        with mock.patch.object(
            moments_closed, "pq_rising_two_term", wraps=pq_rising_two_term
        ) as spy:
            build_moment_report(config, PQ, xs)
            assert spy.call_count == 2
            check_t34(config, PQ, f, xs)
            assert spy.call_count == 4


class TestMomentReport:
    def test_single_point_grid(self):
        config = SchurerConfig(n=4, ell=0)
        report = build_moment_report(config, PQ, [0.0])
        assert all(len(cells) == 1 for cells in report.columns.values())
        assert report.columns["oracle_m0"][0] == pytest.approx(1.0, abs=5 * config.quad_tol)

    @pytest.mark.parametrize(
        "config, pq",
        [
            (SchurerConfig(n=6, ell=2), PQ),
            (SchurerConfig(n=5, basis_variant=BasisVariant.AS_PRINTED), PQ),
            # above the Gauss crossover: e1 and e2 take the Gauss rules there
            (SchurerConfig(n=64, ell=1), PQPair(1.0 - 1.0 / 65**2, 1.0 - 1.0 / 65)),
        ],
    )
    def test_oracle_m0_is_the_node_moment_k1_bit_for_bit(self, config, pq):
        xs = np.linspace(0.0, 1.0, 41)
        report = build_moment_report(config, pq, xs)
        raw0 = evaluate_on_grid(config, pq, (), xs).raw[0]
        assert [v.hex() for v in report.columns["oracle_m0"]] == [v.hex() for v in raw0.tolist()]

    def test_oracle_consistency_identities(self):
        for (n, ell, p, q) in [(4, 1, 0.9, 0.8), (8, 0, 0.99, 0.98), (6, 2, 1.0, 0.9)]:
            config = SchurerConfig(n=n, ell=ell)
            report = build_moment_report(config, PQPair(p, q), np.linspace(0, 1, 11))
            assert report.max_m0_dev <= n * config.quad_tol
            assert report.max_c1_consistency <= 2 * n * config.quad_tol
            assert report.max_c2_consistency <= 4 * n * config.quad_tol
            assert all(c2 >= -n * config.quad_tol for c2 in report.columns["oracle_c2"])

    def test_p1_degree_one_collapses_to_quadrature_noise(self):
        # the only case where every transcribed form is a correct
        # q-specialization: closed-vs-oracle differences are truncation noise
        config = SchurerConfig(n=1, ell=0, quad_tol=1e-12)
        report = build_moment_report(config, PQPair(1.0, 0.9), np.linspace(0, 1, 21))
        assert report.max_abs_diff_overall <= 100 * config.quad_tol
        assert not report.flagged

    def test_small_p_is_flagged(self):
        config = SchurerConfig(n=6, ell=2)
        report = build_moment_report(config, PQ, np.linspace(0, 1, 21))
        assert report.flagged
        assert report.max_abs_diff_overall > 0.01

    def test_printed_vs_normalized_m0_witness(self):
        # oracle m0 for the printed basis carries the p + (1-p) x^2 defect at N=2
        printed = SchurerConfig(n=2, ell=0, basis_variant=BasisVariant.AS_PRINTED)
        report = build_moment_report(printed, PQ, np.linspace(0, 1, 11))
        for x, m0 in zip(report.columns["x"], report.columns["oracle_m0"]):
            assert m0 == pytest.approx(PQ.p + (1 - PQ.p) * x**2, abs=1e-9)

    def test_csv_shape(self):
        config = SchurerConfig(n=3, ell=0)
        report = build_moment_report(config, PQ, [0.0, 0.5, 1.0])
        lines = report.to_csv_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_json_fields(self):
        config = SchurerConfig(n=3, ell=1)
        report = build_moment_report(config, PQ, [0.0, 1.0])
        doc = json.loads(report.to_json_text())
        assert doc["schema_version"] == "1"
        assert doc["kind"] == "moment_report"
        assert doc["config"] == {
            "n": 3,
            "ell": 1,
            "basis_variant": "normalized",
            "quad_tol": config.quad_tol,
        }
        assert doc["pq"] == {"p": 0.9, "q": 0.8}
        assert "interpretation" in doc
        assert isinstance(doc["closed_form_discrepancy_flag"], bool)
        assert len(doc["rows"]) == 2

    def test_max_abs_diff_is_the_row_maximum(self):
        report = build_moment_report(SchurerConfig(n=12, ell=1), PQ, np.linspace(0, 1, 41))
        for key in ("m1", "m2", "c1", "c2"):
            closed, oracle = report.columns[f"closed_{key}"], report.columns[f"oracle_{key}"]
            per_row = [abs(c - o) for c, o in zip(closed, oracle)]
            assert report.columns[f"diff_{key}"] == per_row
            assert report.max_abs_diff[key] == max(per_row)
            assert type(report.max_abs_diff[key]) is float

    @pytest.mark.parametrize(
        "config, pq, grid",
        [
            (SchurerConfig(n=12, ell=1), PQ, np.linspace(0, 1, 101)),
            (SchurerConfig(n=12, ell=1), PQ, squares_disagree_grid()),
            (SchurerConfig(n=9), PQPair(1.0, 0.7), np.random.default_rng(3).random(57)),
            (SchurerConfig(n=5, basis_variant=BasisVariant.AS_PRINTED), PQ, np.linspace(0, 1, 11)),
        ],
    )
    def test_consistency_maxima_are_the_row_maxima(self, config, pq, grid):
        report = build_moment_report(config, pq, grid)
        rows = table_rows(report)
        if config.basis_variant is BasisVariant.NORMALIZED:
            m0_dev = max(abs(r.oracle_m0 - 1.0) for r in rows)
        else:
            m0_dev = 0.0
        c1_dev = max(abs(r.oracle_c1 - (r.oracle_m1 - r.x)) for r in rows)
        c2_dev = max(
            abs(r.oracle_c2 - (r.oracle_m2 - 2.0 * r.x * r.oracle_m1 + r.x**2)) for r in rows
        )
        assert (report.max_m0_dev, report.max_c1_consistency, report.max_c2_consistency) == (
            m0_dev, c1_dev, c2_dev
        )
        for value in (report.max_m0_dev, report.max_c1_consistency, report.max_c2_consistency):
            assert type(value) is float

    def test_write_both_files(self, tmp_path):
        config = SchurerConfig(n=2, ell=0)
        report = build_moment_report(config, PQ, [0.0, 0.5])
        csv_path, json_path = report.write(str(tmp_path / "moments"))
        assert open(csv_path).read() == report.to_csv_text()
        assert json.loads(open(json_path).read())["kind"] == "moment_report"

    def test_rejects_grid_outside_unit_interval(self):
        with pytest.raises(ValueError):
            build_moment_report(SchurerConfig(n=2), PQ, [0.0, 1.5])

    def test_numpy_parameters_serialize(self):
        # NumPy floats for p and q once turned the discrepancy flag into np.bool_
        pq = PQPair(np.float64(0.9), np.float64(0.8))
        assert type(pq.p) is float and type(pq.q) is float
        report = build_moment_report(SchurerConfig(n=4, ell=1), pq, np.linspace(0.0, 1.0, 5))
        doc = json.loads(report.to_json_text())
        assert doc["closed_form_discrepancy_flag"] is True
        assert doc["pq"] == {"p": 0.9, "q": 0.8}
