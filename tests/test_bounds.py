import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqbernstein import error_bounds
from pqbernstein.error_bounds import (
    CSV_COLUMNS,
    ModulusGrid,
    NotLipschitzError,
    check_t32,
    check_t33,
    check_t34,
    verify_lipschitz,
)
from pqbernstein.functions import FUNCTION_NAMES, DomainError, RealFunction, make_function
from pqbernstein.moments_closed import closed_moments
from pqbernstein.operator_eval import SchurerConfig, evaluate_on_grid, required_domain
from pqbernstein.pq_core import PQPair

from oracles import (
    FullModulusGrid,
    modulus,
    modulus2,
    verify_lipschitz_full,
    worst_pair_full,
)

PQ = PQPair(0.95, 0.9)
XS = np.linspace(0.0, 1.0, 51)


def hull_function(name, config, pq):
    lo, hi = required_domain(config, pq)
    return make_function(name, min(lo, 0.0), max(hi, 1.0))


class TestModulus:
    def test_constant_is_zero(self):
        f = RealFunction(lambda t: np.full_like(t, 3.0), 0.0, 1.0)
        for delta in (0.0, 0.2, 1.0):
            assert modulus(f, delta) == 0.0

    def test_linear_slope(self):
        f = make_function("e1", 0.0, 1.0)
        assert modulus(f, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_zero_delta(self):
        f = make_function("f_fig", 0.0, 1.0)
        assert modulus(f, 0.0) == 0.0

    def test_oscillatory_against_dense_reference(self):
        f = make_function("f_fig", 0.0, 1.0)
        with mock.patch.object(error_bounds, "MODULUS_GRID_DIV", 10_000):
            dense = ModulusGrid(f)
        coarse = ModulusGrid(f)
        assert (dense.step, coarse.step) == (1e-4, 5e-4)
        for delta in (0.05, 0.1, 0.3):
            ref = dense.omega(delta)
            assert coarse.omega(delta) <= ref + 1e-12  # grid search underestimates
            assert coarse.omega(delta) == pytest.approx(ref, abs=0.02)

    def test_monotone_in_delta(self):
        mg = ModulusGrid(make_function("f_fig", 0.0, 1.2))
        values = [mg.omega(d) for d in np.linspace(0.0, 1.2, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_subadditive_up_to_grid_slack(self):
        mg = ModulusGrid(make_function("f_fig", 0.0, 1.0))
        slack = 2.0 * mg.omega(2.0 * mg.step)
        for d1, d2 in [(0.1, 0.2), (0.05, 0.4), (0.3, 0.3)]:
            assert mg.omega(d1 + d2) <= mg.omega(d1) + mg.omega(d2) + slack

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            modulus(make_function("e1", 0.0, 1.0), -0.1)

    def test_array_of_deltas_matches_scalar_lookups(self):
        mg = ModulusGrid(make_function("f_fig", 0.0, 1.2))
        deltas = np.concatenate([np.linspace(0.0, 1.5, 97), [mg.step, 2.0 * mg.step]])
        for lookup in (mg.omega, mg.omega2):
            values = lookup(deltas)
            assert values.shape == deltas.shape
            assert values.tolist() == [lookup(float(d)) for d in deltas]
            assert type(lookup(0.3)) is float

    def test_array_rejects_negative_or_nan_delta(self):
        mg = ModulusGrid(make_function("e1", 0.0, 1.0))
        for bad in (np.array([0.1, -0.1]), np.array([0.1, np.nan])):
            with pytest.raises(ValueError):
                mg.omega(bad)
            with pytest.raises(ValueError):
                mg.omega2(bad)


class TestModulus2:
    def test_affine_vanishes(self):
        f = RealFunction(lambda t: 2.0 * t - 0.7, 0.0, 1.0)
        for delta in (0.1, 0.4):
            assert modulus2(f, delta) == pytest.approx(0.0, abs=1e-13)

    def test_square_exact_second_difference(self):
        # second difference of t^2 at shift h is 2 h^2, so omega2(delta) = 2 delta^2
        f = make_function("e2", 0.0, 1.0)
        assert modulus2(f, 0.25) == pytest.approx(2 * 0.25**2, abs=1e-12)

    def test_oscillatory_against_dense_reference(self):
        f = make_function("f_fig", 0.0, 1.0)
        with mock.patch.object(error_bounds, "MODULUS_GRID_DIV", 10_000):
            dense = ModulusGrid(f)
        coarse = ModulusGrid(f)
        for delta in (0.05, 0.15):
            assert coarse.omega2(delta) == pytest.approx(dense.omega2(delta), abs=0.02)


@st.composite
def modulus_cases(draw):
    """A function on a random domain, a grid division, and a random query sequence."""
    lo = draw(st.floats(-1.0, 0.5))
    hi = lo + draw(st.floats(0.05, 2.5))
    name = draw(st.sampled_from((*FUNCTION_NAMES, "jagged")))
    if name == "jagged":
        knots = np.linspace(lo, hi, draw(st.integers(2, 40)))
        heights = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(knots), max_size=len(knots)))
        f = RealFunction(lambda t: np.interp(t, knots, heights), lo, hi, name="jagged")
    else:
        f = make_function(name, lo, hi)
    length = f.hi - f.lo
    div = draw(st.just(error_bounds.MODULUS_GRID_DIV) | st.integers(1, 2500))
    delta = st.floats(0.0, 1.5 * length)  # beyond the domain length too
    query = (
        delta
        | st.lists(delta, max_size=8).map(np.array)
        | st.lists(delta, min_size=6, max_size=6).map(lambda v: np.reshape(v, (2, 3)))
        | st.just(np.empty((0, 3)))
    )
    queries = draw(st.lists(st.tuples(st.sampled_from(("omega", "omega2")), query), max_size=8))
    return f, div, queries


class TestModulusTables:
    @settings(max_examples=100)
    @given(modulus_cases())
    def test_on_demand_equals_full_build(self, case):
        f, div, queries = case
        with mock.patch.object(error_bounds, "MODULUS_GRID_DIV", div):
            mg = ModulusGrid(f)
        ref = FullModulusGrid(f, (f.hi - f.lo) / div)
        assert mg.step == ref.step
        for name, delta in queries:
            got, want = getattr(mg, name)(delta), getattr(ref, name)(delta)
            if np.ndim(delta) == 0:
                assert type(got) is float
                assert got == want
            else:
                assert got.shape == np.shape(delta)
                assert (got == want).all()

    def test_tables_grow_only_to_the_largest_lag_queried(self, monkeypatch):
        computed = {1: [], 2: []}
        sups = ModulusGrid._lag_sups

        def recording(self, order, lags):
            computed[order].extend(lags)
            return sups(self, order, lags)

        monkeypatch.setattr(ModulusGrid, "_lag_sups", recording)
        mg = ModulusGrid(make_function("f_fig", 0.0, 1.0))
        assert computed == {1: [], 2: []}
        step = mg.step
        for lookup, order in ((mg.omega, 1), (mg.omega2, 2)):
            lookup(200 * step)
            lookup(50 * step)
            lookup(np.array([[10 * step, 200 * step]]))
            assert computed[order] == list(range(1, 201))
            lookup(np.array([300 * step, 120 * step]))
            assert computed[order] == list(range(1, 301))
        # a delta past the domain length completes each table once, as a full build does
        mg.omega(5.0)
        mg.omega2(5.0)
        mg.omega(5.0)
        assert computed[1] == list(range(1, 2001))
        assert computed[2] == list(range(1, 1001))

    def test_growth_continues_the_running_max(self):
        # both per-lag sups of a period-0.25 sine fall back to ~0 at a shift of
        # 0.25, so a table grown from 0.12 to 0.25 must carry its earlier maximum forward
        f = RealFunction(lambda t: np.sin(8.0 * np.pi * t), 0.0, 1.0, name="sine")
        mg, ref = ModulusGrid(f), FullModulusGrid(f)
        for name in ("omega", "omega2"):
            for delta in (0.12, 0.25, 0.5):
                assert getattr(mg, name)(delta) == getattr(ref, name)(delta)
            assert getattr(mg, name)(0.25) > 1.0


class TestDeltaAlpha:
    def test_delta_nonnegative(self):
        # the oracle second central moment is clamped at 0 in every bound row
        config = SchurerConfig(n=10, ell=1)
        rep = check_t32(config, PQ, hull_function("e2", config, PQ), XS)
        assert all(delta >= 0.0 for delta in rep.columns["delta_n"])

    def test_delta_decreases_along_schedule(self):
        # uniform concentration: the grid max of the second central moment
        # shrinks as the schedule advances
        previous = None
        for n in (8, 16, 32, 64, 128):
            pq = PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))
            config = SchurerConfig(n=n, ell=0)
            worst = float(evaluate_on_grid(config, pq, (), XS).central[1].max())
            if previous is not None:
                assert worst < previous
            previous = worst

    def test_alpha_is_the_closed_first_moment(self):
        config = SchurerConfig(n=7, ell=2)
        rep = check_t34(config, PQ, hull_function("f_fig", config, PQ), XS)
        want = closed_moments(config, PQ, XS)[0]
        assert rep.columns["alpha_n"] == want.tolist()


class TestLipschitzSampling:
    def test_accepts_identity(self):
        verify_lipschitz(make_function("e1", 0.0, 1.3), 1.0, 1.0)

    def test_accepts_half_holder_witness(self):
        verify_lipschitz(make_function("holder_half", 0.0, 1.3), 1.0, 0.5)

    def test_rejects_wrong_class(self):
        f = RealFunction(lambda t: 10.0 * t, 0.0, 1.0, name="steep")
        with pytest.raises(NotLipschitzError):
            verify_lipschitz(f, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_sample(self, bad):
        # a NaN excess compares False with the threshold: without the sample
        # check this function passed as Lipschitz(1, 1)
        f = RealFunction(lambda t: np.where(t > 0.5, bad, t), 0.0, 1.0, name="holed")
        message = r"holed is -?(nan|inf) at the sampled point 0.505, not finite"
        with pytest.raises(NotLipschitzError, match=message):
            verify_lipschitz(f, 1.0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from((*FUNCTION_NAMES, "steps", "saw")),
        lo=st.floats(min_value=-2.0, max_value=1.0),
        width=st.floats(min_value=0.05, max_value=3.0),
        log_m=st.floats(min_value=-1.0, max_value=1.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
    )
    @example(name="e1", lo=0.0, width=1.3, log_m=0.0, alpha=1.0)        # passes
    @example(name="holder_half", lo=0.0, width=1.3, log_m=0.0, alpha=0.5)
    @example(name="e2", lo=0.0, width=1.3, log_m=0.0, alpha=1.0)        # fails
    @example(name="steps", lo=0.0, width=1.0, log_m=0.0, alpha=1.0)     # ties
    def test_the_blocked_scan_matches_the_full_table(self, name, lo, width, log_m, alpha):
        # the rounded steps and the sawtooth make many pairs tie for the worst
        fns = {"steps": lambda t: np.round(4.0 * t), "saw": lambda t: np.abs(t - np.round(t))}
        hi = lo + width
        f = RealFunction(fns[name], lo, hi, name) if name in fns else make_function(name, lo, hi)
        m_const = 10.0**log_m
        xs = np.linspace(lo, hi, 201)
        vals = f(xs)
        full = worst_pair_full(xs, vals, m_const, alpha)
        # one row (the floor of max(1, ...)), one exact row, seven rows, the default
        for block in (1, 201, 7 * 201, error_bounds.BLOCK_VALUES):
            with mock.patch.object(error_bounds, "BLOCK_VALUES", block):
                assert error_bounds._worst_pair(xs, vals, m_const, alpha) == full

        def message(check):
            try:
                check(f, m_const, alpha)
            except NotLipschitzError as exc:
                return str(exc)
            return None

        assert message(verify_lipschitz) == message(verify_lipschitz_full)


class TestBoundDomain:
    @pytest.mark.parametrize(
        "lo, hi",
        [(-1e300, 1e300), (0.0, math.inf), (-1.0, 5.0)],
        ids=["huge", "half-line", "wide"],
    )
    @pytest.mark.parametrize(
        "check, name, args",
        [(check_t32, "f_fig", ()), (check_t33, "holder_half", (1.0, 0.5)), (check_t34, "f_fig", ())],
        ids=["t32", "t33", "t34"],
    )
    def test_a_wider_declaration_gives_the_bound_domain_report(self, check, name, args, lo, hi):
        # f is sampled where the operator and the grid use it: a huge domain
        # gave a moduli grid step of 1e297 and zero bounds, an infinite one an
        # IndexError (t32, t34) or NaN samples (t33)
        config, pq = SchurerConfig(n=5), PQPair(0.9, 0.8)
        on_domain = make_function(name, *error_bounds.bound_domain(config, pq))
        want = check(config, pq, on_domain, *args, XS)
        got = check(config, pq, make_function(name, lo, hi), *args, XS)
        assert got.to_csv_text() == want.to_csv_text()
        assert got.to_json_text() == want.to_json_text()

    def test_a_narrower_declaration_is_refused(self):
        config = SchurerConfig(n=5)
        lo, hi = error_bounds.bound_domain(config, PQ)
        with pytest.raises(DomainError):
            check_t33(config, PQ, make_function("e1", lo, 0.9 * hi), 1.0, 1.0, XS)


class TestTheorem32:
    def test_constant_function_trivial(self):
        config = SchurerConfig(n=8, ell=0)
        report = check_t32(config, PQ, hull_function("e0", config, PQ), XS)
        assert report.all_passed
        assert max(report.columns["error"]) <= report.slack

    @pytest.mark.parametrize("fname", ["e1", "e2", "f_fig"])
    def test_bound_holds(self, fname):
        config = SchurerConfig(n=20, ell=1)
        report = check_t32(config, PQ, hull_function(fname, config, PQ), XS)
        assert report.all_passed
        for error, bound in zip(report.columns["error"], report.columns["bound_t32"]):
            assert error <= bound + report.slack


class TestTheorem33:
    def test_identity_witness(self):
        config = SchurerConfig(n=12, ell=1)
        f = hull_function("e1", config, PQ)
        report = check_t33(config, PQ, f, 1.0, 1.0, XS)
        assert report.all_passed
        for bound, delta in zip(report.columns["bound_t33"], report.columns["delta_n"]):
            assert bound == pytest.approx(math.sqrt(delta), rel=1e-12)

    def test_half_holder_witness(self):
        config = SchurerConfig(n=12, ell=1)
        f = hull_function("holder_half", config, PQ)
        report = check_t33(config, PQ, f, 1.0, 0.5, XS)
        assert report.all_passed

    def test_rejects_function_outside_class(self):
        config = SchurerConfig(n=6, ell=0)
        lo, hi = required_domain(config, PQ)
        f = RealFunction(lambda t: 5.0 * t, lo, max(hi, 1.0), name="steep")
        with pytest.raises(NotLipschitzError):
            check_t33(config, PQ, f, 1.0, 1.0, XS)

    def test_rejects_bad_class_parameters(self):
        config = SchurerConfig(n=6, ell=0)
        f = hull_function("e1", config, PQ)
        with pytest.raises(ValueError):
            check_t33(config, PQ, f, -1.0, 1.0, XS)
        with pytest.raises(ValueError, match="M must be finite"):
            check_t33(config, PQ, f, math.inf, 1.0, XS)
        with pytest.raises(ValueError):
            check_t33(config, PQ, f, 1.0, 1.5, XS)


class TestTheorem34:
    def test_constant_gives_zero_ratios(self):
        config = SchurerConfig(n=8, ell=0)
        report = check_t34(config, PQ, hull_function("e0", config, PQ), XS)
        assert report.all_passed
        assert all(ratio == 0.0 for ratio in report.columns["ratio_t34"])

    def test_affine_second_modulus_vanishes(self):
        config = SchurerConfig(n=10, ell=1)
        lo, hi = required_domain(config, PQ)
        f = RealFunction(lambda t: 0.3 + 0.5 * t, min(lo, 0.0), max(hi, 1.0), name="affine")
        report = check_t34(config, PQ, f, XS)
        for term in report.columns["omega2_term"]:
            assert term == pytest.approx(0.0, abs=1e-12)
        # here the transcribed alpha drifts from the oracle first moment, so
        # where it crosses x the denominator dies while the error does not;
        # those rows must be surfaced as degenerate, not hidden
        assert report.extras["max_alpha_oracle_drift"] > 0.1
        assert report.extras["degenerate_rows"] > 0
        assert not report.all_passed

    def test_affine_passes_where_alpha_is_exact(self):
        # degree n + ell = 1 at p = 1 is the regime where the transcribed
        # first moment is exact; the affine case then behaves as intended
        config = SchurerConfig(n=1, ell=0)
        pq = PQPair(1.0, 0.9)
        lo, hi = required_domain(config, pq)
        f = RealFunction(lambda t: 0.3 + 0.5 * t, min(lo, 0.0), max(hi, 1.0), name="affine")
        report = check_t34(config, pq, f, XS)
        assert report.all_passed
        for term in report.columns["omega2_term"]:
            assert term == pytest.approx(0.0, abs=1e-12)

    def test_oscillatory_ratios_finite_and_capped(self):
        config = SchurerConfig(n=15, ell=1)
        report = check_t34(config, PQ, hull_function("f_fig", config, PQ), XS)
        assert report.all_passed
        assert report.extras["degenerate_rows"] == 0
        assert report.extras["max_ratio"] <= 50.0
        # a degenerate row's undefined ratio (None) reads as NaN: not finite
        assert np.isfinite(np.array(report.columns["ratio_t34"], dtype=float)).all()

    def test_alpha_drift_is_logged(self):
        config = SchurerConfig(n=15, ell=1)
        report = check_t34(config, PQ, hull_function("f_fig", config, PQ), XS)
        assert report.extras["max_alpha_oracle_drift"] > 0.0

    def test_tight_cap_fails(self):
        config = SchurerConfig(n=15, ell=1)
        report = check_t34(
            config, PQ, hull_function("f_fig", config, PQ), XS, ratio_cap=1e-6
        )
        assert not report.all_passed

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_nan_or_non_positive_cap(self, cap):
        config = SchurerConfig(n=5)
        with pytest.raises(ValueError, match="ratio_cap"):
            check_t34(config, PQ, hull_function("f_fig", config, PQ), XS, ratio_cap=cap)


class TestBoundReportSerialization:
    def test_csv_shape_and_blanks(self):
        config = SchurerConfig(n=6, ell=0)
        report = check_t32(config, PQ, hull_function("e1", config, PQ), XS[:6])
        lines = report.to_csv_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        first = lines[1].split(",")
        assert len(first) == len(CSV_COLUMNS)
        assert first[CSV_COLUMNS.index("bound_t33")] == ""  # not a t33 run
        assert first[-1] in ("true", "false")

    def test_json_round_trip(self, tmp_path):
        config = SchurerConfig(n=6, ell=0)
        report = check_t34(config, PQ, hull_function("f_fig", config, PQ), XS[:6])
        csv_path, json_path = report.write(str(tmp_path / "bounds_t34"))
        doc = json.loads(open(json_path).read())
        assert doc["kind"] == "bound_report"
        assert doc["theorem"] == "t34"
        assert doc["extras"]["ratio_cap"] == 50.0
        assert len(doc["rows"]) == 6
        assert open(csv_path).read().startswith(",".join(CSV_COLUMNS))

    def test_numpy_parameters_serialize(self):
        pq = PQPair(np.float64(0.95), np.float64(0.9))
        config = SchurerConfig(n=10, ell=1)
        f = hull_function("f_fig", config, pq)
        doc = json.loads(check_t34(config, pq, f, np.linspace(0.0, 1.0, 6)).to_json_text())
        assert doc["all_passed"] is True
        assert doc["pq"] == {"p": 0.95, "q": 0.9}
        assert all(isinstance(row["passed"], bool) for row in doc["rows"])


class TestBoundColumns:
    @pytest.mark.parametrize(
        "theorem, fname, n, ell, pq",
        [
            ("t32", "f_fig", 15, 1, PQ),
            ("t33", "holder_half", 12, 1, PQ),
            ("t34", "f_fig", 15, 1, PQ),
            # e1 at p = 0.9: degenerate rows leave their ratio None
            ("t34", "e1", 10, 1, PQPair(0.9, 0.8)),
        ],
    )
    def test_given_arrays_are_columns_and_the_rest_none(
        self, theorem, fname, n, ell, pq, monkeypatch
    ):
        captured = []
        build = error_bounds._bound_report

        def spy(*args, **columns):
            report = build(*args, **columns)
            captured.append((args[4], columns, report))
            return report

        monkeypatch.setattr(error_bounds, "_bound_report", spy)
        config = SchurerConfig(n=n, ell=ell)
        f = hull_function(fname, config, pq)
        if theorem == "t32":
            check_t32(config, pq, f, XS)
        elif theorem == "t33":
            check_t33(config, pq, f, 1.0, 0.5, XS)
        else:
            check_t34(config, pq, f, XS)
        [(xs, columns, report)] = captured
        given = {"x": xs, **columns}
        assert list(report.columns) == list(CSV_COLUMNS)
        for name, cells in report.columns.items():
            # equal cells of equal types: bools stay bools, floats floats
            want = given[name].tolist() if name in given else [None] * len(xs)
            assert cells == want
            assert list(map(type, cells)) == list(map(type, want))
        assert set(given) <= set(CSV_COLUMNS)
        if fname == "e1":
            assert None in report.columns["ratio_t34"]
