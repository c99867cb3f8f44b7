"""The grid-wide evaluation path against the per-x formulas it replaced.

The oracles below restate the earlier pointwise implementation: the basis row
from the factorial ratio with separate power tables, the operator as a Python
loop of basis rows, and the central moments as ((arg - x)^order) @ weights
per x.  The tests at the end cover the O(N + K) means: (p,q)-integers from
1 - r^j, one pass over the arguments per function, the read-only means
cache, the memory of a large operator, means that do not depend on the block
size, and one basis matrix per Korovkin degree, bound check and moment report.
The last ones cover the Gauss path of the analytic built-ins: its means
against the K-node rule's, where it runs, and the bit-identical K-node
fallback.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pqbernstein import clear_all, functions, operator_eval
from pqbernstein.error_bounds import check_t32, check_t33, check_t34
from pqbernstein.experiments import KOROVKIN_FUNCTIONS, run_bounds, run_korovkin, schedule
from pqbernstein.functions import RealFunction, make_function
from pqbernstein.moments_closed import build_moment_report
from pqbernstein.operator_eval import (
    BasisVariant,
    NumericalRangeError,
    SchurerConfig,
    _Operator,
    _tables,
    apply,
    apply_central_moment,
    apply_on_grid,
    basis_matrix,
    evaluate_on_grid,
    required_domain,
)
from pqbernstein.pq_core import BLOCK_BYTES, BLOCK_VALUES, PQPair
from pqbernstein.pq_quadrature import build_rule

from oracles import pq_integer

# (n, ell, p, q); the last two reach N = 130 along the classic schedule
CASES = [
    (1, 0, 0.9, 0.8),
    (6, 2, 0.9, 0.8),
    (20, 1, 0.95, 0.9),
    (40, 3, 1.0, 0.7),
    (100, 2, 1.0, 1.0 - 1.0 / 101),
    (128, 2, 1.0 - 1.0 / 129**2, 1.0 - 1.0 / 129),
]
XS = np.linspace(0.0, 1.0, 21)
AGREEMENT = 1e-12


def old_basis_row(config, pq, x):
    p, q = pq.p, pq.q
    big_n = config.degree
    ints = np.array([pq_integer(k, pq) for k in range(big_n + 1)])
    fact = np.concatenate([[1.0], np.cumprod(ints[1:])])
    binom = fact[big_n] / (fact * fact[::-1])
    k = np.arange(big_n + 1)
    s = np.arange(big_n)
    xpow = np.power(x, k)
    if config.basis_variant is BasisVariant.NORMALIZED:
        norm_scale = np.power(p, -(k * (big_n - k)).astype(float))
        prods = np.concatenate([[1.0], np.cumprod(1.0 - np.power(q / p, s) * x)])
        return binom * xpow * norm_scale * prods[::-1]
    prods = np.concatenate([[1.0], np.cumprod(np.power(p, s) - np.power(q, s) * x)])
    return binom * xpow * prods[::-1]


def old_arguments(config, pq):
    rule = build_rule(pq, config.quad_tol)
    k = np.arange(config.degree + 1)
    ints = np.array([pq_integer(int(j), pq) for j in k])
    denom = pq_integer(config.n + 1, pq)
    c0 = ints / denom
    c1 = ((pq.q - 1.0) * ints + np.power(pq.p, k)) / denom
    return c0[:, None] + c1[:, None] * rule.nodes[None, :], rule.weights


def old_apply_loop(config, pq, f, xs):
    arg, weights = old_arguments(config, pq)
    means = f(arg) @ weights
    return np.array([old_basis_row(config, pq, float(x)) @ means for x in xs])


def old_central_moment(config, pq, x, order):
    arg, weights = old_arguments(config, pq)
    return float(old_basis_row(config, pq, x) @ (((arg - x) ** order) @ weights))


def operators():
    for n, ell, p, q in CASES:
        for variant in BasisVariant:
            yield SchurerConfig(n=n, ell=ell, basis_variant=variant), PQPair(p, q)


OPERATORS = list(operators())
IDS = [f"N{c.degree}-{c.basis_variant.value}-p{pq.p:.6g}-q{pq.q:.6g}" for c, pq in OPERATORS]


@pytest.mark.parametrize("config, pq", OPERATORS, ids=IDS)
def test_apply_on_grid_matches_basis_row_loop(config, pq):
    lo, hi = required_domain(config, pq)
    for name in ("e2", "f_fig"):
        f = make_function(name, lo, hi)
        got = apply_on_grid(config, pq, f, XS)
        want = old_apply_loop(config, pq, f, XS)
        assert np.abs(got - want).max() <= AGREEMENT


@pytest.mark.parametrize("config, pq", OPERATORS, ids=IDS)
def test_grid_central_moments_match_per_x_reduction(config, pq):
    first, second = evaluate_on_grid(config, pq, (), XS).central
    for order, got in ((1, first), (2, second)):
        want = np.array([old_central_moment(config, pq, float(x), order) for x in XS])
        assert np.abs(got - want).max() <= AGREEMENT


@pytest.mark.parametrize("config, pq", OPERATORS, ids=IDS)
def test_basis_row_is_exactly_a_grid_row(config, pq):
    grid = basis_matrix(config, pq, XS)
    assert grid.shape == (XS.size, config.degree + 1)
    for i, x in enumerate(XS):
        np.testing.assert_array_equal(basis_matrix(config, pq, float(x)), grid[i])


@pytest.mark.parametrize("config, pq", OPERATORS, ids=IDS)
def test_argument_table_lies_inside_required_domain(config, pq):
    # integral means evaluate f on the argument blocks without a domain check
    # of their own, relying on the cached hull that check_covers compares
    lo, hi = required_domain(config, pq)
    blocks = []

    def recording(t):
        blocks.append((t.min(), t.max(), t.size))
        return np.ones_like(t)

    apply_on_grid(config, pq, RealFunction(recording, lo, hi, name="recording"), XS)
    nodes = _tables(config, pq).rule.nodes.size
    arguments = (config.degree + 1) * nodes
    assert sum(size for _, _, size in blocks) == arguments
    rows = max(1, operator_eval.BLOCK_VALUES // nodes)
    assert all(size == rows * nodes for _, _, size in blocks[:-1])
    assert lo <= min(b[0] for b in blocks) and max(b[1] for b in blocks) <= hi


@pytest.mark.parametrize("config, pq", OPERATORS[:4], ids=IDS[:4])
def test_pointwise_central_moment_is_the_grid_value(config, pq):
    # same basis rows and means; only the dot product's summation order differs
    first, second = evaluate_on_grid(config, pq, (), XS).central
    for i, x in enumerate(XS):
        for order, grid_value in ((1, first[i]), (2, second[i])):
            value = apply_central_moment(config, pq, float(x), order)
            assert value == pytest.approx(grid_value, abs=1e-15)


def test_grid_shape_follows_xs():
    config, pq = SchurerConfig(n=5, ell=1), PQPair(0.9, 0.8)
    xs = XS[:20].reshape(4, 5)
    assert basis_matrix(config, pq, xs).shape == (4, 5, config.degree + 1)
    first, second = evaluate_on_grid(config, pq, (), xs).central
    flat_first, flat_second = evaluate_on_grid(config, pq, (), xs.ravel()).central
    np.testing.assert_array_equal(first.ravel(), flat_first)
    np.testing.assert_array_equal(second.ravel(), flat_second)


def test_grid_rejects_points_outside_unit_interval():
    config, pq = SchurerConfig(n=5), PQPair(0.9, 0.8)
    f = make_function("e1", *required_domain(config, pq))
    for bad in (np.array([0.0, 0.5, 1.5]), np.array([-0.1, 0.5]), np.array([0.2, np.nan])):
        with pytest.raises(ValueError):
            apply_on_grid(config, pq, f, bad)
        with pytest.raises(ValueError):
            evaluate_on_grid(config, pq, (), bad)
    assert apply_on_grid(config, pq, f, np.array([])).shape == (0,)


@pytest.mark.parametrize(
    "xs",
    [
        ["0.25", "0.5"], [True, False], np.array([0.5, None]), [b"0.5"], [0.5j],
        "0.5", np.array("0.5"),
    ],
    ids=repr,
)
def test_grid_refuses_points_that_are_not_real_numbers(xs):
    config, pq = SchurerConfig(n=5), PQPair(0.9, 0.8)
    f = make_function("e1", *required_domain(config, pq))
    with pytest.raises(TypeError, match="must be (one )?real number"):
        apply_on_grid(config, pq, f, xs)
    with pytest.raises(TypeError, match="must be (one )?real number"):
        evaluate_on_grid(config, pq, (), xs)


def report_makers():
    """Each report of an x-grid, and basis_matrix, as a function of the grid alone."""
    config, pq = SchurerConfig(n=5), PQPair(0.9, 0.8)
    f = make_function("e1", *required_domain(config, pq))
    return {
        "t32": lambda xs: check_t32(config, pq, f, xs),
        "t33": lambda xs: check_t33(config, pq, f, 1.0, 1.0, xs),
        "t34": lambda xs: check_t34(config, pq, f, xs),
        "moments": lambda xs: build_moment_report(config, pq, xs),
        "basis_matrix": lambda xs: basis_matrix(config, pq, xs),
    }


@pytest.mark.parametrize("name", list(report_makers()))
def test_reports_and_basis_matrix_check_points_as_the_grid_functions_do(name):
    make = report_makers()[name]
    for xs in (["0.25", "0.5"], [True, False], [0.5j], np.array([0.5, None])):
        with pytest.raises(TypeError, match="must be real numbers"):
            make(xs)
    for xs in ([2.0], [0.0, 1.5], [-0.1], [0.5, np.nan]):
        with pytest.raises(ValueError, match=r"evaluated on \[0, 1\]"):
            make(xs)


@pytest.mark.parametrize("name", ["t32", "t33", "t34", "moments"])
def test_reports_refuse_scalar_and_empty_grids(name):
    make = report_makers()[name]
    for xs in (0.5, np.float64(0.5), np.array(0.5), [], np.array([]), [[0.0, 0.5]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            make(xs)
    # int grids are evaluated as float, as everywhere
    assert make([0, 1]).to_csv_text() == make([0.0, 1.0]).to_csv_text()


def test_basis_matrix_takes_one_point_and_an_empty_grid():
    config, pq = SchurerConfig(n=5), PQPair(0.9, 0.8)
    row = basis_matrix(config, pq, 0.3)
    assert row.shape == (6,)
    np.testing.assert_array_equal(row, basis_matrix(config, pq, [0.3])[0])
    assert basis_matrix(config, pq, []).shape == (0, 6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8])
def test_grid_takes_real_dtypes_as_float64(dtype):
    config, pq = SchurerConfig(n=5), PQPair(0.9, 0.8)
    xs = np.array([0, 1], dtype=dtype)
    got = evaluate_on_grid(config, pq, (), xs)
    assert got.x.dtype == np.float64
    np.testing.assert_array_equal(got.raw[1], evaluate_on_grid(config, pq, (), [0.0, 1.0]).raw[1])


# the Gaussian binomials in r = q/p first overflow at N = 1234 along the
# classic and q-only schedules
@pytest.mark.parametrize(
    "config, pq",
    [
        (SchurerConfig(n=1234), PQPair(1.0 - 1.0 / 1235**2, 1.0 - 1.0 / 1235)),
        (SchurerConfig(n=1234), PQPair(1.0, 1.0 - 1.0 / 1235)),
        (
            SchurerConfig(n=1234, basis_variant=BasisVariant.AS_PRINTED),
            PQPair(1.0 - 1.0 / 1235**2, 1.0 - 1.0 / 1235),
        ),
    ],
)
def test_non_finite_coefficients_raise_typed_error(config, pq):
    with pytest.raises(NumericalRangeError, match="not finite"):
        required_domain(config, pq)


def test_non_finite_argument_means_raise_typed_error():
    # the basis is finite here, but [n+1]_{p,q} ~ 1e-215 drives the arguments
    # [k]/[n+1] past 1e214, so their squares overflow
    config, pq = SchurerConfig(n=439), PQPair(0.3235, 0.2337)
    with pytest.raises(NumericalRangeError, match="integral means"):
        required_domain(config, pq)


def classic(n):
    return PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))


def test_many_functions_match_single_calls():
    config, pq = SchurerConfig(n=12, ell=1), PQPair(0.95, 0.9)
    lo, hi = required_domain(config, pq)
    fs = [make_function(name, lo, hi) for name in ("e0", "e2", "f_fig")]
    for f, got in zip(fs, evaluate_on_grid(config, pq, fs, XS).values):
        np.testing.assert_array_equal(got, apply_on_grid(config, pq, f, XS))


def test_functions_from_a_generator_give_the_values_of_a_list():
    config, pq = SchurerConfig(n=12, ell=1), PQPair(0.95, 0.9)
    lo, hi = required_domain(config, pq)
    fs = [make_function(name, lo, hi) for name in ("e0", "f_fig")]
    for some in (fs[1:], fs):
        want = evaluate_on_grid(config, pq, some, XS).values
        got = evaluate_on_grid(config, pq, (f for f in some), XS).values
        assert len(got) == len(some)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_cached_means_are_read_only():
    config, pq = SchurerConfig(n=7), PQPair(0.9, 0.8)
    (means,) = _tables(config, pq).integral_means((functions._BUILTINS["f_fig"],))
    assert not means.flags.writeable
    with pytest.raises(ValueError):
        means[0] = 0.0


def test_apply_after_the_moment_report_reuses_its_e1_means(monkeypatch):
    # the report takes the means of e1 and e2 in one pass and none of e0,
    # whose K(1; x) it reads from the node moments; apply on e1 finds the
    # report's means kept with the operator
    config, pq = SchurerConfig(n=11, ell=2), PQPair(0.95, 0.9)
    calls = {"e0": [], "e1": []}

    def counting(name):
        original = functions._BUILTINS[name]

        def fn(t):
            if np.ndim(t) == 2:  # arguments; grid samples are 1-D
                calls[name].append(t.size)
            return original(t)

        return fn

    for name in calls:
        monkeypatch.setitem(functions._BUILTINS, name, counting(name))
    clear_all()
    build_moment_report(config, pq, XS)
    assert calls["e0"] == [] and calls["e1"]
    before = len(calls["e1"])
    value = apply(config, pq, make_function("e1", *required_domain(config, pq)), 0.3)
    assert len(calls["e1"]) == before
    want = evaluate_on_grid(config, pq, (), 0.3).raw[1]
    assert value == pytest.approx(want, abs=config.truncation_budget)


def test_basis_alone_builds_no_rule(monkeypatch):
    config, pq = SchurerConfig(n=13, ell=1), PQPair(0.9, 0.8)
    rules = []

    def spy(*args):
        rules.append(args)
        return build_rule(*args)

    monkeypatch.setattr(operator_eval, "build_rule", spy)
    clear_all()
    basis_matrix(config, pq, XS)
    basis_matrix(config, pq, 0.5)
    assert rules == []
    required_domain(config, pq)
    assert rules == [(pq, config.quad_tol)]


def test_distinct_closures_never_share_means():
    config, pq = SchurerConfig(n=9, ell=1), PQPair(0.9, 0.8)
    lo, hi = required_domain(config, pq)

    def scaled(c):
        return lambda t: c * t

    one, two = (apply_on_grid(config, pq, RealFunction(scaled(c), lo, hi), XS) for c in (1.0, 2.0))
    np.testing.assert_array_equal(two, 2.0 * one)
    assert one.max() > 0.5


def test_t32_and_t34_evaluate_f_fig_over_the_arguments_once(monkeypatch):
    # f_fig takes the Gauss path here, one argument per Gauss node; holder_half
    # takes the K-node rule's argument blocks, (N+1)(K+1) arguments
    config, pq = SchurerConfig(n=64, ell=1), classic(64)
    gauss_nodes = _tables(config, pq).gauss.nodes.size
    sizes = {"f_fig": [], "holder_half": []}

    def counting(name):
        original = functions._BUILTINS[name]

        def fn(t):
            if np.ndim(t) == 2:  # arguments; modulus and error samples are 1-D
                sizes[name].append(t.shape)
            return original(t)

        return fn

    for name in sizes:
        monkeypatch.setitem(functions._BUILTINS, name, counting(name))
    # the counting f_fig stands in for f_fig among the analytic built-ins
    monkeypatch.setattr(
        operator_eval, "ANALYTIC_BUILTINS", frozenset({functions._BUILTINS["f_fig"]})
    )
    for theorem in ("t32", "t34"):
        for name in sizes:
            run_bounds(theorem, config, pq, name)
    big_n1, k1 = config.degree + 1, _tables(config, pq).rule.nodes.size
    assert sizes["f_fig"] == [(big_n1, gauss_nodes)]
    assert {shape[1] for shape in sizes["holder_half"]} == {k1}
    assert sum(rows for rows, _ in sizes["holder_half"]) == big_n1


def test_korovkin_power_columns_match_direct_quadrature():
    result = run_korovkin(schedule("q-only"), (8, 128), ell=1, grid_size=51)
    xs = np.linspace(0.0, 1.0, 51)
    columns = result.columns
    for i, (n, p, q) in enumerate(zip(columns["n"], columns["p"], columns["q"])):
        config, pq = SchurerConfig(n=n, ell=1), PQPair(p, q)
        lo, hi = required_domain(config, pq)
        for name in KOROVKIN_FUNCTIONS:
            f = make_function(name, min(lo, 0.0), max(hi, 1.0))
            direct = float(np.abs(apply_on_grid(config, pq, f, xs) - f(xs)).max())
            assert columns[f"sup_err_{name}"][i] == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_fresh_classic_n1024_apply_stays_small():
    # the (N+1) x K argument table alone would be 194 MB here (K = 23,614)
    config, pq = SchurerConfig(n=1024), classic(1024)
    clear_all()
    tracemalloc.start()
    try:
        f = make_function("f_fig", *required_domain(config, pq))
        values = apply_on_grid(config, pq, f, np.linspace(0.0, 1.0, 101))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak < 50 * 2**20


@pytest.mark.parametrize("block", [2**8, 2**20])
@pytest.mark.parametrize("config, pq", OPERATORS[::3], ids=IDS[::3])
def test_means_do_not_depend_on_the_block_size(config, pq, block, monkeypatch):
    fns = tuple(functions._BUILTINS[name] for name in ("e2", "f_fig", "holder_half"))
    clear_all()
    default = np.array(_tables(config, pq).integral_means(fns))
    clear_all()
    monkeypatch.setattr(operator_eval, "BLOCK_VALUES", block)
    try:
        patched = np.array(_tables(config, pq).integral_means(fns))
    finally:
        clear_all()
    assert np.abs(patched - default).max() <= 1e-14 * np.abs(default).max()


def test_no_functions_build_no_argument_block():
    # one block at classic n = 128 (K about 3,000) holds BLOCK_VALUES floats
    config, pq = SchurerConfig(n=128), classic(128)
    clear_all()
    op = _tables(config, pq)
    op.arguments  # the rule and the arguments, built before tracing starts
    tracemalloc.start()
    try:
        means = op.integral_means(())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert means == [] and op.means == {}
    assert peak < 8 * operator_eval.BLOCK_VALUES / 4  # a quarter of one block's bytes
    assert evaluate_on_grid(config, pq, [], XS).values == []


def test_evaluate_on_grid_is_each_grid_function():
    config, pq = SchurerConfig(n=12, ell=1), PQPair(0.95, 0.9)
    lo, hi = required_domain(config, pq)
    fs = [make_function(name, lo, hi) for name in ("e2", "f_fig")]
    op = evaluate_on_grid(config, pq, fs, XS)
    for f, got in zip(fs, op.values):
        np.testing.assert_array_equal(got, apply_on_grid(config, pq, f, XS))
    # the moments do not depend on the functions asked for
    alone = evaluate_on_grid(config, pq, (), XS)
    for got, want in zip(op.raw + op.central, alone.raw + alone.central):
        np.testing.assert_array_equal(got, want)
    one = evaluate_on_grid(config, pq, fs, 0.3)
    assert np.ndim(one.x) == 0 and np.ndim(one.central[1]) == 0


@pytest.fixture
def basis_builds(monkeypatch):
    """Counts the basis matrices the operator entries build."""
    calls = []
    real = _Operator.basis

    def counting(op, xs):
        calls.append(op.config.degree)
        return real(op, xs)

    monkeypatch.setattr(_Operator, "basis", counting)
    return calls


def test_korovkin_builds_one_basis_matrix_per_degree(basis_builds):
    run_korovkin(schedule("classic"), (8, 16, 128), ell=1, grid_size=21)
    assert basis_builds == [9, 17, 129]


def test_bound_checks_and_moment_report_build_one_basis_matrix_each(basis_builds):
    config, pq = SchurerConfig(n=16, ell=1), classic(16)
    lo, hi = required_domain(config, pq)
    fig, half = make_function("f_fig", lo, hi), make_function("holder_half", lo, hi)
    checks = (
        lambda: build_moment_report(config, pq, XS),
        lambda: check_t32(config, pq, fig, XS),
        lambda: check_t33(config, pq, half, 1.0, 0.5, XS),
        lambda: check_t34(config, pq, fig, XS),
    )
    # each alone, on a fresh cache
    cold = []
    for check in checks:
        clear_all()
        basis_builds.clear()
        cold.append(check())
        assert basis_builds == [config.degree]
    # the four in sequence, as a theorems bundle runs them: one in all
    clear_all()
    basis_builds.clear()
    for check in checks:
        check()
    assert basis_builds == [config.degree]
    # another operator on the same grid, the same bytes in another shape, or
    # another grid builds its own
    other = SchurerConfig(n=17, ell=1)
    evaluate_on_grid(other, classic(17), (), XS)
    evaluate_on_grid(other, classic(17), (), XS.reshape(3, 7))
    evaluate_on_grid(other, classic(17), (), XS[::-1])
    # only the operator in use is kept: going back builds the first basis
    # again, and the report is the cold one, byte for byte
    t32 = check_t32(config, pq, fig, XS)
    assert basis_builds == [config.degree, 18, 18, 18, config.degree]
    assert t32.to_csv_text() == cold[1].to_csv_text()
    assert t32.to_json_text() == cold[1].to_json_text()


def kept_grid_basis(config, pq, xs):
    """The basis an operator entry keeps for the grid xs, or None."""
    return _tables(config, pq).kept.get((xs.shape, xs.tobytes()))


def test_a_grid_above_one_block_is_never_kept(basis_builds):
    config, pq = SchurerConfig(n=16, ell=1), classic(16)
    size = config.degree + 1

    def held(g):  # a g-point grid basis with its array header and its key
        return sys.getsizeof(np.empty((g, size))) + sys.getsizeof(bytes(8 * g))

    # the header and the key move the largest grid kept just below one block of values
    largest = max(g for g in range(1, BLOCK_VALUES // size + 1) if held(g) <= BLOCK_BYTES)
    assert largest < BLOCK_VALUES // size
    small, big = (np.linspace(0.0, 1.0, largest + extra) for extra in (0, 1))
    clear_all()
    for _ in range(2):
        evaluate_on_grid(config, pq, (), big)
        assert kept_grid_basis(config, pq, big) is None
    assert basis_builds == [config.degree] * 2
    evaluate_on_grid(config, pq, (), small)
    evaluate_on_grid(config, pq, (), small)
    kept = kept_grid_basis(config, pq, small)
    assert kept.size == small.size * size
    assert basis_builds == [config.degree] * 3
    # a grid too big for the entry's store keeps nothing and drops nothing
    evaluate_on_grid(config, pq, (), big)
    assert kept_grid_basis(config, pq, big) is None
    assert kept_grid_basis(config, pq, small) is kept


def test_the_kept_basis_is_read_only_and_basis_matrix_is_a_fresh_copy():
    config, pq = SchurerConfig(n=12, ell=2), classic(12)
    clear_all()
    want = evaluate_on_grid(config, pq, (), XS).raw
    kept = kept_grid_basis(config, pq, XS)
    assert kept is not None and not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0] = 2.0
    matrix = basis_matrix(config, pq, XS)
    assert matrix.flags.writeable and not np.shares_memory(matrix, kept)
    np.testing.assert_array_equal(matrix, kept)
    matrix[:] = 0.0  # the caller's copy, not the kept basis
    got = evaluate_on_grid(config, pq, (), XS).raw
    assert kept_grid_basis(config, pq, XS) is kept
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_a_kept_basis_is_keyed_on_the_bits_of_the_grid():
    # 0.0 == -0.0, but the basis row at -0.0 holds -0.0 where the row at 0.0 holds 0.0
    config, pq = SchurerConfig(n=5), classic(5)
    clear_all()
    signs = []
    for first in (0.0, -0.0, 0.0):
        xs = np.array([first, 0.5])
        evaluate_on_grid(config, pq, (), xs)
        kept = kept_grid_basis(config, pq, xs)
        assert kept.tobytes() == basis_matrix(config, pq, xs).tobytes()
        signs.append(bool(np.signbit(kept[0, 1])))
    assert signs == [False, True, False]


def gauss_attempts(fn, seen):
    """fn, recording the widths of the 2-D argument arrays it is called on."""

    def spy(t):
        if np.ndim(t) == 2:
            seen.append(t.shape[1])
        return fn(t)

    return spy


def declare_analytic(monkeypatch, fn):
    """Let the operator treat fn as an analytic built-in."""
    monkeypatch.setattr(
        operator_eval, "ANALYTIC_BUILTINS", operator_eval.ANALYTIC_BUILTINS | {fn}
    )


def k_node_means(config, pq, fn):
    """fn's K-node means: a closure is never an analytic built-in."""
    return _tables(config, pq).integral_means((lambda t: fn(t),))[0]


@given(
    n=st.integers(min_value=10, max_value=200),
    ell=st.integers(min_value=0, max_value=3),
    u=st.floats(min_value=0.0, max_value=1.0),
    ratio=st.floats(min_value=0.7, max_value=0.995),
)
def test_gauss_and_k_node_means_of_the_smooth_builtins_agree(n, ell, u, ratio):
    # p within 1/(n+1) of 1 keeps the arguments [k]/[n+1] below about e, and
    # n >= 10 keeps each argument's range short: at n = 1, p = 0.5 the
    # s / s+4 check rightly refuses f_fig over arguments spanning [0, 2]
    p = 1.0 - u / (n + 1)
    config, pq = SchurerConfig(n=n, ell=ell), PQPair(p, p * ratio)
    tb = _tables(config, pq)
    for name in ("e0", "e1", "e2", "f_fig"):
        fn = functions._BUILTINS[name]
        want = k_node_means(config, pq, fn)
        gauss = tb.gauss_means(fn)
        assert gauss is not None
        got = [gauss, tb.integral_means((fn,))[0]]  # the latter on either path
        for means in got:
            assert (np.abs(means - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()


def test_f_fig_takes_the_gauss_path_above_the_crossover(monkeypatch):
    config, pq = SchurerConfig(n=64, ell=1), classic(64)
    lo, hi = required_domain(config, pq)
    fig, seen = functions._BUILTINS["f_fig"], []
    spied = gauss_attempts(fig, seen)
    declare_analytic(monkeypatch, spied)
    got = apply_on_grid(config, pq, RealFunction(spied, lo, hi), XS)
    assert seen == [_tables(config, pq).gauss.nodes.size]
    want = basis_matrix(config, pq, XS) @ k_node_means(config, pq, fig)
    assert np.abs(got - want).max() <= 1e-13
    # f_fig itself, through the public path, the same
    np.testing.assert_array_equal(apply_on_grid(config, pq, make_function("f_fig", lo, hi), XS), got)


def test_e1_e2_and_f_fig_are_the_builtins_that_try_the_gauss_rule(monkeypatch):
    # above the crossover: the polynomials e1 and e2, which the rules sum
    # exactly, and the entire f_fig; e0 keeps the K-node rule (see
    # functions.ANALYTIC_BUILTINS), and holder_half has a kink
    config, pq = SchurerConfig(n=64, ell=1), classic(64)
    tried, gauss_means = [], _Operator.gauss_means

    def spy(op, fn):
        tried.append(fn)
        return gauss_means(op, fn)

    monkeypatch.setattr(_Operator, "gauss_means", spy)
    clear_all()
    try:
        _tables(config, pq).integral_means(tuple(functions._BUILTINS.values()))
    finally:
        clear_all()
    assert tried == [functions._BUILTINS[name] for name in ("e1", "e2", "f_fig")]


def test_gauss_rules_are_built_once_per_operator():
    config, pq = SchurerConfig(n=64, ell=1), classic(64)
    tb = _tables(config, pq)
    assert tb.gauss is tb.gauss
    assert tb.gauss.nodes.max() <= tb.rule.top_node


def f_fig_attempts(config, pq, nodes, monkeypatch):
    """f_fig over XS on an operator of K+1 = nodes: the argument widths it met, and its means."""
    assert _tables(config, pq).rule.nodes.size == nodes
    lo, hi = required_domain(config, pq)
    seen = []
    spied = gauss_attempts(functions._BUILTINS["f_fig"], seen)
    declare_analytic(monkeypatch, spied)
    apply_on_grid(config, pq, RealFunction(spied, lo, hi), XS)
    return seen, _tables(config, pq).means[spied]


# (N+1)(K+1 - 56) evaluations saved against operator_eval.GAUSS_BUILD = 15,000
@pytest.mark.parametrize(
    "n, ell, p, q, nodes",
    [
        (24, 3, 1.0, 0.96175, 591),     # 28 x 535 = 14,980
        (24, 3, 0.9, 0.865575, 591),
        (98, 1, 1.0, 0.8935, 205),      # 100 x 149 = 14,900
        (1000, 0, 1.0, 0.5, 34),        # fewer nodes than the Gauss rules, at any N
        (24, 0, 0.99, 0.5, 34),
        (1, 0, 0.9, 0.8, 196),
    ],
)
def test_small_operators_keep_the_k_node_rule(n, ell, p, q, nodes, monkeypatch):
    # small in what the Gauss path would save: below GAUSS_BUILD
    config, pq = SchurerConfig(n=n, ell=ell), PQPair(p, q)
    seen, _ = f_fig_attempts(config, pq, nodes, monkeypatch)
    assert set(seen) == {nodes}


@pytest.mark.parametrize(
    "n, ell, p, q, nodes",
    [
        (24, 3, 1.0, 0.9618, 592),      # 28 x 536 = 15,008
        (98, 1, 1.0, 0.894, 206),       # 100 x 150 = 15,000
        (24, 3, 1.0, 0.98, 1140),       # 28 x 1,084: 2.3 to 2.5 times faster on this path
        (24, 3, 0.9, 0.9 * 0.98, 1140),
    ],
)
def test_operators_from_the_crossover_take_the_gauss_path(n, ell, p, q, nodes, monkeypatch):
    config, pq = SchurerConfig(n=n, ell=ell), PQPair(p, q)
    seen, means = f_fig_attempts(config, pq, nodes, monkeypatch)
    # one Gauss pass that passed the s / s+4 check, and no K-node pass
    assert seen == [_tables(config, pq).gauss.nodes.size]
    want = k_node_means(config, pq, functions._BUILTINS["f_fig"])
    assert np.abs(means - want).max() <= 1e-13


@pytest.mark.parametrize(
    "rough",
    [lambda t: np.sqrt(np.abs(t - 0.5)), lambda t: np.abs(np.cos(40.0 * t))],
    ids=["sqrt_kink", "abs_cos"],
)
def test_a_rough_function_declared_analytic_falls_back_bit_identically(rough, monkeypatch):
    config, pq = SchurerConfig(n=64, ell=1), classic(64)
    lo, hi = required_domain(config, pq)
    seen = []
    spied = gauss_attempts(rough, seen)
    declare_analytic(monkeypatch, spied)
    got = apply_on_grid(config, pq, RealFunction(spied, lo, hi), XS)
    k1 = _tables(config, pq).rule.nodes.size
    assert seen[0] == _tables(config, pq).gauss.nodes.size  # tried, failed the s / s+4 check
    assert set(seen[1:]) == {k1}
    np.testing.assert_array_equal(got, apply_on_grid(config, pq, RealFunction(rough, lo, hi), XS))


def test_an_undeclared_closure_takes_the_k_node_path_bit_identically(monkeypatch):
    config, pq = SchurerConfig(n=64, ell=1), classic(64)
    lo, hi = required_domain(config, pq)
    seen = []
    closure = RealFunction(gauss_attempts(lambda t: 1.0 + np.cos(5.0 * t**2), seen), lo, hi)
    got = apply_on_grid(config, pq, closure, XS)
    assert set(seen) == {_tables(config, pq).rule.nodes.size}
    # the same values as f_fig's own K-node means, bit for bit
    monkeypatch.setattr(operator_eval, "ANALYTIC_BUILTINS", frozenset())
    clear_all()
    want = apply_on_grid(config, pq, make_function("f_fig", lo, hi), XS)
    clear_all()
    np.testing.assert_array_equal(got, want)
