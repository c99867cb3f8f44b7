"""What is kept between calls, and clear_all().

Two stores outlive a report: operator_eval._tables, whose one entry, the
operator in use, holds its basis values (at most one block, started over
when full), its means and the ModulusGrids error_bounds builds on it, and
the texts of recent float columns (reportio._float_texts).  Each report of
a theorems bundle must write the same CSV and JSON whether it is built
alone after clear_all() or after the others.  Whatever a module of the
package keeps, clear_all() must forget.
"""

import importlib
import pkgutil
from unittest import mock

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pqbernstein
from pqbernstein import clear_all, error_bounds, reportio
from pqbernstein.error_bounds import MODULUS_GRID_DIV, ModulusGrid, bound_domain, check_t32, check_t34
from pqbernstein.experiments import run_bounds, run_moments
from pqbernstein.functions import make_function
from pqbernstein.operator_eval import (
    SchurerConfig,
    _Operator,
    _tables,
    apply,
    apply_central_moment,
)
from pqbernstein.pq_core import BLOCK_BYTES, PQPair


BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))


@pytest.mark.parametrize(
    "steps, left",
    [
        # a hit ("a") does not keep a put: the store starts over when full
        pytest.param(["a60", "a", "b60"], ["b"], id="the-oldest-put-goes-first"),
        pytest.param(["a40", "b55", "c101"], ["a", "b"], id="an-oversize-value-evicts-nothing"),
        pytest.param(["a40", "b55", "clear", "c95"], ["c"], id="clear-resets-the-byte-count"),
    ],
)
def test_a_kept_store_holds_at_most_its_budget(steps, left):
    # each step keeps a grid basis of its share of one block, reads a kept one or clears all
    config, pq = SchurerConfig(n=99), PQPair(0.75, 0.5)
    row = config.degree + 1
    clear_all()
    op, grids, sizes, kept = _tables(config, pq), {}, {}, {}
    for step in steps:
        if step == "clear":
            clear_all()
            op = _tables(config, pq)
        elif step[1:]:
            name, g = step[0], int(step[1:]) * BLOCK_BYTES // (100 * 8 * (row + 1))
            grids[name] = np.linspace(0.0, 1.0 - 0.1 * "abc".index(name), g)
            sizes[name] = sys.getsizeof(np.empty((g, row))) + sys.getsizeof(bytes(8 * g))
            kept[name] = op.kept_basis(grids[name])
        else:
            assert op.kept_basis(grids[step]) is kept[step]
    want = {(grids[name].shape, grids[name].tobytes()) for name in left}
    assert set(op.kept) == want
    assert op.held == sum(sizes[name] for name in left) <= BLOCK_BYTES


def test_a_full_basis_store_starts_over(monkeypatch):
    # at n = 1 a row takes 152 bytes with its key: 5,000 points fill one block several times
    config, pq = SchurerConfig(n=1), PQPair(0.75, 0.5)
    f = make_function("f_fig", *bound_domain(config, pq))
    clear_all()
    op = _tables(config, pq)
    held, kept = [], []
    for x in np.linspace(0.0, 1.0, 5000).tolist():
        apply(config, pq, f, x)
        held.append(op.held)
        kept.append(len(op.kept))
    starts = [i for i in range(1, len(held)) if held[i] < held[i - 1]]
    assert starts and max(held) <= BLOCK_BYTES
    # each start keeps only the row that would have overflowed the block
    row = held[2] - held[1]  # x = 0.0 is keyed on its text, every later x on itself
    assert {kept[i] for i in starts} == {1} and {held[i] for i in starts} == {row}
    assert len(op.kept) == kept[-1] < 5000
    # so a grid evaluated next is kept, and the bound check after it builds no second basis
    xs = np.linspace(0.0, 1.0, 101)
    built = []
    basis = _Operator.basis
    monkeypatch.setattr(_Operator, "basis", lambda self, x: built.append(np.shape(x)) or basis(self, x))
    check_t32(config, pq, f, xs)
    assert op.kept.get((xs.shape, xs.tobytes())) is not None
    check_t34(config, pq, f, xs)
    assert built == [xs.shape] and _tables(config, pq) is op


def module_stores():
    """Every module-level dict, list, set or cache of the package, with its name."""
    modules = [pqbernstein] + [
        importlib.import_module(f"pqbernstein.{info.name}")
        for info in pkgutil.iter_modules(pqbernstein.__path__)
    ]
    stores = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (dict, list, set)) or hasattr(value, "cache_clear"):
                stores.setdefault(id(value), (f"{module.__name__}.{name}", value))
    return list(stores.values())


def held(store) -> int:
    return store.cache_info().currsize if hasattr(store, "cache_clear") else len(store)


def test_clear_all_clears_every_store_of_the_package():
    stores = module_stores()
    clear_all()
    before = [held(store) for _, store in stores]
    # a theorems bundle, then pointwise calls on another operator
    config, pq = SchurerConfig(n=20, ell=1), PQPair(1.0 - 1.0 / 21**2, 1.0 - 1.0 / 21)
    for step in bundle_steps(config, pq, 101):
        texts(step())
    small, small_pq = SchurerConfig(n=5, ell=2), PQPair(0.95, 0.8)
    fig = make_function("f_fig", *bound_domain(small, small_pq))
    for x in (0.0, -0.0, 0.3, 1.0):
        apply(small, small_pq, fig, x)
        apply_central_moment(small, small_pq, x, 2)
    grew = [(name, store) for (name, store), was in zip(stores, before) if held(store) > was]
    assert {id(_tables), id(reportio._float_texts)} <= {id(store) for _, store in grew}
    clear_all()
    left = {name: held(store) for name, store in grew if held(store)}
    assert left == {}, f"clear_all() leaves entries in {left}"


def bundle_steps(config, pq, grid_size):
    """The reports of a theorems bundle, in its order, each as a call."""
    steps = [lambda: run_moments(config, pq, grid_size=grid_size)]
    for theorem, name in BUNDLE:
        steps.append(
            lambda theorem=theorem, name=name: run_bounds(theorem, config, pq, name, grid_size=grid_size)
        )
    return steps


def texts(report):
    return report.to_csv_text(), report.to_json_text()


@settings(max_examples=25)
@given(
    n=st.integers(1, 130),
    ell=st.integers(0, 3),
    a=st.floats(0.8, 1.25),
    b=st.floats(0.8, 1.25),
    grid_size=st.sampled_from([2, 21, 101, 201]),
)
def test_each_bundle_report_writes_the_same_text_alone_or_after_the_others(n, ell, a, b, grid_size):
    # the benchmark's operators; at grid 201 and N + 1 > 79 the basis exceeds one block
    config, pq = SchurerConfig(n=n, ell=ell), PQPair(1.0 - a / (n + 1) ** 2, 1.0 - b / (n + 1))
    steps = bundle_steps(config, pq, grid_size)
    alone = []
    for step in steps:
        clear_all()
        alone.append(texts(step()))
    clear_all()
    in_order = [texts(step()) for step in steps]
    assert in_order == alone
    # again, warm, in the reverse order
    assert [texts(step()) for step in reversed(steps)] == alone[::-1]


def t32_grid(config, pq, f, xs):
    report = check_t32(config, pq, f, xs)
    return report.extras["modulus_grid_step"], report.columns["bound_t32"]


def test_a_kept_modulus_grid_is_keyed_on_the_grid_division():
    config, pq = SchurerConfig(n=16, ell=1), PQPair(1.0 - 1.0 / 17**2, 1.0 - 1.0 / 17)
    f = make_function("f_fig", *bound_domain(config, pq))
    xs = np.linspace(0.0, 1.0, 21)
    want = {}
    for div in (MODULUS_GRID_DIV, 10_000):
        with mock.patch.object(error_bounds, "MODULUS_GRID_DIV", div):
            clear_all()
            want[div] = t32_grid(config, pq, f, xs)
    assert want[10_000][0] == (f.hi - f.lo) / 10_000 < want[MODULUS_GRID_DIV][0]
    assert want[10_000][1] != want[MODULUS_GRID_DIV][1]
    clear_all()
    for div in (MODULUS_GRID_DIV, 10_000, MODULUS_GRID_DIV):
        with mock.patch.object(error_bounds, "MODULUS_GRID_DIV", div):
            assert t32_grid(config, pq, f, xs) == want[div]


def test_t32_and_t34_of_one_operator_sample_f_once(monkeypatch):
    config, pq = SchurerConfig(n=20, ell=2), PQPair(0.999, 0.95)
    f = make_function("f_fig", *bound_domain(config, pq))
    xs = np.linspace(0.0, 1.0, 21)
    built = []
    init = ModulusGrid.__init__

    def counting(self, g):
        built.append((g.lo, g.hi))
        init(self, g)

    monkeypatch.setattr(ModulusGrid, "__init__", counting)
    clear_all()
    check_t32(config, pq, f, xs)
    check_t34(config, pq, f, xs)
    assert built == [(f.lo, f.hi)]
    # a wider declaration is sampled on the same bound_domain: nothing new
    check_t32(config, pq, make_function("f_fig", f.lo, f.hi + 0.5), xs)
    assert built == [(f.lo, f.hi)]
    # another function, or another operator's domain, samples anew, and
    # f_fig's grid is still kept after holder_half's
    check_t32(config, pq, make_function("holder_half", f.lo, f.hi), xs)
    check_t32(config, pq, f, xs)
    other = SchurerConfig(n=21, ell=2)
    wider = bound_domain(other, pq)
    check_t32(other, pq, make_function("f_fig", *wider), xs)
    assert wider != (f.lo, f.hi)
    assert built == [(f.lo, f.hi)] * 2 + [wider]
