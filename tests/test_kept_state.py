"""What is kept between calls: the one store, kept.Kept, and kept.clear_all().

Two stores outlive a report: operator_eval._tables, whose one entry, the
operator in use, holds its grid basis and the ModulusGrids error_bounds
builds on it, and the texts of recent float columns (reportio).  Each report
of a theorems bundle must write the same CSV and JSON whether it is built
alone after clear_all() or after the others.  Every module-level store of the
package must be one clear_all() clears.
"""

import importlib
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pqbernstein
from pqbernstein import error_bounds, operator_eval, reportio
from pqbernstein.error_bounds import MODULUS_GRID_DIV, ModulusGrid, bound_domain, check_t32, check_t34
from pqbernstein.experiments import run_bounds, run_moments
from pqbernstein.functions import make_function
from pqbernstein.kept import Kept, clear_all
from pqbernstein.operator_eval import SchurerConfig, apply_central_moment
from pqbernstein.pq_core import PQPair


BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))


@pytest.mark.parametrize(
    "steps, left",
    [
        # a hit ("a") does not make a put younger
        pytest.param(["a40", "b40", "a", "c40"], ["b", "c"], id="the-oldest-put-goes-first"),
        pytest.param(["a40", "b60", "c101"], ["a", "b"], id="an-oversize-value-evicts-nothing"),
        pytest.param(["a40", "b60", "clear", "c100"], ["c"], id="clear-resets-the-byte-count"),
    ],
)
def test_a_kept_store_holds_at_most_its_budget(steps, left):
    # each step puts its key at its size, reads a kept key or clears the store
    store, sizes = Kept(100), {}
    for step in steps:
        if step == "clear":
            store.clear()
        elif step[1:]:
            sizes[step[0]] = int(step[1:])
            store.put(step[0], step[0].upper(), sizes[step[0]])
        else:
            assert store.get(step) == step.upper()
    assert store == {key: key.upper() for key in left}
    assert store.held == sum(sizes[key] for key in left) <= 100


def test_clear_all_clears_every_store_of_the_package():
    # an operator entry, and one entry in every module-level Kept
    apply_central_moment(SchurerConfig(n=3), PQPair(0.9, 0.8), 0.5, 2)
    stores = {}
    for info in pkgutil.iter_modules(pqbernstein.__path__):
        module = importlib.import_module(f"pqbernstein.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, Kept) or hasattr(value, "cache_clear"):
                stores.setdefault(id(value), (f"{info.name}.{name}", value))
    for _, store in stores.values():
        if isinstance(store, Kept):
            store.put(object(), None, 0)
    known = (operator_eval._tables, reportio._float_texts)
    assert {id(store) for store in known} == stores.keys()
    clear_all()
    for name, store in stores.values():
        left = len(store) if isinstance(store, Kept) else store.cache_info().currsize
        assert left == 0, f"clear_all() leaves {left} entries in {name}"


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
