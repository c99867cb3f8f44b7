"""What the reports of a bundle keep for the next one never changes a bit of output.

Three things outlive a report: the last grid basis (operator_eval), the last
ModulusGrid (error_bounds) and the texts of recent float columns (reportio).
Each report of a theorems bundle must write the same CSV and JSON whether it
is built alone on cold caches or after the others.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from pqbernstein import error_bounds
from pqbernstein.error_bounds import MODULUS_GRID_DIV, ModulusGrid, bound_domain, check_t32, check_t34
from pqbernstein.experiments import run_bounds, run_moments
from pqbernstein.functions import make_function
from pqbernstein.operator_eval import SchurerConfig
from pqbernstein.pq_core import PQPair

from conftest import cold_caches

BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))


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
        cold_caches()
        alone.append(texts(step()))
    cold_caches()
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
            cold_caches()
            want[div] = t32_grid(config, pq, f, xs)
    assert want[10_000][0] == (f.hi - f.lo) / 10_000 < want[MODULUS_GRID_DIV][0]
    assert want[10_000][1] != want[MODULUS_GRID_DIV][1]
    cold_caches()
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
    cold_caches()
    check_t32(config, pq, f, xs)
    check_t34(config, pq, f, xs)
    assert built == [(f.lo, f.hi)]
    # a wider declaration is sampled on the same bound_domain: nothing new
    check_t32(config, pq, make_function("f_fig", f.lo, f.hi + 0.5), xs)
    assert built == [(f.lo, f.hi)]
    # another function, or another operator's domain, samples anew
    check_t32(config, pq, make_function("holder_half", f.lo, f.hi), xs)
    check_t32(config, pq, f, xs)
    other = SchurerConfig(n=21, ell=2)
    wider = bound_domain(other, pq)
    check_t32(other, pq, make_function("f_fig", *wider), xs)
    assert wider != (f.lo, f.hi)
    assert built == [(f.lo, f.hi)] * 3 + [wider]
