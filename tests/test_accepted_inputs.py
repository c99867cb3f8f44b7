"""The accepted-input contract: a finite partition of unity, or a typed error and its exit code.

For every (n, ell, p, q, tol) that the library and the CLI accept, either
the basis is finite, nonnegative and a partition of unity, the operator's
values are finite and K(1; x) is within korovkin's e0 gate, 10 (N+1) tol, or
evaluation raises NumericalRangeError or TruncationError and ``korovkin``
exits 3.  The space is n <= 1,399, ell <= 3, p = 1, p in (0.01, 1) or
p = 1 - 10^U(-8,-1), q/p from 0.01 to 1 - 1e-6, and tol = 10^U(-15.6,-1).
Each case's work, (N+1)(K+1) argument evaluations per function, is bounded
by drawing n last, so the test takes a few seconds.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from pqbernstein.cli import EXIT_INFEASIBLE, EXIT_OK, main
from pqbernstein.functions import make_function
from pqbernstein.operator_eval import (
    NumericalRangeError,
    SchurerConfig,
    apply,
    basis_matrix,
    evaluate_on_grid,
    required_domain,
)
from pqbernstein.pq_core import PQPair
from pqbernstein.pq_quadrature import DEFAULT_HARD_CAP, TruncationError

XS = np.linspace(0.0, 1.0, 21)
WORK = 2_000_000  # (N+1)(K+1) per case, where K is within the cap


@st.composite
def accepted_inputs(draw):
    p = draw(st.one_of(
        st.just(1.0),
        st.floats(min_value=0.01, max_value=1.0, exclude_min=True),
        st.floats(min_value=-8.0, max_value=-1.0).map(lambda e: 1.0 - 10.0**e),
    ))
    ratio = draw(st.one_of(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-6.0, max_value=-2.0).map(lambda e: 1.0 - 10.0**e),
    ))
    q = p * ratio
    assume(0.0 < q < p)
    tol = 10.0 ** draw(st.floats(min_value=-15.6, max_value=-1.0))
    ell = draw(st.integers(min_value=0, max_value=3))
    nodes = math.log(tol) / math.log(q / p) + 1.0  # K+1, to a node or so
    top = 1399 if nodes > DEFAULT_HARD_CAP else min(1399, int(WORK / nodes) - ell - 1)
    assume(top >= 1)
    return draw(st.integers(min_value=1, max_value=top)), ell, p, q, tol


def korovkin_exit(n, ell, p, q, tol) -> int:
    # --guard 1 admits every pair: the default guard refuses pairs far from 1
    argv = ["korovkin", "--schedule", "custom", "--n", str(n), "--p-list", repr(p),
            "--q-list", repr(q), "--ell", str(ell), "--tol", repr(tol),
            "--grid", str(XS.size), "--guard", "1"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# the NaN case warns of f_fig's overflow before the error names it
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(21)
@settings(max_examples=200)
@given(accepted_inputs())
# f_fig's t^2 overflows on arguments up to 8.1e153: its means were NaN
@example((979, 3, 0.6961011500744568, 0.32288160198390276, 1.1711911695041253e-4))
# K+1 = 167,880: r^j from the rounded q/p put K(1; x) - 1 at 48x the budget
@example((3, 2, 0.9999983126586219, 0.999787914476763, 4.553867464572494e-16))
def test_a_finite_partition_of_unity_or_a_typed_error(case):
    n, ell, p, q, tol = case
    config, pq = SchurerConfig(n=n, ell=ell, quad_tol=tol), PQPair(p, q)
    try:
        lo, hi = required_domain(config, pq)
        fs = [make_function(name, lo, hi) for name in ("f_fig", "holder_half")]
        grid = evaluate_on_grid(config, pq, fs, XS)
        basis = basis_matrix(config, pq, XS)
        point = apply(config, pq, fs[0], 0.5)
    except (NumericalRangeError, TruncationError):
        assert korovkin_exit(*case) == EXIT_INFEASIBLE
        return
    assert np.isfinite(basis).all() and (basis >= 0.0).all()
    assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.isfinite(grid.raw).all() and np.isfinite(grid.values).all()
    assert math.isfinite(point)
    # korovkin's e0 gate: at tol near eps the budget is a few ulps of 1, and
    # the sum of N+1 basis terms times means rounds by about that much
    assert np.abs(grid.raw[0] - 1.0).max() <= 10.0 * config.truncation_budget
    assert korovkin_exit(*case) == EXIT_OK
