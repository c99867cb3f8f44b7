"""Acceptance suite: one check per criterion, one printed pass/fail line each.

Criteria 1, 2, 4 and 5 call the selftest's check functions with wider case
lists, so each of those checks is written once.

Regression numbers marked FROZEN were produced by this implementation's own
oracle paths on the first run and pin the behaviour down to 1e-9 relative.
"""

import time

import numpy as np
import pytest

from pqbernstein.error_bounds import check_t32, check_t33, check_t34
from pqbernstein.experiments import (
    check_constant_reproduction,
    check_p1_reduction,
    check_partition_of_unity,
    check_quadrature_monomials,
    run_figure,
    run_korovkin,
    run_moments,
    schedule,
)
from pqbernstein.functions import make_function
from pqbernstein.moments_closed import build_moment_report
from pqbernstein.operator_eval import BasisVariant, SchurerConfig, basis_matrix, required_domain
from pqbernstein.pq_core import PQPair

ACCEPTANCE_PAIRS = [PQPair(1.0, 0.5), PQPair(0.9, 0.8), PQPair(0.99, 0.98)]

BOUND_CONFIGS = [
    (SchurerConfig(n=20, ell=1), PQPair(0.95, 0.9)),
    (SchurerConfig(n=40, ell=2), PQPair(0.99, 0.98)),
]

# FROZEN: classic schedule, ell=0, 101-point grid, quad_tol 1e-10
KOROVKIN_FROZEN_N128 = {
    "e1": 0.0061694243233862012,
    "e2": 0.0073670320359214281,
    "f_fig": 0.059839397653987311,
}

# FROZEN: moment report at n=6, ell=2, p=0.9, q=0.8, 101-point grid
MOMENT_FROZEN_MAX_DIFF = {
    "m1": 0.39925561216731498,
    "m2": 0.53511526304569834,
    "c1": 0.70827989838753003,
    "c2": 0.18511801838467212,
}

# FROZEN: t34 max ratios at p=0.95, q=0.855, ell=0 for n = 10, 20, 40
T34_FROZEN_RATIOS = [0.48702131877165589, 0.31207415746602019, 0.23091395387351135]


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d} {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def bound_function(name, config, pq):
    lo, hi = required_domain(config, pq)
    return make_function(name, min(lo, 0.0), max(hi, 1.0))


def test_criterion_01_quadrature_monomials():
    start = time.perf_counter()
    check = check_quadrature_monomials(ACCEPTANCE_PAIRS)
    elapsed = time.perf_counter() - start
    report(
        1,
        "quadrature monomial identity",
        check.passed and elapsed < 1.0,
        f"{check.detail}, {elapsed:.2f}s",
    )


def test_criterion_02_partition_of_unity():
    start = time.perf_counter()
    cases = [
        (SchurerConfig(n=big_n, ell=0), pq) for pq in ACCEPTANCE_PAIRS for big_n in range(1, 65)
    ]
    check = check_partition_of_unity(cases)
    elapsed = time.perf_counter() - start
    report(
        2,
        "partition of unity (normalized basis, N<=64)",
        check.passed and elapsed < 5.0,
        f"{check.detail}, {elapsed:.2f}s",
    )


def test_criterion_03_printed_basis_witness():
    pq = PQPair(0.9, 0.8)
    config = SchurerConfig(n=2, ell=0, basis_variant=BasisVariant.AS_PRINTED)
    worst = 0.0
    for x in np.linspace(0.0, 1.0, 101):
        total = basis_matrix(config, pq, float(x)).sum()
        worst = max(worst, abs(total - (0.9 + 0.1 * x * x)))
    report(
        3,
        "printed-basis constant-reproduction gap at N=2",
        worst <= 1e-13,
        f"max|sum - (p + (1-p)x^2)|={worst:.3e}",
    )


def test_criterion_04_p1_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 31))
        ell = int(rng.integers(0, 4))
        q = float(rng.uniform(0.5, 0.99))
        x = float(rng.uniform(0.0, 1.0))
        coefs = rng.uniform(-1.0, 1.0, size=4)
        cases.append((SchurerConfig(n=n, ell=ell, quad_tol=1e-12), q, x, coefs))
    check = check_p1_reduction(cases)
    elapsed = time.perf_counter() - start
    report(
        4,
        "p=1 reduction vs independent q-operator",
        check.passed and elapsed < 10.0,
        f"{check.detail} over {len(cases)} cases, {elapsed:.2f}s",
    )


def test_criterion_05_constant_reproduction():
    cases = []
    for (n, ell, p, q) in [(5, 0, 0.9, 0.8), (10, 2, 0.95, 0.9), (20, 1, 0.99, 0.98), (8, 3, 1.0, 0.7)]:
        config = SchurerConfig(n=n, ell=ell)
        cases.append((config, PQPair(p, q), np.linspace(0.0, 1.0, 11), n * config.quad_tol))
    check = check_constant_reproduction(cases)
    report(5, "constant reproduction within n*quad_tol", check.passed, check.detail)


def test_criterion_06_korovkin_convergence():
    start = time.perf_counter()
    result = run_korovkin(
        schedule("classic"), [8, 16, 32, 64, 128], ell=0, grid_size=101, quad_tol=1e-10
    )
    elapsed = time.perf_counter() - start
    first = {name: result.columns[f"sup_err_{name}"][0] for name in KOROVKIN_FROZEN_N128}
    last = {name: result.columns[f"sup_err_{name}"][-1] for name in KOROVKIN_FROZEN_N128}
    strict = result.converged
    quarter = all(last[name] <= first[name] / 4.0 for name in ("e1", "e2", "f_fig"))
    frozen = all(
        last[name] == pytest.approx(KOROVKIN_FROZEN_N128[name], rel=1e-9)
        for name in KOROVKIN_FROZEN_N128
    )
    ratios = {name: last[name] / first[name] for name in KOROVKIN_FROZEN_N128}
    report(
        6,
        "Korovkin convergence along classic schedule",
        strict and quarter and frozen and elapsed < 60.0,
        f"strict_decrease={strict}, err128/err8={ {k: round(v, 4) for k, v in ratios.items()} }, "
        f"frozen_match={frozen}, {elapsed:.1f}s",
    )


def test_criterion_07_first_modulus_bound():
    violations = 0
    rows = 0
    xs = np.linspace(0.0, 1.0, 101)
    for config, pq in BOUND_CONFIGS:
        for fname in ("e1", "e2", "f_fig"):
            rep = check_t32(config, pq, bound_function(fname, config, pq), xs)
            rows += len(rep.columns["passed"])
            violations += rep.columns["passed"].count(False)
    report(
        7,
        "first-modulus bound (2 configs x 3 functions)",
        violations == 0,
        f"{violations} violations over {rows} grid rows",
    )


def test_criterion_08_lipschitz_bound():
    violations = 0
    rows = 0
    xs = np.linspace(0.0, 1.0, 101)
    for config, pq in BOUND_CONFIGS:
        for fname, m_const, alpha in [("e1", 1.0, 1.0), ("holder_half", 1.0, 0.5)]:
            rep = check_t33(config, pq, bound_function(fname, config, pq), m_const, alpha, xs)
            rows += len(rep.columns["passed"])
            violations += rep.columns["passed"].count(False)
    report(
        8,
        "Lipschitz-class bound (2 configs x 2 witnesses)",
        violations == 0,
        f"{violations} violations over {rows} grid rows",
    )


def test_criterion_09_smoothness_ratio():
    xs = np.linspace(0.0, 1.0, 101)
    pq = PQPair(0.95, 0.855)
    max_ratios = []
    all_finite = True
    cap_ok = True
    for n in (10, 20, 40):
        config = SchurerConfig(n=n, ell=0)
        rep = check_t34(config, pq, bound_function("f_fig", config, pq), xs)
        # a degenerate row's undefined ratio (None) reads as NaN: not finite
        values = np.array(rep.columns["ratio_t34"], dtype=float)
        all_finite &= bool(np.isfinite(values).all())
        cap_ok &= rep.all_passed and rep.extras["max_ratio"] <= 50.0
        max_ratios.append(rep.extras["max_ratio"])
    # the same cap/finiteness must hold at the other bound-suite configs
    for config, pq_other in BOUND_CONFIGS:
        rep = check_t34(config, pq_other, bound_function("f_fig", config, pq_other), xs)
        # a degenerate row's undefined ratio (None) reads as NaN: not finite
        values = np.array(rep.columns["ratio_t34"], dtype=float)
        all_finite &= bool(np.isfinite(values).all())
        cap_ok &= rep.extras["max_ratio"] <= 50.0
    non_increasing = all(b <= a + 1e-12 for a, b in zip(max_ratios, max_ratios[1:]))
    frozen = all(
        got == pytest.approx(want, rel=1e-9)
        for got, want in zip(max_ratios, T34_FROZEN_RATIOS)
    )
    report(
        9,
        "smoothness-bound ratio check",
        all_finite and cap_ok and non_increasing and frozen,
        f"max_ratios={[round(v, 4) for v in max_ratios]}, finite={all_finite}, "
        f"cap50={cap_ok}, non_increasing={non_increasing}, frozen_match={frozen}",
    )


def test_criterion_10_moment_report():
    consistency_ok = True
    for (n, ell, p, q) in [(6, 2, 0.9, 0.8), (10, 1, 0.99, 0.98), (1, 0, 1.0, 0.9)]:
        config = SchurerConfig(n=n, ell=ell)
        rep = build_moment_report(config, PQPair(p, q), np.linspace(0.0, 1.0, 21))
        tol = config.quad_tol
        consistency_ok &= rep.max_m0_dev <= n * tol
        consistency_ok &= rep.max_c1_consistency <= 2 * n * tol
        consistency_ok &= rep.max_c2_consistency <= 4 * n * tol
        consistency_ok &= all(c2 >= -n * tol for c2 in rep.columns["oracle_c2"])

    frozen_rep = run_moments(SchurerConfig(n=6, ell=2), PQPair(0.9, 0.8), grid_size=101)
    flag_exercised = frozen_rep.flagged
    frozen = all(
        frozen_rep.max_abs_diff[key] == pytest.approx(MOMENT_FROZEN_MAX_DIFF[key], rel=1e-9)
        for key in MOMENT_FROZEN_MAX_DIFF
    )
    report(
        10,
        "moment report consistency + closed-form regression",
        consistency_ok and flag_exercised and frozen,
        f"consistency={consistency_ok}, p<1 flag={flag_exercised}, "
        f"max_abs_diff={ {k: round(v, 6) for k, v in frozen_rep.max_abs_diff.items()} }, "
        f"frozen_match={frozen}",
    )


def test_criterion_11_figure_determinism(tmp_path):
    first = run_figure(ell=0, grid_size=41)
    second = run_figure(ell=0, grid_size=41)
    path_a = tmp_path / "fig_a.csv"
    path_b = tmp_path / "fig_b.csv"
    path_a.write_bytes(first.to_csv_text().encode())
    path_b.write_bytes(second.to_csv_text().encode())
    identical = (
        path_a.read_bytes() == path_b.read_bytes()
        and first.to_json_text() == second.to_json_text()
    )
    report(
        11,
        "figure determinism",
        identical,
        f"csv bytes equal={path_a.read_bytes() == path_b.read_bytes()}, json equal=True",
    )
