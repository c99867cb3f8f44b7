"""One working-set rule for every blocked loop: blocks of pq_core.BLOCK_VALUES values.

Each loop below would hold far more than a few blocks if it took its whole
table at once: the Lipschitz check's 201 x 201 pair table, the 129 x 2,982
K-node arguments of a theorems-shaped operator, and the 1,000 x 1,001 factor
table of a rising product.  The same block bounds the basis rows an operator
keeps for its point calls and grids, and what a bundle keeps across reports.
Only the operator in use is kept: moving to another releases the last one.
"""

import sys
import tracemalloc
import weakref

import numpy as np

from pqbernstein import clear_all, error_bounds, functions, reportio
from pqbernstein.experiments import run_bounds, run_moments
from pqbernstein.operator_eval import (
    SchurerConfig,
    _Operator,
    _tables,
    apply,
    apply_on_grid,
    required_domain,
)
from pqbernstein.pq_core import BLOCK_BYTES, BLOCK_VALUES, PQPair, pq_rising_two_term



def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def classic(n):
    return SchurerConfig(n=n), PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))


def test_a_block_is_below_the_mmap_threshold():
    # glibc maps each allocation of 128 KiB or more anew, and faults it in on every call
    assert BLOCK_BYTES < 128 * 1024


def test_the_lipschitz_scan_holds_a_few_blocks():
    xs = np.linspace(0.0, 1.3, 201)
    vals = np.sqrt(np.abs(xs - 0.5))
    assert peak_bytes(lambda: error_bounds._worst_pair(xs, vals, 1.0, 0.5)) < 4 * BLOCK_BYTES


def test_a_k_node_means_pass_holds_a_few_blocks():
    op = _Operator(*classic(128))
    op.arguments  # the rule and the argument coefficients: a warm operator
    assert op.arguments.c0.size * op.rule.nodes.size > 20 * BLOCK_VALUES
    holder_half = functions.BUILTINS["holder_half"].fn  # no Gauss path: the K-node rule
    assert peak_bytes(lambda: op.integral_means((holder_half,))) < 4 * BLOCK_BYTES


def test_a_rising_product_holds_a_few_blocks():
    xs = np.linspace(0.0, 1.0, 1001)
    pq = classic(1000)[1]
    peak = peak_bytes(lambda: pq_rising_two_term(pq.p * pq.p, 1.0, xs, 1.0 - xs, 1000, pq))
    assert peak < 4 * BLOCK_BYTES


def kept_rows(n, points):
    """The rows a fresh classic-n entry keeps after apply at that many points, and their bytes."""
    config, pq = classic(n)
    clear_all()
    f_fig = functions.make_function("f_fig", *required_domain(config, pq))
    apply(config, pq, f_fig, 0.5)  # the rule and the means
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in np.linspace(0.0, 1.0, points).tolist():
            apply(config, pq, f_fig, x)
        return _tables(config, pq).kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_the_kept_basis_rows_stay_within_one_block():
    rows, _ = kept_rows(1024, 1000)
    assert 0 < len(rows) < 1000
    assert sum(row.size for row in rows.values()) <= BLOCK_VALUES


def test_small_kept_rows_count_their_headers_and_keys():
    # at n = 1 a row's 2 values take 16 of its 152 bytes: 8,000 rows
    # of values would hold about 1.8 MB
    rows, held = kept_rows(1, 5000)
    assert 0 < len(rows) < 5000
    assert held < 2 * BLOCK_BYTES


def kept_grid_basis(config, pq, xs):
    """The basis an operator entry keeps for the grid xs, or None."""
    return _tables(config, pq).kept.get((xs.shape, xs.tobytes()))


def theorems_bundle(config, pq):
    """The moment report and the three bound checks of one operator, in a bundle's order."""
    return [run_moments(config, pq)] + [
        run_bounds(theorem, config, pq, name)
        for theorem, name in (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))
    ]


def test_what_a_bundle_keeps_is_one_block_and_one_bundles_texts():
    # the largest theorems operator: N + 1 = 131 at G = 101, 13,231 basis values
    config, pq = SchurerConfig(n=128, ell=2), classic(128)[1]
    clear_all()
    # the operator entry, its Gauss rules and its means, kept by _tables and
    # left out of what follows
    fns = [functions.BUILTINS[name].fn for name in ("f_fig", "holder_half")]
    _tables(config, pq).integral_means(fns)
    _tables(config, pq).gauss
    tracemalloc.start()
    try:
        reports = theorems_bundle(config, pq)
        for report in reports:
            report.to_csv_text()
        # what the bundle's float columns take as texts, one string per cell
        texts = sum(
            sys.getsizeof(text)
            for report in reports
            for name, cells in report.columns.items()
            if {type(v) for v in cells} == {float}
            for text in report.texts[name]
        )
        del reports, report
        xs = np.linspace(0.0, 1.0, 101)
        assert kept_grid_basis(config, pq, xs).size == 101 * 131 <= BLOCK_VALUES
        # the grid basis, the ModulusGrid of f_fig and the texts
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held <= BLOCK_BYTES + texts


def test_a_grid_basis_above_one_block_is_not_kept():
    # G = 40,001 at N + 1 = 1,025: a 328 MB basis matrix, freed on return
    config, pq = classic(1024)
    f_fig = functions.make_function("f_fig", *required_domain(config, pq))
    clear_all()
    apply_on_grid(config, pq, f_fig, np.linspace(0.0, 1.0, 11))  # the rule and the means
    small, big = np.linspace(0.0, 1.0, 12), np.linspace(0.0, 1.0, 40_001)
    tracemalloc.start()
    try:
        apply_on_grid(config, pq, f_fig, small)
        kept = kept_grid_basis(config, pq, small)  # 12 x 1,025 values fit one block
        assert kept is not None and kept.nbytes == 12 * 1025 * 8
        before = tracemalloc.get_traced_memory()[0]
        apply_on_grid(config, pq, f_fig, big)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the large basis was not kept, and the small one still is
    assert kept_grid_basis(config, pq, big) is None
    assert kept_grid_basis(config, pq, small) is kept
    assert after - before < 1024


def test_another_operator_releases_everything_the_last_one_kept(monkeypatch):
    # a theorems bundle on the largest theorems operator, then one point on another
    config, pq = SchurerConfig(n=128, ell=2), classic(128)[1]
    other, other_pq = classic(4)
    e0 = functions.make_function("e0", *required_domain(other, other_pq))
    grids = []
    init = error_bounds.ModulusGrid.__init__

    def recording(grid, f):
        grids.append(weakref.ref(grid))
        init(grid, f)

    monkeypatch.setattr(error_bounds.ModulusGrid, "__init__", recording)
    clear_all()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for report in theorems_bundle(config, pq):
            report.to_csv_text()
        del report
        means = _tables(config, pq).means.values()
        assert len(grids) == 1 and len(means) == 4  # f_fig's grid; e1, e2, f_fig, holder_half
        released = [weakref.ref(kept_grid_basis(config, pq, np.linspace(0.0, 1.0, 101)))]
        released += [*grids, *map(weakref.ref, means)]
        del means
        apply(other, other_pq, e0, 0.5)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # the grid basis, the ModulusGrid, then the means
    assert [i for i, ref in enumerate(released) if ref() is not None] == []
    # all that is left, but for the float texts reportio keeps, is the small entry
    rest = [tracemalloc.Filter(False, reportio.__file__)]
    diffs = after.filter_traces(rest).compare_to(before.filter_traces(rest), "filename")
    held = sum(diff.size_diff for diff in diffs)
    assert held < 101 * 131 * 8 // 4  # a quarter of the first entry's basis alone


def test_the_float_text_cache_holds_at_most_two_blocks():
    # more columns than the cache keeps, each of its longest length, with texts
    # of 21 to 23 characters: 86 to 88 bytes a cell with its key and tuple slot
    clear_all()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(24):
            column = [-3.141592653589793e-300 * (1 + i + j / 512) for j in range(reportio.LONGEST_KEPT)]
            reportio.cell_texts({"a": column})
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert reportio._float_texts.cache_info().currsize == 16
    assert 16 * reportio.LONGEST_KEPT * 86 < held < 2 * BLOCK_BYTES
