"""The report writers: layout, equivalence with the plain writers, strictness."""

import functools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import csv_text_per_cell
from pqbernstein import cli
from pqbernstein.experiments import (
    FigureTable,
    KorovkinResult,
    run_bounds,
    run_figure,
    run_korovkin,
    run_moments,
    schedule,
)
from pqbernstein.operator_eval import SchurerConfig
from pqbernstein.pq_core import PQPair
from pqbernstein.reportio import SCHEMA_VERSION, csv_text, json_text

CONFIG, PQ = SchurerConfig(n=20, ell=1), PQPair(0.95, 0.9)


@functools.lru_cache(maxsize=None)
def _build(name: str):
    if name == "moments":
        return run_moments(SchurerConfig(n=6, ell=2), PQPair(0.9, 0.8), grid_size=21)
    if name == "t33":
        return run_bounds("t33", CONFIG, PQ, "holder_half", grid_size=21)
    if name in ("t32", "t34"):
        return run_bounds(name, CONFIG, PQ, "f_fig", grid_size=21)
    if name == "t34_degenerate":
        # e1 at p = 0.9: where the transcribed alpha_n meets x the ratio is undefined
        return run_bounds("t34", SchurerConfig(n=10, ell=1), PQPair(0.9, 0.8), "e1", grid_size=101)
    if name == "korovkin":
        return run_korovkin(schedule("classic"), [8, 16, 32, 64, 128], grid_size=21)
    return run_figure(grid_size=21)


WITH_ROWS = ("moments", "t32", "t33", "t34", "t34_degenerate", "korovkin")


@pytest.fixture(params=(*WITH_ROWS, "figure"))
def report(request):
    return _build(request.param)


def _doc(report) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": report.kind, **report.json_fields()}


def _with_value(report, value: float):
    """A copy of report with value in one cell of its table."""
    if isinstance(report, FigureTable):
        f_values = report.f_values.copy()
        f_values[1] = value
        return replace(report, f_values=f_values)
    first, *rest = report.rows
    if isinstance(report, KorovkinResult):
        bad = replace(first, sup_errors={**first.sup_errors, "e1": value})
    elif report.kind == "bound_report":
        # a column that is all float (t34), float or None (degenerate t34) or all None
        bad = replace(first, ratio_t34=value)
    else:
        bad = replace(first, closed_c2=value)
    return replace(report, rows=(bad, *rest))


def _strip(line: str) -> str:
    return line[:-1] if line.endswith(",") else line


class TestReportEquivalence:
    def test_json_parses_equal_to_the_indented_dump(self, report):
        old = json.dumps(_doc(report), indent=2, allow_nan=False) + "\n"
        assert json.loads(report.to_json_text()) == json.loads(old)

    def test_csv_matches_the_per_cell_writer(self, report):
        expected = csv_text_per_cell(report.csv_columns, report.csv_rows())
        assert report.to_csv_text() == expected

    def test_degenerate_t34_has_undefined_ratios(self):
        report = _build("t34_degenerate")
        assert report.extras["degenerate_rows"] > 0
        ratios = {type(r.ratio_t34) for r in report.rows}
        assert ratios == {float, type(None)}


class TestJsonLayout:
    def test_fields_are_indented(self, report):
        lines = report.to_json_text().splitlines()
        assert lines[:3] == ["{", '  "schema_version": "1",', f'  "kind": "{report.kind}",']
        assert lines[-1] == "}"
        assert report.to_json_text().endswith("}\n")

    @pytest.mark.parametrize("name", WITH_ROWS)
    def test_one_row_per_line(self, name):
        report = _build(name)
        doc = _doc(report)
        lines = report.to_json_text().splitlines()
        start = lines.index('  "rows": [') + 1
        row_lines = lines[start : start + len(doc["rows"])]
        assert lines[start + len(doc["rows"])] == "  ]"
        assert all(line.startswith("    {") for line in row_lines)
        assert [json.loads(_strip(line)) for line in row_lines] == doc["rows"]

    def test_number_arrays_on_one_line(self):
        table = _build("figure")
        lines = table.to_json_text().splitlines()
        arrays = {
            "x": table.xs.tolist(),
            "f": table.f_values.tolist(),
            **{label: col.tolist() for label, col in table.columns},
        }
        for key, values in arrays.items():
            (line,) = [line for line in lines if line.lstrip().startswith(f'"{key}": [')]
            assert json.loads("{" + _strip(line) + "}") == {key: values}
        # the (p, q, n) triples: one per line
        start = lines.index('  "params": [') + 1
        triples = [json.loads(_strip(line)) for line in lines[start : start + len(table.params)]]
        assert triples == [list(t) for t in table.params]

    def test_strings_that_look_like_row_boundaries(self):
        rows = [{"tag": "}, {"}, {"tag": "a"}, {"tag": "], ["}]
        lines = json_text({"kind": "k", "rows": rows, "params": [[1, "], ["], [2]]}).splitlines()
        assert [json.loads(_strip(line)) for line in lines[3:6]] == rows
        assert [json.loads(_strip(line)) for line in lines[8:10]] == [[1, "], ["], [2]]

    def test_empty_containers_and_mixed_lists(self):
        doc = {"rows": [], "extras": {}, "mixed": [1, {"a": [2.5]}, None]}
        text = json_text(doc)
        assert json.loads(text) == doc
        assert '  "rows": [],' in text and '  "extras": {},' in text
        assert '    {"a": [2.5]},' in text

    def test_rejects_keys_that_are_not_strings(self):
        with pytest.raises(TypeError):
            json_text({"extras": {1: 2.0}})


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_both_writers_reject_a_non_finite_cell(self, report, value):
        bad = _with_value(report, value)
        with pytest.raises(ValueError):
            bad.to_json_text()
        with pytest.raises(ValueError):
            bad.to_csv_text()

    def test_csv_text_rejects_non_finite_floats(self):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [(math.nan, math.inf)])
        with pytest.raises(ValueError):
            csv_text(("a",), [(None,), (math.inf,)])

    def test_json_rejects_a_non_finite_field(self):
        with pytest.raises(ValueError):
            json_text({"kind": "k", "slack": math.nan})

    def test_failed_write_leaves_no_files(self, tmp_path):
        report = _build("t32")
        with pytest.raises(ValueError):
            _with_value(report, math.nan).write(str(tmp_path / "rows"))
        # slack is a JSON field only: the CSV alone would have been written
        with pytest.raises(ValueError):
            replace(report, slack=math.nan).write(str(tmp_path / "doc"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", [False, True])
    def test_cli_exits_two_and_writes_nothing(self, out, tmp_path, capsys, monkeypatch):
        bad = _with_value(_build("figure"), math.nan)
        monkeypatch.setattr(cli, "run_figure", lambda *args, **kwargs: bad)
        argv = ["figure"] + (["--out", str(tmp_path / "fig")] if out else [])
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
    st.integers(),
)


class TestCsvColumns:
    @given(
        st.integers(1, 5).flatmap(
            lambda width: st.lists(
                st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * width),
                max_size=8,
            )
        )
    )
    def test_float_columns_match_per_cell(self, rows):
        columns = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
        assert csv_text(columns, rows) == csv_text_per_cell(columns, rows)

    @given(st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=8))
    def test_mixed_columns_match_per_cell(self, rows):
        columns = ("a", "b", "c")
        assert csv_text(columns, rows) == csv_text_per_cell(columns, rows)

    def test_edge_floats_and_none_columns(self):
        rows = [
            (0.0, -0.0, 5e-324, None, 1.7976931348623157e308),
            (0.1, 1e16, -2.5e-5, None, 123456789.0),
        ]
        columns = ("a", "b", "c", "d", "e")
        assert csv_text(columns, rows) == csv_text_per_cell(columns, rows)
        assert csv_text(("a", "b"), [(None, None)] * 2) == "a,b\n,\n,\n"
        assert csv_text(("a", "b"), []) == "a,b\n"
