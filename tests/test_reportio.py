"""The report writers: layout, equivalence with the plain writers, strictness."""

import functools
import json
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import csv_text_per_cell, json_rows_per_row, json_text_by_encoder, report_json_doc
from pqbernstein import clear_all, cli, reportio
from pqbernstein.experiments import (
    run_bounds,
    run_figure,
    run_korovkin,
    run_moments,
    schedule,
)
from pqbernstein.operator_eval import SchurerConfig
from pqbernstein.pq_core import PQPair
from pqbernstein.reportio import (
    SCHEMA_VERSION,
    Report,
    cell_texts,
    csv_text,
    json_rows,
    json_text,
)

CONFIG, PQ = SchurerConfig(n=20, ell=1), PQPair(0.95, 0.9)

CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
    st.integers(),
)

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


def _csv(columns) -> str:
    return csv_text(cell_texts(columns))


# the cell _with_value replaces, by kind; the bound reports' ratio_t34 column
# is all float (t34), float or None (degenerate t34) or all None (t32, t33)
BAD_CELL = {
    "figure_data": ("f", 1),
    "korovkin_run": ("sup_err_e1", 0),
    "bound_report": ("ratio_t34", 0),
    "moment_report": ("closed_c2", 0),
}


def _with_value(report, value: float):
    """A copy of report with value in one cell of its table."""
    name, row = BAD_CELL[report.kind]
    cells = list(report.columns[name])
    cells[row] = value
    return replace(report, columns={**report.columns, name: cells})


def _columns(names, rows) -> dict:
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _pairs(obj: dict) -> list:
    """obj's items in order, nested objects as item lists too."""
    return [(k, _pairs(v) if isinstance(v, dict) else v) for k, v in obj.items()]


# JSON row keys of each bound report, in order; a None cell is left out
BOUND_ROW_KEYS = {
    "t32": ("x", "error", "delta_n", "passed", "bound_t32"),
    "t33": ("x", "error", "delta_n", "passed", "bound_t33"),
    "t34": (
        "x", "error", "delta_n", "passed",
        "alpha_n", "a_n", "c_n", "omega2_term", "omega_term", "ratio_t34",
    ),
}


def _expected_rows(name: str, c: dict) -> list[list]:
    """Each JSON row of report name as (key, value) pairs, written out by hand."""
    if name == "korovkin":
        return [
            [
                ("n", c["n"][i]),
                ("p", c["p"][i]),
                ("q", c["q"][i]),
                ("sup_errors", [
                    ("e0", c["sup_err_e0"][i]),
                    ("e1", c["sup_err_e1"][i]),
                    ("e2", c["sup_err_e2"][i]),
                    ("f_fig", c["sup_err_f_fig"][i]),
                ]),
                ("decreasing", [
                    ("e1", c["decreasing_e1"][i]),
                    ("e2", c["decreasing_e2"][i]),
                    ("f_fig", c["decreasing_f_fig"][i]),
                ]),
            ]
            for i in range(len(c["n"]))
        ]
    if name == "moments":
        return [
            [
                ("x", c["x"][i]),
                ("oracle", [
                    ("m0", c["oracle_m0"][i]),
                    ("m1", c["oracle_m1"][i]),
                    ("m2", c["oracle_m2"][i]),
                    ("c1", c["oracle_c1"][i]),
                    ("c2", c["oracle_c2"][i]),
                ]),
                ("closed", [
                    ("m1", c["closed_m1"][i]),
                    ("m2", c["closed_m2"][i]),
                    ("c1", c["closed_c1"][i]),
                    ("c2", c["closed_c2"][i]),
                ]),
            ]
            for i in range(len(c["x"]))
        ]
    keys = BOUND_ROW_KEYS[name.removesuffix("_degenerate")]
    return [
        [(key, c[key][i]) for key in keys if c[key][i] is not None]
        for i in range(len(c["x"]))
    ]


class _Table(Report):
    """A bare report: the given columns, and JSON rows laid out by the given template."""

    kind = "table"

    def __init__(self, template: dict, columns: dict):
        self.template, self.columns = template, columns

    def json_fields(self) -> dict:
        return {"rows": json_rows(self.template, self.texts)}


def _table_rows(template: dict, columns: dict) -> list[dict]:
    """The rows of the JSON text written for columns laid out by template."""
    return json.loads(_Table(template, columns).to_json_text())["rows"]


def _strip(line: str) -> str:
    return line[:-1] if line.endswith(",") else line


class TestReportEquivalence:
    def test_json_parses_equal_to_the_indented_dump(self, report):
        old = json.dumps(report_json_doc(report), indent=2, allow_nan=False) + "\n"
        assert json.loads(report.to_json_text()) == json.loads(old)

    def test_json_matches_the_encoder_writer_byte_for_byte(self, report):
        assert report.to_json_text() == json_text_by_encoder(report_json_doc(report))

    def test_csv_float_cells_are_repr_and_read_back(self, report):
        header, *lines = report.to_csv_text().splitlines()
        assert header.split(",") == list(report.columns)
        texts = zip(*(line.split(",") for line in lines))
        for (name, cells), column_texts in zip(report.columns.items(), texts, strict=True):
            assert len(column_texts) == len(cells)
            for value, text in zip(cells, column_texts):
                if isinstance(value, float):
                    assert text == repr(value) and float(text) == value, name

    def test_csv_matches_the_per_cell_writer(self, report):
        expected = csv_text_per_cell(list(report.columns), zip(*report.columns.values()))
        assert report.to_csv_text() == expected

    def test_degenerate_t34_has_undefined_ratios(self):
        report = _build("t34_degenerate")
        assert report.extras["degenerate_rows"] > 0
        ratios = {type(ratio) for ratio in report.columns["ratio_t34"]}
        assert ratios == {float, type(None)}


class TestJsonRows:
    """Each kind's JSON rows against a layout written out here, key order included."""

    @pytest.mark.parametrize("name", WITH_ROWS)
    def test_rows_match_the_written_layout(self, name):
        report = _build(name)
        rows = json.loads(report.to_json_text())["rows"]
        assert [_pairs(row) for row in rows] == _expected_rows(name, report.columns)

    def test_bound_rows_drop_none_cells(self):
        for name in ("t32", "t33", "t34"):
            rows = json.loads(_build(name).to_json_text())["rows"]
            assert {tuple(row) for row in rows} == {BOUND_ROW_KEYS[name]}
        rows = json.loads(_build("t34_degenerate").to_json_text())["rows"]
        undefined = [row for row in rows if "ratio_t34" not in row]
        assert len(undefined) == _build("t34_degenerate").extras["degenerate_rows"]
        assert all(tuple(row) == BOUND_ROW_KEYS["t34"][:-1] for row in undefined)

    def test_all_none_columns_leave_top_level_rows_and_stay_null_in_groups(self):
        columns = {"x": [0.0, 0.5], "gone": [None, None], "some": [None, 1.0], "g": [None, None]}
        template = {"x": "x", "gone": "gone", "some": "some", "group": {"g": "g", "x": "x"}}
        assert _table_rows(template, columns) == [
            {"x": 0.0, "group": {"g": None, "x": 0.0}},
            {"x": 0.5, "some": 1.0, "group": {"g": None, "x": 0.5}},
        ]
        assert _table_rows({"a": "gone", "b": "g"}, columns) == [{}, {}]
        assert _table_rows({"a": "gone"}, {"gone": []}) == []

    @given(st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=6))
    def test_rows_match_the_per_row_writer(self, rows):
        columns = _columns(("a", "b", "c"), rows) if rows else {"a": [], "b": [], "c": []}
        for template in (
            {"a": "a", "b": "b", "c": "c"},
            {"c": "c", "group": {"b": "b", "a": "a"}},
            {"group": {"a": "a"}, "b": "b", "inner": {"c": "c", "deeper": {"b": "b"}}},
        ):
            doc = {"schema_version": SCHEMA_VERSION, "kind": "table"}
            doc["rows"] = json_rows_per_row(template, columns)
            assert _Table(template, columns).to_json_text() == json_text_by_encoder(doc)

    def test_korovkin_first_row_keeps_null_flags(self):
        first, *rest = json.loads(_build("korovkin").to_json_text())["rows"]
        assert first["decreasing"] == {"e1": None, "e2": None, "f_fig": None}
        assert all(None not in row["decreasing"].values() for row in rest)

    def test_moment_rows_leave_out_the_differences(self):
        report = _build("moments")
        row = json.loads(report.to_json_text())["rows"][0]
        assert [f"diff_{key}" in report.columns for key in row["closed"]] == [True] * 4
        assert list(row) == ["x", "oracle", "closed"]
        assert list(row["oracle"]) == ["m0", "m1", "m2", "c1", "c2"]
        assert list(row["closed"]) == ["m1", "m2", "c1", "c2"]

    def test_figure_arrays_are_its_columns(self):
        table = _build("figure")
        doc = json.loads(table.to_json_text())
        labels = ["K_p0.95_q0.9_n10", "K_p0.98_q0.95_n30", "K_p0.999_q0.99_n100"]
        assert list(doc)[-3:] == ["x", "f", "columns"]
        assert list(table.columns) == ["x", "f", *labels]
        assert doc["x"] == table.columns["x"] and doc["f"] == table.columns["f"]
        assert list(doc["columns"].items()) == [(label, table.columns[label]) for label in labels]


class TestJsonLayout:
    def test_fields_are_indented(self, report):
        lines = report.to_json_text().splitlines()
        assert lines[:3] == ["{", '  "schema_version": "1",', f'  "kind": "{report.kind}",']
        assert lines[-1] == "}"
        assert report.to_json_text().endswith("}\n")

    @pytest.mark.parametrize("name", WITH_ROWS)
    def test_one_row_per_line(self, name):
        report = _build(name)
        doc = report_json_doc(report)
        lines = report.to_json_text().splitlines()
        start = lines.index('  "rows": [') + 1
        row_lines = lines[start : start + len(doc["rows"])]
        assert lines[start + len(doc["rows"])] == "  ]"
        assert all(line.startswith("    {") for line in row_lines)
        assert [json.loads(_strip(line)) for line in row_lines] == doc["rows"]

    def test_number_arrays_on_one_line(self):
        table = _build("figure")
        lines = table.to_json_text().splitlines()
        for key, values in table.columns.items():
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
            _csv({"a": [math.nan], "b": [math.inf]})
        with pytest.raises(ValueError):
            _csv({"a": [None, math.inf]})

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
        names = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
        assert _csv(_columns(names, rows)) == csv_text_per_cell(names, rows)

    @given(st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=8))
    def test_mixed_columns_match_per_cell(self, rows):
        names = ("a", "b", "c")
        assert _csv(_columns(names, rows)) == csv_text_per_cell(names, rows)

    def test_edge_floats_and_none_columns(self):
        rows = [
            (0.0, -0.0, 5e-324, None, 1.7976931348623157e308),
            (0.1, 1e16, -2.5e-5, None, 123456789.0),
        ]
        names = ("a", "b", "c", "d", "e")
        assert _csv(_columns(names, rows)) == csv_text_per_cell(names, rows)
        assert _csv({"a": [None, None], "b": [None, None]}) == "a,b\n,\n,\n"
        assert _csv({"a": [], "b": []}) == "a,b\n"

    def test_an_all_none_column_is_not_formatted_cell_by_cell(self, monkeypatch):
        # t32 and t33 reports leave seven of their twelve columns out, t34 two
        monkeypatch.setattr(reportio, "_cell_text", lambda v: pytest.fail(f"formatted {v!r}"))
        assert cell_texts({"a": [None] * 3, "b": []}) == {"a": ["", "", ""], "b": []}


class TestFloatTextMemo:
    """Float columns' texts are kept across reports, under the bits of the column."""

    def test_a_negative_zero_column_after_a_zero_column_keeps_its_sign(self):
        # (0.0,) == (-0.0,): a key on float equality would write 0.0 twice
        clear_all()
        tail = [1.5] * 15
        for name, zero, text in (("a", 0.0, "0.0"), ("a", -0.0, "-0.0"), ("b", 0.0, "0.0")):
            assert cell_texts({name: [zero, *tail]}) == {name: [text] + ["1.5"] * 15}

    def test_a_repeated_column_is_formatted_once_into_fresh_lists(self):
        clear_all()
        column = [0.1, 2.0, -3e-7] * 6
        first = cell_texts({"a": column})["a"]
        first.append("changed")  # the caller's list, not the kept texts
        again = cell_texts({"b": list(column), "c": list(column)})
        assert again == {"b": ["0.1", "2.0", "-3e-07"] * 6, "c": ["0.1", "2.0", "-3e-07"] * 6}
        # one miss formats; the two hits format nothing: the texts are the same strings
        info = reportio._float_texts.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        assert all(a is b for a, b in zip(again["b"], again["c"]))
        assert again["b"] is not again["c"]

    def test_a_short_column_is_formatted_and_not_kept(self):
        clear_all()
        short = [0.25 * i for i in range(reportio.SHORTEST_KEPT - 1)]
        assert cell_texts({"a": short}) == {"a": list(map(repr, short))}
        assert reportio._float_texts.cache_info().currsize == 0
        with pytest.raises(ValueError, match="non-finite"):
            cell_texts({"a": [1.0, math.nan]})

    def test_a_column_too_long_to_keep_packs_no_key(self, monkeypatch):
        clear_all()
        column = [0.5 * i for i in range(reportio.LONGEST_KEPT + 1)]
        monkeypatch.setattr(reportio.struct, "pack", lambda *_: pytest.fail("packed a key"))
        assert cell_texts({"a": column}) == {"a": list(map(repr, column))}
        assert reportio._float_texts.cache_info().currsize == 0

    def test_a_non_finite_column_is_refused_and_not_kept(self):
        clear_all()
        for size in (20, reportio.LONGEST_KEPT + 1):  # a column the cache takes, and a longer one
            with pytest.raises(ValueError, match="non-finite value inf"):
                cell_texts({"a": [1.0] * (size - 1) + [math.inf]})
        assert reportio._float_texts.cache_info().currsize == 0

    @given(
        st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20), max_size=12),
        st.integers(0, 4),
        st.sampled_from(["cleared", 0, 1, 16]),
    )
    def test_texts_do_not_depend_on_what_was_kept(self, columns, shortest, kept):
        # a cache of no, one or sixteen columns, or one cleared before every call
        size = 16 if kept == "cleared" else kept
        cache = functools.lru_cache(maxsize=size)(reportio._float_texts.__wrapped__)
        with mock.patch.object(reportio, "_float_texts", cache), \
                mock.patch.object(reportio, "SHORTEST_KEPT", shortest):
            for cells in columns:
                if kept == "cleared":
                    cache.cache_clear()
                assert cell_texts({"a": cells}) == {"a": [float.__repr__(v) for v in cells]}
                assert cache.cache_info().currsize <= size
