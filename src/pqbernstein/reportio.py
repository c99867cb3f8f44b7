"""The one serializer behind every report type.

A report is its document fields plus one table, ``columns``: an ordered
mapping from CSV column name to the list of that column's cells.  The CSV is
that table; the JSON ``rows`` are the same table laid out by a template that
maps each JSON key to a column name or to a nested template (a group such as
``oracle`` or ``sup_errors``).  One rule covers None: a None cell is left out
of a top-level row and kept as null inside a nested group.

CSV dialect: comma separator, '.' decimal, up to 17 significant digits,
LF line endings, mandatory header row; None is an empty cell.  Each column
is formatted with one format: a column of plain floats goes through
``%.17g`` as a whole, an all-None column is literal empty cells, and any
other column goes cell by cell through ``fmt_float``.

JSON documents start with ``schema_version`` and ``kind`` and carry no
timestamps.  Their fields are indented by two spaces.  A list that holds
dicts or lists, such as a report's ``rows``, is written one compact element
per line; any other list, such as the figure's number arrays ``x``, ``f``
and each entry of ``columns``, on one compact line.  The compact parts come
from one reused C encoder, one call per list.

Both formats reject NaN and infinity with ValueError, so identical inputs
give byte-identical, strictly valid files.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping, Sequence

SCHEMA_VERSION = "1"

_encode = json.JSONEncoder(allow_nan=False).encode


def fmt_float(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r} in CSV output")
    return f"{v:.17g}"


def _all_none(cells: list) -> bool:
    # the first cell settles most columns without a scan
    return not cells or (cells[0] is None and cells.count(None) == len(cells))


def _column_format(cells: list) -> tuple[str, Sequence | None]:
    """The %-format of one CSV column and the values it substitutes (None: none)."""
    if set(map(type, cells)) == {float}:
        if not all(map(math.isfinite, cells)):
            raise ValueError("non-finite value in CSV output")
        return "%.17g", cells
    if _all_none(cells):
        return "", None
    return "%s", list(map(fmt_float, cells))


def csv_text(columns: Mapping[str, list]) -> str:
    lines = [",".join(columns)]
    formats, values = zip(*map(_column_format, columns.values()))
    values = [v for v in values if v is not None]
    rows = zip(*values) if values else [()] * len(next(iter(columns.values())))
    lines += map(",".join(formats).__mod__, rows)
    return "\n".join(lines) + "\n"


def json_rows(template: Mapping, columns: Mapping[str, list]) -> list[dict]:
    """The table's rows as JSON objects laid out by template, by the None rule above."""

    def group(template: Mapping, keep_none: bool) -> list[dict]:
        keys = tuple(template)
        cells = [columns[v] if isinstance(v, str) else group(v, True) for v in template.values()]
        return [
            {key: cell for key, cell in zip(keys, row) if keep_none or cell is not None}
            for row in zip(*cells)
        ]

    # an all-None column leaves the template once instead of every row; a
    # template of nothing else keeps its rows, each one empty
    top = {k: v for k, v in template.items() if not isinstance(v, str) or not _all_none(columns[v])}
    return group(top or template, False)


def _element_lines(items: list, kinds: set, pad: str) -> str:
    """The elements of items as compact JSON, joined by a comma, newline and pad."""
    text = _encode(items)[1:-1]
    for kind, boundary in ((dict, "}, {"), (list, "], [")):
        # one boundary between each pair of elements and none inside one
        if kinds == {kind} and text.count(boundary) == len(items) - 1:
            return text.replace(boundary, boundary[0] + ",\n" + pad + boundary[-1])
    return (",\n" + pad).join(map(_encode, items))


def _json_value(value, pad: str) -> str:
    """value as JSON text whose continuation lines start with pad."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        fields = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, got {key!r}")
            fields.append(f"{inner}{_encode(key)}: {_json_value(item, inner)}")
        return "{\n" + ",\n".join(fields) + "\n" + pad + "}"
    if isinstance(value, list):
        kinds = set(map(type, value))
        if kinds & {dict, list}:
            return "[\n" + inner + _element_lines(value, kinds, inner) + "\n" + pad + "]"
    return _encode(value)


def json_text(doc: dict) -> str:
    return _json_value(doc, "") + "\n"


def config_block(config, pq) -> dict:
    """The operator's indices and parameters as the reports record them."""
    return {
        "config": {
            "n": config.n,
            "ell": config.ell,
            "basis_variant": config.basis_variant.value,
            "quad_tol": config.quad_tol,
        },
        "pq": {"p": pq.p, "q": pq.q},
    }


def write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


class Report:
    """A table of named columns plus document fields, written as CSV and as JSON.

    Subclasses set ``kind``, hold the table as ``columns`` and define
    ``json_fields()``, the JSON document after ``kind``.
    """

    kind: str
    columns: dict[str, list]

    def to_csv_text(self) -> str:
        return csv_text(self.columns)

    def to_json_text(self) -> str:
        return json_text(
            {"schema_version": SCHEMA_VERSION, "kind": self.kind, **self.json_fields()}
        )

    def write(self, base_path: str) -> tuple[str, str]:
        """Write base_path.csv and base_path.json; returns both paths.

        Both texts are built first, so a value either format rejects leaves
        no file behind.
        """
        csv_path, json_path = base_path + ".csv", base_path + ".json"
        csv_out, json_out = self.to_csv_text(), self.to_json_text()
        write_text(csv_path, csv_out)
        write_text(json_path, json_out)
        return csv_path, json_path
