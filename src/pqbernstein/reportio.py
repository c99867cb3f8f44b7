"""The one serializer behind every report type.

A report is its document fields plus one table, ``columns``: an ordered
mapping from CSV column name to the list of that column's cells.  Each cell
becomes text once, in ``cell_texts``: a float its shortest round-trip
``repr`` (``0.1``, ``1e-05``), an int its digits, a bool ``true``/``false``,
None the empty text.  The CSV is those texts, comma-separated under a header
row, LF-ended.  The JSON ``rows`` lay the same texts out by a template that
maps JSON keys to column names or to nested templates (groups such as
``oracle``); a None cell leaves a top-level row and stays null in a group.
JSON documents start with ``schema_version`` and ``kind``, carry no
timestamps, indent fields by two spaces and write a list of dicts, lists or
rows one element per line.  Both formats reject NaN and infinity.

The texts of an all-finite float column of SHORTEST_KEPT to LONGEST_KEPT
cells are also kept across reports, in one functools.lru_cache of 16
columns (_float_texts, at most about 185 KB), keyed on the column's float64
bytes, never on float equality (0.0 == -0.0 but their texts differ).  A
theorems bundle at G = 101 formats 22 distinct float columns of 101 cells,
and its reports share the x grid, delta_n and the error of f_fig.  Shorter
columns come from per-degree tables (a Korovkin run's), which do not repeat,
and keying a 5-cell column costs 30-60% of formatting it (timeit, 2-vCPU
Xeon).
"""

from __future__ import annotations

import json
import math
import os
import struct
from functools import cached_property, lru_cache
from typing import Mapping

SCHEMA_VERSION = "1"

_encode = json.JSONEncoder(allow_nan=False).encode


class JsonText(str):
    """JSON text that json_text writes as it stands."""


def _cell_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r} in a report table")
    return float.__repr__(v)


# a kept cell is 8 bytes of key, an 8-byte tuple slot and a text of at most
# 24 characters (73 bytes): 16 columns of LONGEST_KEPT cells hold about 185 KB
SHORTEST_KEPT, LONGEST_KEPT = 16, 128


def _float_column(cells) -> list[str]:
    """The texts of a column of floats; a non-finite one raises ValueError."""
    if all(map(math.isfinite, cells)):
        return list(map(float.__repr__, cells))
    return list(map(_cell_text, cells))  # raises at the first non-finite cell


@lru_cache(maxsize=16)
def _float_texts(key: bytes) -> tuple[str, ...]:
    """_float_column of the floats packed in key; a column that raises is not kept."""
    return tuple(_float_column(struct.unpack(f"{len(key) // 8}d", key)))


def cell_texts(columns: Mapping[str, list]) -> dict[str, list[str]]:
    """Each column's cells as the text both formats write, None as ""."""
    texts = {}
    for name, cells in columns.items():
        kinds = set(map(type, cells))
        if kinds == {type(None)}:  # a column a report leaves out
            texts[name] = [""] * len(cells)
        elif kinds != {float}:
            texts[name] = list(map(_cell_text, cells))
        elif SHORTEST_KEPT <= len(cells) <= LONGEST_KEPT:
            texts[name] = list(_float_texts(struct.pack(f"{len(cells)}d", *cells)))
        else:
            texts[name] = _float_column(cells)
    return texts


def csv_text(texts: Mapping[str, list[str]]) -> str:
    return "\n".join([",".join(texts), *map(",".join, zip(*texts.values())), ""])


def _nulls(texts: list[str]) -> list[str]:
    return [t or "null" for t in texts] if "" in texts else texts


def json_array(texts: list[str]) -> JsonText:
    """One column as a compact JSON array; a None cell is null."""
    return JsonText("[" + ", ".join(_nulls(texts)) + "]")


def _layout(template: Mapping, texts: Mapping[str, list[str]], nested: bool = False):
    """The %-format of a JSON object laid out by template, and the texts it takes in order."""
    parts, columns = [], []
    for key, value in template.items():
        if isinstance(value, str):
            # a nested group keeps a None cell as null
            value, inner = "%s", [_nulls(texts[value]) if nested else texts[value]]
        else:
            value, inner = _layout(value, texts, True)
        parts.append(_encode(key).replace("%", "%%") + ": " + value)
        columns += inner
    return "{" + ", ".join(parts) + "}", columns


def json_rows(template: Mapping, texts: Mapping[str, list[str]]) -> list[JsonText]:
    """The table's rows as JSON texts laid out by template, by the None rule above."""
    # an all-None column leaves the template once instead of every row
    top = {k: v for k, v in template.items() if not isinstance(v, str) or any(texts[v])} or template
    row_format, columns = _layout(top, texts)
    rows = list(map(row_format.__mod__, zip(*columns)))
    # any other top-level None cell leaves its own row (each row, if no key is left)
    partial = [texts[v] for v in top.values() if isinstance(v, str) and "" in texts[v]]
    for i in {i for cells in partial for i, text in enumerate(cells) if not text}:
        kept = {k: v for k, v in top.items() if not isinstance(v, str) or texts[v][i]}
        row_format, columns = _layout(kept, texts)
        rows[i] = row_format % tuple(cells[i] for cells in columns)
    return list(map(JsonText, rows))


def _compact(value) -> str:
    return value if isinstance(value, JsonText) else _encode(value)


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
    if isinstance(value, list) and set(map(type, value)) & {dict, list, JsonText}:
        return "[\n" + inner + (",\n" + inner).join(map(_compact, value)) + "\n" + pad + "]"
    return _compact(value)


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
    ``json_fields()``, the JSON document after ``kind``.  The cell texts are
    made on first use and kept, so the table is not to change after that.
    """

    kind: str
    columns: dict[str, list]

    @cached_property
    def texts(self) -> dict[str, list[str]]:
        return cell_texts(self.columns)

    def to_csv_text(self) -> str:
        return csv_text(self.texts)

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
