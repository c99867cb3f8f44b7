"""The one serializer behind every report type.

CSV dialect: comma separator, '.' decimal, up to 17 significant digits,
LF line endings, mandatory header row; None is an empty cell.  JSON
documents start with ``schema_version`` and ``kind``, carry no timestamps
and admit no NaN or infinity, so identical inputs give byte-identical,
strictly valid files.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

SCHEMA_VERSION = "1"


def fmt_float(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(columns)]
    lines += [",".join(map(fmt_float, row)) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
    """A table of rows plus document fields, written as CSV and as JSON.

    Subclasses set ``kind`` and ``csv_columns`` and define ``csv_rows()``,
    the cells of each row in column order, and ``json_fields()``, the JSON
    document after ``kind``.
    """

    kind: str
    csv_columns: Sequence[str]

    def to_csv_text(self) -> str:
        return csv_text(self.csv_columns, self.csv_rows())

    def to_json_text(self) -> str:
        return json_text(
            {"schema_version": SCHEMA_VERSION, "kind": self.kind, **self.json_fields()}
        )

    def write(self, base_path: str) -> tuple[str, str]:
        """Write base_path.csv and base_path.json; returns both paths."""
        csv_path, json_path = base_path + ".csv", base_path + ".json"
        write_text(csv_path, self.to_csv_text())
        write_text(json_path, self.to_json_text())
        return csv_path, json_path
