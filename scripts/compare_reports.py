#!/usr/bin/env python3
"""Compare two report directories written by reproduce_all.py, cell by cell.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR [--max-abs 1e-12]

Every file in either directory is read.  Numbers are compared by absolute
difference and grouped into columns: a CSV column (`korovkin_classic.csv:
sup_err_e1`), a JSON key path with list indices dropped
(`moments_p09.json:rows[].oracle.c2`), or a line of a text file
(`selftest.txt:3`).  A boolean or verdict word (true/false, PASS/FAIL) that
differs is a flip.  Any other difference (a file present on one side only, a
changed header, shape or string) is a mismatch.

Prints the largest drift of every column that moved, then the counts.  Exits
1 on any flip or mismatch or on a drift above --max-abs, else 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

VERDICT_WORDS = {"true", "false", "PASS", "FAIL"}
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


class Comparison:
    def __init__(self) -> None:
        self.drift: dict[str, float] = {}
        self.cells = 0
        self.flips: list[str] = []
        self.mismatches: list[str] = []

    def number(self, column: str, a: float, b: float) -> None:
        self.cells += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            d = 0.0
        else:
            d = abs(a - b)
            if math.isnan(d):
                d = math.inf
        self.drift[column] = max(self.drift.get(column, 0.0), d)

    def value(self, column: str, a, b) -> None:
        """One JSON value, or one CSV cell after `_cell`."""
        if isinstance(a, bool) or isinstance(b, bool):
            if isinstance(a, bool) and isinstance(b, bool):
                self.cells += 1
                if a != b:
                    self.flips.append(f"{column}: {a} -> {b}")
            else:
                self.mismatches.append(f"{column}: {a!r} -> {b!r}")
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            self.number(column, float(a), float(b))
        elif a != b:
            self.mismatches.append(f"{column}: {a!r} -> {b!r}")


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(cmp: Comparison, name: str, old: str, new: str) -> None:
    rows_a = list(csv.reader(old.splitlines()))
    rows_b = list(csv.reader(new.splitlines()))
    if not rows_a or rows_a[0] != (rows_b[0] if rows_b else None):
        cmp.mismatches.append(f"{name}: header differs")
        return
    if len(rows_a) != len(rows_b):
        cmp.mismatches.append(f"{name}: {len(rows_a)} lines -> {len(rows_b)}")
        return
    header = rows_a[0]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if len(ra) != len(header) or len(rb) != len(header):
            cmp.mismatches.append(f"{name}:{i}: row width differs from the header")
            continue
        for column, a, b in zip(header, ra, rb):
            cmp.value(f"{name}:{column}", _cell(a), _cell(b))


def compare_json(cmp: Comparison, path: str, a, b) -> None:
    """`path` is the file name, a colon, then the keys so far joined by dots."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            cmp.mismatches.append(f"{path}: keys {sorted(a)} -> {sorted(b)}")
        sep = "" if path.endswith(":") else "."
        for key in sorted(a.keys() & b.keys()):
            compare_json(cmp, f"{path}{sep}{key}", a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            cmp.mismatches.append(f"{path}: length {len(a)} -> {len(b)}")
            return
        for va, vb in zip(a, b):
            compare_json(cmp, path + "[]", va, vb)
    else:
        cmp.value(path, a, b)


def compare_text(cmp: Comparison, name: str, old: str, new: str) -> None:
    lines_a, lines_b = old.splitlines(), new.splitlines()
    if len(lines_a) != len(lines_b):
        cmp.mismatches.append(f"{name}: {len(lines_a)} lines -> {len(lines_b)}")
        return
    for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        column = f"{name}:{i}"
        # re.split with a group alternates text (even) and numbers (odd)
        parts_a, parts_b = NUMBER.split(la), NUMBER.split(lb)
        if len(parts_a) != len(parts_b):
            cmp.mismatches.append(f"{column}: {la!r} -> {lb!r}")
            continue
        for j, (pa, pb) in enumerate(zip(parts_a, parts_b)):
            if j % 2:
                cmp.number(column, float(pa), float(pb))
                continue
            if pa == pb:
                continue
            words_a, words_b = pa.split(), pb.split()
            changed = [(wa, wb) for wa, wb in zip(words_a, words_b) if wa != wb]
            if (
                len(words_a) == len(words_b)
                and changed
                and all(wa in VERDICT_WORDS and wb in VERDICT_WORDS for wa, wb in changed)
            ):
                cmp.flips.extend(f"{column}: {wa} -> {wb}" for wa, wb in changed)
            else:
                cmp.mismatches.append(f"{column}: {la!r} -> {lb!r}")


def compare_dirs(old: Path, new: Path) -> Comparison:
    cmp = Comparison()
    names_a = {p.relative_to(old).as_posix() for p in old.rglob("*") if p.is_file()}
    names_b = {p.relative_to(new).as_posix() for p in new.rglob("*") if p.is_file()}
    for name in sorted(names_a ^ names_b):
        side = "old" if name in names_a else "new"
        cmp.mismatches.append(f"{name}: only in the {side} directory")
    for name in sorted(names_a & names_b):
        text_a = (old / name).read_text(encoding="utf-8")
        text_b = (new / name).read_text(encoding="utf-8")
        if name.endswith(".csv"):
            compare_csv(cmp, name, text_a, text_b)
        elif name.endswith(".json"):
            compare_json(cmp, f"{name}:", json.loads(text_a), json.loads(text_b))
        else:
            compare_text(cmp, name, text_a, text_b)
    return cmp


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="report directory of the reference run")
    parser.add_argument("new", type=Path, help="report directory to check against it")
    parser.add_argument(
        "--max-abs", type=float, default=1e-12, help="largest allowed absolute drift (default 1e-12)"
    )
    args = parser.parse_args(argv)
    for directory in (args.old, args.new):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")

    cmp = compare_dirs(args.old, args.new)
    moved = sorted(((d, c) for c, d in cmp.drift.items() if d > 0.0), reverse=True)
    print(f"{cmp.cells} cells in {len(cmp.drift)} numeric columns")
    if moved:
        print("largest absolute drift per column:")
        for d, column in moved:
            print(f"  {d:.3e}  {column}")
    print(f"{len(cmp.drift) - len(moved)} numeric columns identical")
    for kind, items in (("flip", cmp.flips), ("mismatch", cmp.mismatches)):
        for item in items:
            print(f"{kind}: {item}")
    worst = moved[0][0] if moved else 0.0
    verdict = worst <= args.max_abs and not cmp.flips and not cmp.mismatches
    print(
        f"max drift {worst:.3e} (limit {args.max_abs:g}), {len(cmp.flips)} flips, "
        f"{len(cmp.mismatches)} mismatches: {'OK' if verdict else 'FAIL'}"
    )
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
