#!/usr/bin/env python3
"""Compare two BENCH_*.json files written by bench_scaling.py, stage by stage.

    python3 scripts/compare_bench.py BASE.json NEW.json

Prints one line per stage found in both files: the two median times, their
ratio NEW/BASE, the ratio of their fastest calls where both files give them
(min_s; older files do not), and each side's spread as a share of its own
median, so a ratio can be read against the noise of both runs.  A stage's
spread is the range of its process medians where it ran in several
processes (spread_s), else its interquartile range (q3_s - q1_s).  The peak
RSS figures follow, with no spread.  Stages on one side only are listed at
the end.  Exits 0; it judges nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# the fields that tell one case from another (a degree case has no "case" field)
CASE_FIELDS = ("n", "grid", "points", "p", "q", "tol")


def case_name(case: dict) -> str:
    fields = " ".join(f"{key}={case[key]:.6g}" for key in CASE_FIELDS if key in case)
    return f"{case.get('case', 'degree')} {fields}"


def spread(stage: dict) -> float:
    if "spread_s" in stage:
        return stage["spread_s"]
    return stage["q3_s"] - stage["q1_s"]


def figures(bench: dict) -> tuple[dict, dict]:
    """(stage name -> (median, spread, min or None)), (peak RSS name -> MB) of one file."""
    stages, rss = {}, {"import_peak_rss_mb": bench["import_peak_rss_mb"]}
    for case in bench["cases"]:
        name = case_name(case)
        for stage, timing in case["stages"].items():
            stages[f"{name} {stage}"] = (timing["median_s"], spread(timing), timing.get("min_s"))
        if "peak_rss_mb" in case:
            rss[f"{name} peak_rss_mb"] = case["peak_rss_mb"]
    return stages, rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", type=Path, help="the BENCH_*.json to compare against")
    parser.add_argument("new", type=Path, help="the BENCH_*.json to compare")
    args = parser.parse_args(argv)
    (base, base_rss), (new, new_rss) = (
        figures(json.loads(path.read_text(encoding="utf-8"))) for path in (args.base, args.new)
    )
    width = max(map(len, [*base, *base_rss]), default=0)
    print(f"{'stage':<{width}}  {'base_s':>10}  {'new_s':>10}  {'ratio':>6}  {'min_ratio':>9}  "
          f"{'base_spread':>11}  {'new_spread':>10}")
    for name in [n for n in base if n in new]:
        (b, b_spread, b_min), (c, c_spread, c_min) = base[name], new[name]
        min_ratio = f"{c_min / b_min:9.3f}" if b_min and c_min else " " * 9
        print(f"{name:<{width}}  {b:10.3e}  {c:10.3e}  {c / b:6.3f}  {min_ratio}  "
              f"{b_spread / b:11.1%}  {c_spread / c:10.1%}")
    for name in [n for n in base_rss if n in new_rss]:
        b, c = base_rss[name], new_rss[name]
        print(f"{name:<{width}}  {b:10.1f}  {c:10.1f}  {c / b:6.3f}")
    for side, mine, other in (("base", base, new), ("new", new, base)):
        for name in mine:
            if name not in other:
                print(f"only in {side}: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
