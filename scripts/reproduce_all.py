#!/usr/bin/env python3
"""Regenerate every report the toolkit produces into one output directory.

Covers the selftest matrix, the Korovkin convergence table along both built-in
schedules, moment reports (a p<1 case that trips the closed-form discrepancy
flag and a p=1 case that does not), all three bound checks, and the figure
data at two Schurer shifts.  Every file is deterministic; rerunning overwrites
with byte-identical content.
"""

import argparse
import sys

from pqbernstein import PQPair, SchurerConfig
from pqbernstein.experiments import (
    run_bounds,
    run_figure,
    run_korovkin,
    run_moments,
    run_selftest,
    schedule,
)
from pqbernstein.reportio import write_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for the reports")
    args = parser.parse_args()
    out = args.outdir.rstrip("/")

    print("== selftest ==")
    selftest = run_selftest()
    sys.stdout.write(selftest.matrix_text())
    write_text(f"{out}/selftest.txt", selftest.matrix_text())

    failures = 0 if selftest.all_passed else 1

    for name in ("classic", "q-only"):
        print(f"== korovkin [{name}] ==")
        result = run_korovkin(schedule(name), [8, 16, 32, 64, 128], ell=0, grid_size=101)
        result.write(f"{out}/korovkin_{name}")
        last = {key: cells[-1] for key, cells in result.columns.items()}
        print(f"   converged={result.converged}, sup errors at n=128: "
              f"e1={last['sup_err_e1']:.3e}, e2={last['sup_err_e2']:.3e}, "
              f"f_fig={last['sup_err_f_fig']:.3e}")
        failures += 0 if result.all_passed else 1

    print("== moments ==")
    for tag, config, pq in (
        ("p09", SchurerConfig(n=6, ell=2), PQPair(0.9, 0.8)),
        ("p1_degree1", SchurerConfig(n=1, ell=0, quad_tol=1e-12), PQPair(1.0, 0.9)),
    ):
        report = run_moments(config, pq, grid_size=101)
        report.write(f"{out}/moments_{tag}")
        print(f"   {tag}: discrepancy flag={report.flagged}, "
              f"max closed-vs-oracle diff={report.max_abs_diff_overall:.3e}")

    print("== bounds ==")
    config, pq = SchurerConfig(n=20, ell=1), PQPair(0.95, 0.9)
    for theorem, fname in (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig")):
        report = run_bounds(theorem, config, pq, function_name=fname, grid_size=101)
        report.write(f"{out}/bounds_{theorem}_{fname}")
        print(f"   {theorem} on {fname}: all_passed={report.all_passed}")
        failures += 0 if report.all_passed else 1

    print("== figure ==")
    for ell in (0, 2):
        run_figure(ell=ell, grid_size=101).write(f"{out}/figure_ell{ell}")
    print("   wrote figure data for ell in (0, 2)")

    print(f"done: reports in {out}/ ({failures} failing checks)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
