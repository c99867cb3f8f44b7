#!/usr/bin/env python3
"""Time the operator's stages as the degree n and the grid size G grow.

    PYTHONPATH=src python3 scripts/bench_scaling.py --label NAME [--repeats 21]

Writes BENCH_NAME.json in --outdir (default: the current directory).  The
cases follow the classic schedule p = 1 - 1/(n+1)^2, q = 1 - 1/(n+1) at
n = 128, 512 and 1024 (K+1 = 2,982, 11,824 and 23,614 nodes at the default
tol 1e-10), with G = 101 and 1001 points for the grid stages.  Per n:

- build_rule: the K-node rule;
- gauss_rules: its Gauss rules, from a rule built beforehand;
- f_fig_means_cold: the f_fig integral means of a fresh operator entry, so
  the rule, the argument coefficients and the Gauss rules are included;

and per (n, G), with the operator's entry and means already kept:

- basis: the (G, N+1) basis matrix;
- apply_on_grid_warm: f_fig on the grid.

The build_rule_long cases time build_rule alone on two long rules: K+1 =
167,880 (p = 0.9999983126586219, q = 0.999787914476763, tol 4.55e-16) and
K+1 = 967,069 (p = 1, q = 1 - 1/28,000, tol 1e-15).

The theorems_bundle cases are one operator's check bundle, as the benchmark's
theorems workload serves it: the moment report and t32 (f_fig), t33
(holder_half) and t34 (f_fig) at G = 101, classic n = 16, 64 and 128.  Per n:

- compute: the four reports, from a cold operator cache;
- csv: to_csv_text of each report, fresh from compute;
- json: to_json_text of each report after its to_csv_text, the order in
  which the benchmark serializes.

Each stage reports the median and quartiles of --repeats timed calls, in
seconds.  peak_rss_mb is the peak resident size of a fresh child process
that imports the package and makes one cold f_fig apply_on_grid of the case;
import_peak_rss_mb is that of a child that only imports it.  A small
launcher process starts each child and reads its RUSAGE_CHILDREN: Linux
starts a child's peak at its parent's resident size, which for this script
grows with the cases already run.  Timings go into this file only.  Standard
library and NumPy only.
"""

from __future__ import annotations

import os

# One BLAS thread, as in benchmark/run.py: on a 2-vCPU host, waking OpenBLAS
# threads for the node moments of a cold operator (K+1 >= 10^4) cost about
# 14 ms against 0.1 ms on one thread, and how long they slept varied by run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pqbernstein import PQPair, SchurerConfig, run_bounds, run_moments
from pqbernstein.functions import make_function
from pqbernstein.operator_eval import (
    _Operator,
    _tables,
    apply_on_grid,
    basis_matrix,
    required_domain,
)
from pqbernstein.pq_quadrature import build_rule, gauss_rules

DEGREES = (128, 512, 1024)
GRID_SIZES = (101, 1001)
BUNDLE_DEGREES = (16, 64, 128)
BUNDLE_GRID = 101
BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))
LONG_RULES = (
    (0.9999983126586219, 0.999787914476763, 4.553867464572494e-16),
    (1.0, 1.0 - 1.0 / 28_000, 1e-15),
)

CHILD = """
import sys
import numpy as np
from pqbernstein import PQPair, SchurerConfig
from pqbernstein.functions import make_function
from pqbernstein.operator_eval import apply_on_grid, required_domain
n, g = int(sys.argv[1]), int(sys.argv[2])
if n:
    config, pq = SchurerConfig(n=n), PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))
    f = make_function("f_fig", *required_domain(config, pq))
    apply_on_grid(config, pq, f, np.linspace(0.0, 1.0, g))
"""


def classic(n: int) -> tuple[SchurerConfig, PQPair]:
    return SchurerConfig(n=n), PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))


def timed(call, repeats: int, fresh=None) -> dict:
    """Median and quartiles of repeats calls; fresh() makes each call's argument, untimed."""
    times = []
    for _ in range(repeats):
        arg = fresh() if fresh else None
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "repeats": repeats}


def theorems_bundle(n: int, repeats: int) -> dict:
    """Compute, CSV and JSON times of one operator's check bundle at classic n."""
    config, pq = classic(n)

    def compute(_=None) -> list:
        reports = [run_moments(config, pq, grid_size=BUNDLE_GRID)]
        for theorem, name in BUNDLE:
            reports.append(run_bounds(theorem, config, pq, name, grid_size=BUNDLE_GRID))
        return reports

    def after_csv() -> list:
        reports = compute()
        for report in reports:
            report.to_csv_text()
        return reports

    stages = {
        "compute": timed(compute, repeats, _tables.cache_clear),
        "csv": timed(lambda reports: [r.to_csv_text() for r in reports], repeats, compute),
        "json": timed(lambda reports: [r.to_json_text() for r in reports], repeats, after_csv),
    }
    return {"case": "theorems_bundle", "n": n, "grid": BUNDLE_GRID, "stages": stages}


LAUNCHER = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def peak_rss_mb(n: int, g: int) -> float:
    """Peak RSS of a fresh child making one cold f_fig apply_on_grid at (n, G); n = 0 only imports."""
    child = [sys.executable, "-c", CHILD, str(n), str(g)]
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *child], check=True, capture_output=True, text=True
    )
    return int(done.stdout) / 1024.0  # ru_maxrss is in kilobytes on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--outdir", default=".", help="directory for the output file")
    parser.add_argument("--repeats", type=int, default=21, help="timed calls per stage (>= 4)")
    args = parser.parse_args()
    if args.repeats < 4:
        parser.error("--repeats must be at least 4")

    cases = []
    for n in DEGREES:
        config, pq = classic(n)
        f = make_function("f_fig", *required_domain(config, pq))
        rule = build_rule(pq, config.quad_tol)
        stages = {
            "build_rule": timed(lambda _: build_rule(pq, config.quad_tol), args.repeats),
            "gauss_rules": timed(lambda _: gauss_rules(rule), args.repeats),
            "f_fig_means_cold": timed(
                lambda op: op.integral_means((f.fn,)), args.repeats, lambda: _Operator(config, pq)
            ),
        }
        cases.append({"n": n, "nodes": rule.nodes.size, "stages": stages})
        for g in GRID_SIZES:
            xs = np.linspace(0.0, 1.0, g)
            apply_on_grid(config, pq, f, xs)  # keep the entry and its means
            stages = {
                "basis": timed(lambda _: basis_matrix(config, pq, xs), args.repeats),
                "apply_on_grid_warm": timed(
                    lambda _: apply_on_grid(config, pq, f, xs), args.repeats
                ),
            }
            cases.append({"n": n, "grid": g, "stages": stages, "peak_rss_mb": peak_rss_mb(n, g)})
        print(f"n = {n}: done", file=sys.stderr)
    for p, q, tol in LONG_RULES:
        pq = PQPair(p, q)
        stages = {"build_rule": timed(lambda _: build_rule(pq, tol), args.repeats)}
        nodes = build_rule(pq, tol).nodes.size
        cases.append({"case": "build_rule_long", "p": p, "q": q, "tol": tol, "nodes": nodes,
                      "stages": stages})
    print("build_rule_long: done", file=sys.stderr)
    for n in BUNDLE_DEGREES:
        cases.append(theorems_bundle(n, args.repeats))
    print("theorems_bundle: done", file=sys.stderr)

    out = {
        "label": args.label,
        "schedule": "classic: p = 1 - 1/(n+1)^2, q = 1 - 1/(n+1), ell = 0, tol 1e-10",
        "host": {
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "import_peak_rss_mb": peak_rss_mb(0, 0),
        "cases": cases,
    }
    path = Path(args.outdir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
