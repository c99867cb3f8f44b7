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
- apply_on_grid_warm: f_fig on the grid from a fresh entry whose rule and
  means are built untimed, so each call builds its basis.

The build_rule_long cases time build_rule alone on two long rules: K+1 =
167,880 (p = 0.9999983126586219, q = 0.999787914476763, tol 4.55e-16) and
K+1 = 967,069 (p = 1, q = 1 - 1/28,000, tol 1e-15).

The theorems_bundle cases are one operator's check bundle, as the benchmark's
theorems workload serves it: the moment report and t32 (f_fig), t33
(holder_half) and t34 (f_fig) at G = 101, classic n = 16, 64 and 128.  Each
case runs in BUNDLE_PROCESSES fresh child processes, one after another,
since one process's timings of these sub-millisecond stages sit in one of
two levels that differ by up to 2x on a 2-vCPU host; a fresh process also
pays the page faults a fresh benchmark process pays.  Before each timed
repeat clear_all() forgets the operator entry, with the grid basis and the
ModulusGrids it keeps, and the float-column texts, so a repeat times one
bundle, not a replay of the last one.  Per n:

- moments, t32, t33 and t34: each report alone, in the bundle's order, after
  cold caches and the reports before it (untimed), so each reuses what the
  reports before it kept, as in a bundle;
- csv: to_csv_text of each report, fresh from compute;
- json: to_json_text of each report after its to_csv_text, the order in
  which the benchmark serializes.

A stage's median_s is the median of the child processes' medians,
process_medians_s lists them and spread_s is their range.

The pointwise case is one request of the benchmark's pointwise workload on a
warm operator: classic n = 20 with its rule and its e0 and f_fig means kept,
evaluated at 32 points in the workload's call order (apply on e0 at each
point, then on f_fig, then the order-2 central moment).  It runs before the
large cases.  Two stages:

- rows_cold: the first pass on a fresh operator entry, warmed untimed, so it
  builds the 32 basis rows;
- calls_warm: the same 96 calls again, each reading its kept row.

Every other stage reports the median and quartiles of --repeats timed calls,
in seconds.  peak_rss_mb is the peak resident size of a fresh child process
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
from functools import partial
from pathlib import Path

import numpy as np

from pqbernstein import PQPair, SchurerConfig, clear_all, run_bounds, run_moments
from pqbernstein.functions import make_function
from pqbernstein.operator_eval import (
    _Operator,
    apply,
    apply_central_moment,
    apply_on_grid,
    basis_matrix,
    evaluate_on_grid,
    required_domain,
)
from pqbernstein.pq_quadrature import build_rule, gauss_rules

DEGREES = (128, 512, 1024)
GRID_SIZES = (101, 1001)
BUNDLE_DEGREES = (16, 64, 128)
BUNDLE_GRID = 101
BUNDLE_PROCESSES = 3
BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))
POINTWISE_DEGREE = 20
POINTWISE_POINTS = 32
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


# one theorems_bundle case in a fresh process, its stages as JSON on stdout
BUNDLE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import bench_scaling
print(json.dumps(bench_scaling.theorems_bundle(int(sys.argv[2]), int(sys.argv[3]))))
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
    """Per-report compute, CSV and JSON times of one operator's check bundle at classic n."""
    config, pq = classic(n)
    steps = {"moments": partial(run_moments, config, pq, grid_size=BUNDLE_GRID)}
    for theorem, name in BUNDLE:
        steps[theorem] = partial(run_bounds, theorem, config, pq, name, grid_size=BUNDLE_GRID)

    def compute() -> list:
        clear_all()
        return [step() for step in steps.values()]

    def before(report: str):
        """Cold caches, then the reports the bundle makes before this one."""

        def fresh() -> None:
            clear_all()
            for name in list(steps)[: list(steps).index(report)]:
                steps[name]()

        return fresh

    def after_csv() -> list:
        reports = compute()
        for report in reports:
            report.to_csv_text()
        return reports

    stages = {name: timed(lambda _, step=step: step(), repeats, before(name))
              for name, step in steps.items()}
    stages |= {
        "csv": timed(lambda reports: [r.to_csv_text() for r in reports], repeats, compute),
        "json": timed(lambda reports: [r.to_json_text() for r in reports], repeats, after_csv),
    }
    return {"case": "theorems_bundle", "n": n, "grid": BUNDLE_GRID, "stages": stages}


def theorems_bundle_processes(n: int, repeats: int) -> dict:
    """theorems_bundle(n) in BUNDLE_PROCESSES fresh processes: the median of their medians."""
    child = [sys.executable, "-c", BUNDLE_CHILD, str(Path(__file__).resolve().parent)]
    runs = [
        json.loads(subprocess.run(
            [*child, str(n), str(repeats)], check=True, capture_output=True, text=True
        ).stdout)
        for _ in range(BUNDLE_PROCESSES)
    ]
    stages = {}
    for name in runs[0]["stages"]:
        medians = [run["stages"][name]["median_s"] for run in runs]
        stages[name] = {"median_s": statistics.median(medians), "process_medians_s": medians,
                        "spread_s": max(medians) - min(medians), "repeats": repeats}
    return {"case": "theorems_bundle", "n": n, "grid": BUNDLE_GRID,
            "processes": BUNDLE_PROCESSES, "stages": stages}


def pointwise(repeats: int) -> dict:
    """One pointwise-shaped request, e0, f_fig and (t-x)^2 at 32 points, on a warm operator."""
    config, pq = classic(POINTWISE_DEGREE)
    domain = required_domain(config, pq)
    e0, fig = make_function("e0", *domain), make_function("f_fig", *domain)
    xs = np.random.default_rng(0).random(POINTWISE_POINTS).tolist()

    def warm() -> None:
        clear_all()
        evaluate_on_grid(config, pq, (e0, fig), ())  # the rule and both means, no point

    def request(_=None) -> None:
        for x in xs:
            apply(config, pq, e0, x)
        for x in xs:
            apply(config, pq, fig, x)
        for x in xs:
            apply_central_moment(config, pq, x, 2)

    stages = {"rows_cold": timed(request, repeats, warm)}
    request()  # every row kept: the entry is the last one warm() made
    stages["calls_warm"] = timed(request, repeats)
    return {"case": "pointwise", "n": POINTWISE_DEGREE, "points": POINTWISE_POINTS,
            "stages": stages}


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

    cases = [theorems_bundle_processes(n, args.repeats) for n in BUNDLE_DEGREES]
    print("theorems_bundle: done", file=sys.stderr)
    cases.append(pointwise(args.repeats))
    print("pointwise: done", file=sys.stderr)
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

            def warm() -> None:
                clear_all()
                evaluate_on_grid(config, pq, (f,), ())  # the rule and the means, no point

            stages = {
                "basis": timed(lambda _: basis_matrix(config, pq, xs), args.repeats),
                "apply_on_grid_warm": timed(
                    lambda _: apply_on_grid(config, pq, f, xs), args.repeats, warm
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
