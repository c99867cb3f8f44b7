#!/usr/bin/env python3
"""Time the operator's stages as the degree n and the grid size G grow.

    python3 scripts/bench_scaling.py --label NAME [--repeats 21]

Writes BENCH_NAME.json in --outdir (default: the current directory).  Each
case runs in PROCESSES fresh child processes, one at a time, in rounds over
the cases, all in one environment: one BLAS thread, the package from this
checkout's src.  A child times each stage --repeats times in reference
seconds (benchmark/pace.py, as the benchmark does).  A stage's median_s is
the median of the process medians, process_medians_s lists them, spread_s is
their range and min_s is its fastest call.  n follows the classic schedule
p = 1 - 1/(n+1)^2, q = 1 - 1/(n+1).

theorems_bundle at n = 16, 64, 128, 512 and 1024: one operator's check
bundle as the benchmark's theorems workload serves it, the moment report and
t32 (f_fig), t33 (holder_half) and t34 (f_fig) at G = 101.  Each repeat
starts from clear_all(), so it times one bundle, not a replay of the last:
moments, t32, t33 and t34 each time one report after the reports before it
in the bundle (untimed), so it reuses what they kept; csv times to_csv_text
of each report fresh from compute; json to_json_text after to_csv_text, the
order in which the benchmark serializes.

pointwise: one pointwise-workload request at n = 20 with its rule and e0 and
f_fig means kept: apply on e0 at 32 points, then on f_fig, then the order-2
central moment.  rows_cold is the first pass on a fresh entry, so it builds
the 32 basis rows; calls_warm repeats the 96 calls on the kept rows.

degree at n = 128, 512 and 1024 (K+1 = 2,982, 11,824 and 23,614 nodes at
tol 1e-10): build_rule; gauss_rules of a built rule; f_fig_means_cold, a
fresh entry's evaluate_on_grid(config, pq, (f_fig,), ()) after clear_all(),
so the rule, argument coefficients, Gauss rules and means.  Per G = 101 and
1001, with the entry and means kept: basis, the (G, N+1) basis matrix; and
apply_on_grid_warm, f_fig on the grid from a fresh entry whose rule and
means are built untimed, so each call builds its basis.

build_rule_long: build_rule on K+1 = 167,880 (p = 0.9999983126586219, q =
0.999787914476763, tol 4.55e-16) and 967,069 (p = 1, q = 1 - 1/28,000, tol
1e-15) nodes.

Times are paced: a child holds pace.py's 3.2 MB probe arrays, which raise
glibc's dynamic mmap threshold, so a timed call pays the page faults of a
benchmark process, not those of an unpaced one.  Peak resident sizes are
read before the Pace exists, as medians over the children: import_peak_rss_mb
after importing this script and the package, and a degree case's peak_rss_mb
after a cold f_fig apply_on_grid on each grid, smallest first (a peak so
far).  This process imports neither NumPy nor the package: Linux starts a
child's peak at its parent's resident size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROCESSES = 5
BUNDLE_GRID = 101
BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))
GRID_SIZES = (101, 1001)
POINTWISE_DEGREE = 20
POINTWISE_POINTS = 32
LONG_RULES = (
    (0.9999983126586219, 0.999787914476763, 4.553867464572494e-16),
    (1.0, 1.0 - 1.0 / 28_000, 1e-15),
)
# (case function, its arguments), in the order they run and are written
CASES = (
    *(("theorems_bundle", n) for n in (16, 64, 128, 512, 1024)),
    ("pointwise",),
    *(("degree", n) for n in (128, 512, 1024)),
    *(("build_rule_long", *rule) for rule in LONG_RULES),
)

# one case in a fresh process, its records as JSON on stdout
CHILD = """
import json, sys, bench_scaling
print(json.dumps(bench_scaling.child(int(sys.argv[1]), json.loads(sys.argv[2]))))
"""


def child_env() -> dict[str, str]:
    """This environment with the scripts, pace.py and the package importable, one BLAS thread."""
    # as in benchmark/run.py: on a 2-vCPU host, waking OpenBLAS threads for the node moments of a
    # cold operator (K+1 >= 10^4) cost about 14 ms against 0.1 ms on one, and varied by run
    paths = [*(str(ROOT / name) for name in ("scripts", "benchmark", "src")),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kilobytes on Linux


class Paced:
    """Times calls in reference seconds through one Pace, made after any peak RSS reading."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.pace = None

    def __call__(self, call, fresh=None) -> list[float]:
        """Reference seconds of repeats calls; fresh() makes each call's argument, untimed."""
        if self.pace is None:
            from pace import Pace

            Pace()  # a process's first probe pays for its arrays' pages: not this one
            self.pace = Pace()
        for _ in range(self.repeats):
            arg = fresh() if fresh else None
            start = time.perf_counter()
            call(arg)
            self.pace.add(time.perf_counter() - start)
        self.pace.flush()
        return self.pace.scaled[-self.repeats:]


def classic(n: int):
    from pqbernstein import PQPair, SchurerConfig

    return SchurerConfig(n=n), PQPair(1.0 - 1.0 / (n + 1) ** 2, 1.0 - 1.0 / (n + 1))


def theorems_bundle(timed: Paced, n: int) -> list[dict]:
    """Per-report compute, CSV and JSON times of one operator's check bundle at classic n."""
    from pqbernstein import clear_all, run_bounds, run_moments

    config, pq = classic(n)
    steps = {"moments": partial(run_moments, config, pq, grid_size=BUNDLE_GRID)}
    for theorem, name in BUNDLE:
        steps[theorem] = partial(run_bounds, theorem, config, pq, name, grid_size=BUNDLE_GRID)

    def compute() -> list:
        clear_all()
        return [step() for step in steps.values()]

    def before(report: str) -> None:
        """Cold caches, then the reports the bundle makes before this one."""
        clear_all()
        for name in list(steps)[: list(steps).index(report)]:
            steps[name]()

    def after_csv() -> list:
        reports = compute()
        for report in reports:
            report.to_csv_text()
        return reports

    stages = {name: timed(lambda _, step=step: step(), partial(before, name))
              for name, step in steps.items()}
    stages |= {
        "csv": timed(lambda reports: [r.to_csv_text() for r in reports], compute),
        "json": timed(lambda reports: [r.to_json_text() for r in reports], after_csv),
    }
    return [{"case": "theorems_bundle", "n": n, "grid": BUNDLE_GRID, "stages": stages}]


def pointwise(timed: Paced) -> list[dict]:
    """One pointwise-shaped request, e0, f_fig and (t-x)^2 at 32 points, on a warm operator."""
    import numpy as np
    from pqbernstein import apply, apply_central_moment, clear_all, evaluate_on_grid
    from pqbernstein import make_function, required_domain

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

    stages = {"rows_cold": timed(request, warm)}
    request()  # every row kept: the entry is the last one warm() made
    stages["calls_warm"] = timed(request)
    return [{"case": "pointwise", "n": POINTWISE_DEGREE, "points": POINTWISE_POINTS,
             "stages": stages}]


def degree(timed: Paced, n: int) -> list[dict]:
    """Rule, Gauss rules and cold means at classic n, then per grid its basis and a warm apply."""
    import numpy as np
    from pqbernstein import apply_on_grid, basis_matrix, build_rule, clear_all
    from pqbernstein import evaluate_on_grid, make_function, required_domain
    from pqbernstein.pq_quadrature import gauss_rules

    config, pq = classic(n)
    f = make_function("f_fig", *required_domain(config, pq))
    grids = [np.linspace(0.0, 1.0, g) for g in GRID_SIZES]
    peaks = []
    for xs in grids:
        clear_all()
        apply_on_grid(config, pq, f, xs)
        peaks.append(peak_rss_mb())

    def warm() -> None:
        clear_all()
        evaluate_on_grid(config, pq, (f,), ())  # the rule and the means, no point

    rule = build_rule(pq, config.quad_tol)
    stages = {
        "build_rule": timed(lambda _: build_rule(pq, config.quad_tol)),
        "gauss_rules": timed(lambda _: gauss_rules(rule)),
        "f_fig_means_cold": timed(lambda _: evaluate_on_grid(config, pq, (f,), ()), clear_all),
    }
    records = [{"n": n, "nodes": rule.nodes.size, "stages": stages}]
    for xs, peak in zip(grids, peaks):
        apply_on_grid(config, pq, f, xs)  # keep the entry and its means
        stages = {
            "basis": timed(lambda _: basis_matrix(config, pq, xs)),
            "apply_on_grid_warm": timed(lambda _: apply_on_grid(config, pq, f, xs), warm),
        }
        records.append({"n": n, "grid": xs.size, "stages": stages, "peak_rss_mb": peak})
    return records


def build_rule_long(timed: Paced, p: float, q: float, tol: float) -> list[dict]:
    from pqbernstein import PQPair, build_rule

    pq = PQPair(p, q)
    stages = {"build_rule": timed(lambda _: build_rule(pq, tol))}
    return [{"case": "build_rule_long", "p": p, "q": q, "tol": tol,
             "nodes": build_rule(pq, tol).nodes.size, "stages": stages}]


def child(repeats: int, case: list) -> dict:
    """Run one case in this process: its records, each stage a list of reference seconds."""
    import numpy as np
    import pqbernstein  # noqa: F401  (the import that import_peak_rss_mb counts)

    name, *args = case
    host = {"numpy": np.__version__, "import_peak_rss_mb": peak_rss_mb()}
    return host | {"cases": globals()[name](Paced(repeats), *args)}


def run_cases(cases, repeats: int) -> list[list[dict]]:
    """Each case's outputs from PROCESSES fresh children, one at a time in rounds over the cases,
    so that a case's children meet the slow and the fast phases of a shared host alike."""
    env = child_env()
    outputs = [[] for _ in cases]
    for round_ in range(PROCESSES):
        for case, runs in zip(cases, outputs):
            command = [sys.executable, "-c", CHILD, str(repeats), json.dumps(case)]
            done = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
            runs.append(json.loads(done.stdout))
        print(f"round {round_ + 1} of {PROCESSES}: done", file=sys.stderr)
    return outputs


def summarize(runs: list[dict]) -> list[dict]:
    """One case's records, each stage and peak RSS summed up over the case's children."""
    records = runs[0]["cases"]
    for i, record in enumerate(records):
        for stage in record["stages"]:
            times = [run["cases"][i]["stages"][stage] for run in runs]
            medians = [statistics.median(t) for t in times]
            record["stages"][stage] = {
                "median_s": statistics.median(medians),
                "spread_s": max(medians) - min(medians),
                "min_s": min(map(min, times)),
                "process_medians_s": medians,
                "repeats": len(times[0]),
            }
        if "peak_rss_mb" in record:
            record["peak_rss_mb"] = statistics.median(r["cases"][i]["peak_rss_mb"] for r in runs)
    return records


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

    outputs = run_cases(CASES, args.repeats)
    runs = [run for case_runs in outputs for run in case_runs]
    out = {
        "label": args.label,
        "schedule": "classic: p = 1 - 1/(n+1)^2, q = 1 - 1/(n+1), ell = 0, tol 1e-10",
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": runs[0]["numpy"], "blas_threads": 1},
        "processes": PROCESSES,
        "import_peak_rss_mb": statistics.median(run["import_peak_rss_mb"] for run in runs),
        "cases": [record for case_runs in outputs for record in summarize(case_runs)],
    }
    path = Path(args.outdir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
