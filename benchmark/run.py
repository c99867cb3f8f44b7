#!/usr/bin/env python3
"""Benchmark of the pqbernstein toolkit: one seeded workload per run.

    python3 benchmark/run.py --workload {sweep,theorems,pointwise} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Each
workload is a closed loop with one client and no think time: the next request
starts when the previous one has returned.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh interpreters importing pqbernstein), then requests until their timed
time reaches S reference seconds (wall time corrected for host speed, see
pace.py).  --trace 1 runs a fixed number of requests (proportional to S)
twice, untraced and then traced, and reports per-layer counts and self
times; spans are written to .bench_out/spans-<workload>.npz.

Every request is checked after its timed span.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark starts no threads of its own, and the
# matrix-vector products here are too small to gain from more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import NOMINAL_S, Pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import pqbernstein; "
    "print(time.perf_counter() - t0)"
)
WARMUP_REQUESTS = 2
# Traced runs replay a fixed number of requests, seconds * rate, so their
# counters repeat exactly for a given seed and length.  Rates are sized so a
# traced run (untraced pass plus traced pass) lasts about S seconds.
TRACE_RATE = {"sweep": 6.0, "theorems": 2.0, "pointwise": 100.0}
# A closed-loop run stops early if its wall time (checks included) runs away.
WALL_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_s_p50": "s",
    "request_s_tail": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "e0_err_budget": "ratio",
}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup() -> tuple[float, float]:
    """Median time from a fresh interpreter's first statement to `import pqbernstein`
    returning, in reference and in wall seconds."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    pace = Pace()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True
        )
        if i:  # the first import also writes the bytecode caches
            pace.add(float(done.stdout.strip().splitlines()[-1]))
            pace.flush()
    return statistics.median(pace.scaled), statistics.median(pace.raw)


def tail(times: list[float], percentile: float) -> tuple[float, float]:
    """Nearest-rank value at `percentile` and the percentile used.

    A run too short to leave 10 samples beyond `percentile` falls back to the
    highest percentile that does (or to the maximum below 11 samples).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(math.ceil(n * percentile / 100.0) - 1, 0)
    rank = max(min(rank, n - 11), 0) if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "os_threads": os_threads(),
        "seed": seed,
    }


class Tally:
    """Failures, verdicts and e0 budget use over the checked requests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts_false = 0
        self.report_bytes = 0
        self.e0_err_budget = 0.0

    def add(self, workload, req, output, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                outcome = workload.check(req, output)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                error = outcome.failure
                self.verdicts_false += outcome.verdicts_false
                self.report_bytes += outcome.report_bytes
                if outcome.e0_err_budget is not None:
                    self.e0_err_budget = max(self.e0_err_budget, outcome.e0_err_budget)
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"benchmark: request {self.attempted - 1} failed: {error}", file=sys.stderr)
                print(f"benchmark:   input {json.dumps(req)}", file=sys.stderr)


def run_one(workload, req, serialize=None):
    """Execute one request; returns (output, error message or None)."""
    try:
        if serialize is None:
            return workload.execute(req), None
        return workload.execute(req, serialize), None
    except Exception as exc:  # a raising request is a failed request, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def warm_up(workload, seed: int) -> None:
    stream = workload.requests(seed + 1_000_003)
    for _ in range(WARMUP_REQUESTS):
        run_one(workload, next(stream))


def timed_loop(workload, reqs, pace: Pace, tally: Tally, seconds: float = math.inf) -> None:
    """Closed loop: each request starts when the previous one (and its check) is done."""
    wall0 = time.perf_counter()
    for req in reqs:
        if pace.total_scaled() >= seconds or time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
        t0 = time.perf_counter()
        output, error = run_one(workload, req)
        pace.add(time.perf_counter() - t0)
        tally.add(workload, req, output, error)
    pace.flush()


def end_to_end(workload, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    setup_s, setup_wall_s = measure_setup()
    warm_up(workload, seed)
    tally = Tally()
    pace = Pace()
    timed_loop(workload, workload.requests(seed), pace, tally, seconds)
    times = pace.scaled
    tail_s, tail_pct = tail(times, workload.TAIL_PERCENTILE)
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": setup_s,
        "request_s_p50": statistics.median(times),
        "request_s_tail": tail_s,
        "requests_per_s": completed / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "e0_err_budget": tally.e0_err_budget,
    }
    wall = pace.raw
    notes = [
        f"times in reference seconds (see pace.py); probe median "
        f"{statistics.median(pace.probes) * 1e3:.3f} ms against {NOMINAL_S * 1e3:g} ms nominal",
        f"request_s_tail is p{tail_pct:.4g} of {len(times)} requests "
        f"({len(times) - round(len(times) * tail_pct / 100)} beyond it)",
        f"wall seconds: setup {setup_wall_s:.6g}, request p50 {statistics.median(wall):.6g}, "
        f"tail {tail(wall, workload.TAIL_PERCENTILE)[0]:.6g}, requests/s {completed / sum(wall):.6g}",
        f"fail_ratio {tally.failed / tally.attempted:.6g} ({tally.failed} failed / "
        f"{tally.attempted} attempted)",
        f"verdicts_false {tally.verdicts_false}",
    ]
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def traced(workload, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    import numpy as np

    import pqbernstein
    import spans
    from workloads import serialize

    count = max(20, math.ceil(seconds * TRACE_RATE[workload.name]))
    stream = workload.requests(seed)
    reqs = [next(stream) for _ in range(count)]
    warm_up(workload, seed)

    plain = Tally()
    plain_pace = Pace()
    timed_loop(workload, reqs, plain_pace, plain)

    tracer = spans.Tracer()

    def traced_serialize(reports):
        with tracer.span(spans.SERIALIZE_SPAN):
            return serialize(reports)

    tables = getattr(sys.modules.get("pqbernstein.operator_eval"), "_tables", None)
    misses0 = tables.cache_info().misses if hasattr(tables, "cache_info") else 0
    tally = Tally()
    traced_pace = Pace()
    tracer.install(pqbernstein)
    try:
        for i, req in enumerate(reqs):
            with tracer.request(i):
                output, error = run_one(workload, req, traced_serialize)
            traced_pace.add(tracer.last_request_s)
            tally.add(workload, req, output, error)
        traced_pace.flush()
    finally:
        tracer.uninstall()
    table_builds = (tables.cache_info().misses - misses0) if hasattr(tables, "cache_info") else 0

    summary = tracer.summary()
    by_name = summary["by_name"]

    def stat(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0.0)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        rows = [v for k, v in by_name.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        metrics[f"{layer}.self_s"] = (sum(r["self_s"] for r in rows), "s")
        metrics[f"{layer}.errors"] = (sum(r["errors"] for r in rows), "count")
    bench_self = stat(spans.REQUEST_SPAN, "self_s")
    metrics.update(
        {
            "bench.self_s": (bench_self, "s"),
            "trace.request_s": (summary["root_s"], "s"),
            "operator_eval.basis_row.calls": (stat("operator_eval.basis_row", "calls"), "count"),
            "operator_eval.basis_row.self_s": (stat("operator_eval.basis_row", "self_s"), "s"),
            "operator_eval.central_moment.calls": (
                stat("operator_eval.apply_central_moment", "calls"),
                "count",
            ),
            "operator_eval.central_moment.self_s": (
                stat("operator_eval.apply_central_moment", "self_s"),
                "s",
            ),
            "operator_eval.required_domain.calls": (
                stat("operator_eval.required_domain", "calls"),
                "count",
            ),
            "operator_eval.table_builds": (table_builds, "count"),
            "operator_eval.table_bytes_peak": (tracer.table_bytes_peak, "B"),
            "error_bounds.modulus_grid_s": (stat("error_bounds.ModulusGrid.__init__", "total_s"), "s"),
            "pq_quadrature.nodes": (tracer.nodes, "count"),
            "functions.points": (tracer.points, "count"),
            "reportio.bytes": (tally.report_bytes, "B"),
            "experiments.verdicts_false": (tally.verdicts_false, "count"),
            "trace.overhead_ratio": (
                statistics.median(traced_pace.scaled) / statistics.median(plain_pace.scaled),
                "ratio",
            ),
        }
    )

    # Self times of the layers and of the benchmark's own code partition the
    # traced request time; a gap means a span was lost or mis-nested.
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS) + bench_self
    gap = abs(layer_self - summary["root_s"])
    if gap > 1e-9 * max(1, len(tracer.start)):
        print(f"benchmark: self times miss the traced request time by {gap:.3g} s", file=sys.stderr)
        tally.failed += 1

    OUT_DIR.mkdir(exist_ok=True)
    np.savez_compressed(
        OUT_DIR / f"spans-{workload.name}.npz",
        environment=np.array(json.dumps(environment(seed))),
        **tracer.arrays(),
    )
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    notes = [
        f"{count} requests, untraced then traced; {len(tracer.start)} spans in "
        f"{OUT_DIR.name}/spans-{workload.name}.npz",
        f"traced request time {summary['root_s']:.6g} s = layers' self time "
        f"{layer_self - bench_self:.6g} s + benchmark {bench_self:.6g} s",
    ]
    return tally, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pqbernstein" / "__init__.py").is_file():
        return fail(f"package source not found under {SRC}")
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    if args.trace:
        tally, metrics, notes = traced(workload, args.seed, args.seconds)
    else:
        tally, metrics, notes = end_to_end(workload, args.seed, args.seconds)
    env = environment(args.seed)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print("  environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
