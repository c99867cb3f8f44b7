"""Seeded request streams for the benchmark workloads, and the check of each result.

A workload turns a seed into an endless stream of requests.  `execute` runs
one request: one call into pqbernstein (a `run_*` function, or the operator
functions point by point) plus the in-memory CSV and JSON
serialization of its reports.  `check` validates the output afterwards,
outside the timed span, and returns an `Outcome`.

Inputs that set most of a request's cost (the degree n, the shift ell, and b,
which sets the node count K ~ (n+1)/b * ln(1/tol)) come from a Kronecker
low-discrepancy sequence with a seeded start: u_i = frac(u_0 + i * alpha_d).
Each coordinate is uniform, as with independent draws, but every stretch of
consecutive requests covers its range evenly, so the request mix, and with
it the median request time, varies little from one seed or run length to
the next.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import pqbernstein as pb
from pqbernstein import qreference

# Kronecker steps 1/g^d for the root g of x^(D+1) = x + 1 (D = 3), which
# spread successive points evenly in up to three dimensions.
_G3 = 1.2207440846057596
KRONECKER_STEPS = (1.0 / _G3, 1.0 / _G3**2, 1.0 / _G3**3)

# Checks against the p = 1 oracle use its default Jackson tolerance (1e-12);
# the operator's own truncation adds at most sup|f| * quad_tol = 2e-10.
ORACLE_AGREEMENT = 1e-9
# The pure-Python oracle costs milliseconds per point, so only the first
# ORACLE_REQUESTS requests of a stream are oracle-checked: the check time of a
# run stays bounded when the program gets faster and runs more requests.
ORACLE_REQUESTS = 400

# Plain-float copies of the built-in test functions for the oracle, so the
# reference shares no code with the main path.
ORACLE_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "e0": lambda t: 1.0,
    "e1": lambda t: t,
    "e2": lambda t: t * t,
    "f_fig": lambda t: 1.0 + math.cos(5.0 * t * t),
}


@dataclass
class Outcome:
    """What one request's check found."""

    failure: str | None = None
    # largest |K(1;x) - 1| / ((N+1) tol) in the request, normalized basis only
    e0_err_budget: float | None = None
    # theorem or convergence verdicts that came out false (outputs, not failures)
    verdicts_false: int = 0
    report_bytes: int = 0


def _even(rng: np.random.Generator) -> Iterator[tuple[float, ...]]:
    """Points of [0, 1)^3 from the Kronecker sequence, starting where the seed says."""
    start = rng.random(len(KRONECKER_STEPS))
    steps = np.array(KRONECKER_STEPS)
    i = 0
    while True:
        yield tuple(((start + i * steps) % 1.0).tolist())
        i += 1


def serialize(reports) -> list[tuple[str, str]]:
    return [(r.to_csv_text(), r.to_json_text()) for r in reports]


def _reject_constant(token: str):
    raise ValueError(f"non-finite value {token} in JSON output")


def _parse(texts: list[tuple[str, str]]) -> list[dict]:
    """JSON documents of the reports; raises ValueError on any non-finite output."""
    docs = []
    for csv_text, json_text in texts:
        for line in csv_text.splitlines()[1:]:
            for cell in line.split(","):
                if cell not in ("", "true", "false") and not math.isfinite(float(cell)):
                    raise ValueError(f"non-finite value {cell} in CSV output")
        docs.append(json.loads(json_text, parse_constant=_reject_constant))
    return docs


def _budget(n: int, ell: int, tol: float) -> float:
    return (n + ell + 1) * tol


def _hull(config, pq) -> tuple[float, float]:
    lo, hi = pb.required_domain(config, pq)
    return min(lo, 0.0), max(hi, 1.0)


class Sweep:
    """`run_korovkin` over n = 8..128 at G = 201, alternating classic and q-only."""

    name = "sweep"
    TAIL_PERCENTILE = 95.0  # about 15 requests beyond it in a 16 s run
    NS = (8, 16, 32, 64, 128)
    GRID = 201

    def requests(self, seed: int) -> Iterator[dict]:
        rng = np.random.default_rng([seed, 1])
        classic = bool(rng.integers(2))
        for index, (u_b, u_ell, _) in enumerate(_even(rng)):
            yield {
                "schedule": "classic" if classic else "q-only",
                "a": float(rng.uniform(0.8, 1.25)),
                "b": 0.8 + 0.45 * u_b,
                "ell": int(3 * u_ell),
                # grid points checked against the oracle on q-only requests
                "check_x": [int(i) for i in rng.integers(0, self.GRID, 2)],
                "oracle": index < ORACLE_REQUESTS,
            }
            classic = not classic

    def _schedule(self, req: dict) -> tuple[list[float], list[float]]:
        ps = [
            1.0 if req["schedule"] == "q-only" else 1.0 - req["a"] / (n + 1) ** 2
            for n in self.NS
        ]
        qs = [1.0 - req["b"] / (n + 1) for n in self.NS]
        return ps, qs

    def execute(self, req: dict, serialize=serialize):
        ps, qs = self._schedule(req)
        sched = pb.custom_schedule(self.NS, ps, qs)
        result = pb.run_korovkin(sched, self.NS, ell=req["ell"], grid_size=self.GRID)
        return serialize([result])

    def check(self, req: dict, texts) -> Outcome:
        out = Outcome(report_bytes=sum(len(c) + len(j) for c, j in texts))
        (doc,) = _parse(texts)
        ell, tol = req["ell"], doc["quad_tol"]
        if [row["n"] for row in doc["rows"]] != list(self.NS):
            out.failure = "report rows do not match the requested degrees"
            return out
        ratios = [row["sup_errors"]["e0"] / _budget(row["n"], ell, tol) for row in doc["rows"]]
        out.e0_err_budget = max(ratios)
        if out.e0_err_budget > 1.0:
            out.failure = f"e0 sup error at {out.e0_err_budget:.3g}x the truncation budget"
            return out
        if not doc["converged"]:
            out.verdicts_false += 1
        if req["schedule"] == "q-only" and req["oracle"]:
            out.failure = self._check_oracle(req, doc["rows"][0])
        return out

    def _check_oracle(self, req: dict, row: dict) -> str | None:
        """At the smallest n: K(f;x) matches the q-oracle and |K(f;x) - f(x)| <= sup error."""
        n, ell, q = row["n"], req["ell"], row["q"]
        config = pb.SchurerConfig(n=n, ell=ell)
        pq = pb.PQPair(1.0, q)
        lo, hi = _hull(config, pq)
        xs = np.linspace(0.0, 1.0, self.GRID)
        for i in req["check_x"]:
            x = float(xs[i])
            for name, g in ORACLE_FUNCTIONS.items():
                ours = pb.apply(config, pq, pb.make_function(name, lo, hi), x)
                ref = qreference.q_kantorovich_schurer(n, ell, q, g, x)
                if abs(ours - ref) > ORACLE_AGREEMENT:
                    return f"K({name};{x}) = {ours!r} but the q-oracle gives {ref!r}"
                if abs(ref - g(x)) > row["sup_errors"][name] + ORACLE_AGREEMENT:
                    return f"reported sup error of {name} misses x={x}"
        return None


class Theorems:
    """One operator's check bundle: `run_moments` plus t32, t33 and t34 at G = 101."""

    name = "theorems"
    TAIL_PERCENTILE = 90.0  # about 10 requests beyond it in a 16 s run
    GRID = 101
    BUNDLE = (("t32", "f_fig"), ("t33", "holder_half"), ("t34", "f_fig"))

    def requests(self, seed: int) -> Iterator[dict]:
        rng = np.random.default_rng([seed, 2])
        for u_n, u_ell, u_b in _even(rng):
            yield {
                "n": 16 + int(113 * u_n),
                "ell": int(3 * u_ell),
                "a": float(rng.uniform(0.8, 1.25)),
                "b": 0.8 + 0.45 * u_b,
            }

    @staticmethod
    def _operator(req: dict):
        n = req["n"]
        config = pb.SchurerConfig(n=n, ell=req["ell"])
        pq = pb.PQPair(1.0 - req["a"] / (n + 1) ** 2, 1.0 - req["b"] / (n + 1))
        return config, pq

    def execute(self, req: dict, serialize=serialize):
        config, pq = self._operator(req)
        reports = [pb.run_moments(config, pq, grid_size=self.GRID)]
        for theorem, fname in self.BUNDLE:
            reports.append(pb.run_bounds(theorem, config, pq, fname, grid_size=self.GRID))
        return serialize(reports)

    def check(self, req: dict, texts) -> Outcome:
        out = Outcome(report_bytes=sum(len(c) + len(j) for c, j in texts))
        moments, *bounds = _parse(texts)
        budget = _budget(req["n"], req["ell"], moments["config"]["quad_tol"])
        consistency = moments["oracle_consistency"]
        out.e0_err_budget = consistency["max_m0_dev"] / budget
        if out.e0_err_budget > 1.0:
            out.failure = f"K(1;x) off by {out.e0_err_budget:.3g}x the truncation budget"
        elif consistency["max_c1_dev"] > 2.0 * budget:
            out.failure = f"first central moment inconsistent by {consistency['max_c1_dev']:.3g}"
        elif consistency["max_c2_dev"] > 4.0 * budget:
            out.failure = f"second central moment inconsistent by {consistency['max_c2_dev']:.3g}"
        out.verdicts_false = sum(not doc["all_passed"] for doc in bounds)
        return out


class Pointwise:
    """A fresh small operator per request, evaluated point by point at 32 seeded x."""

    name = "pointwise"
    TAIL_PERCENTILE = 99.0  # about 85 requests beyond it in a 16 s run
    POINTS = 32

    def requests(self, seed: int) -> Iterator[dict]:
        rng = np.random.default_rng([seed, 3])
        for index in itertools.count():
            if rng.random() < 0.3:
                p = 1.0
            else:
                p = float(rng.uniform(0.9, 1.0))
            yield {
                "n": int(rng.integers(1, 25)),
                "ell": int(rng.integers(0, 4)),
                "p": p,
                "q": p * float(rng.uniform(0.5, 0.98)),
                "printed": bool(rng.random() < 0.25),
                "xs": rng.random(self.POINTS).tolist(),
                # on p = 1 requests: the point and the quantity checked against the oracle
                "check": int(rng.integers(2 * self.POINTS)),
                "oracle": index < ORACLE_REQUESTS,
            }

    @staticmethod
    def _operator(req: dict):
        variant = pb.BasisVariant.AS_PRINTED if req["printed"] else pb.BasisVariant.NORMALIZED
        config = pb.SchurerConfig(n=req["n"], ell=req["ell"], basis_variant=variant)
        return config, pb.PQPair(req["p"], req["q"])

    def execute(self, req: dict, serialize=serialize):
        config, pq = self._operator(req)
        lo, hi = _hull(config, pq)
        e0 = pb.make_function("e0", lo, hi)
        fig = pb.make_function("f_fig", lo, hi)
        xs = req["xs"]
        return {
            "e0": [pb.apply(config, pq, e0, x) for x in xs],
            "f_fig": [pb.apply(config, pq, fig, x) for x in xs],
            "c2": [pb.apply_central_moment(config, pq, x, 2) for x in xs],
        }

    def check(self, req: dict, values) -> Outcome:
        out = Outcome()
        for key, vals in values.items():
            if not all(math.isfinite(v) for v in vals):
                out.failure = f"non-finite {key} value"
                return out
        config, _ = self._operator(req)
        if not req["printed"]:
            budget = _budget(req["n"], req["ell"], config.quad_tol)
            out.e0_err_budget = max(abs(v - 1.0) for v in values["e0"]) / budget
            if out.e0_err_budget > 1.0:
                out.failure = f"K(1;x) off by {out.e0_err_budget:.3g}x the truncation budget"
                return out
        if req["p"] == 1.0 and req["oracle"]:
            i, pick = divmod(req["check"], 2)
            x = req["xs"][i]
            key, g = (("f_fig", ORACLE_FUNCTIONS["f_fig"]), ("c2", lambda t: (t - x) ** 2))[pick]
            ref = qreference.q_kantorovich_schurer(req["n"], req["ell"], req["q"], g, x)
            if abs(values[key][i] - ref) > ORACLE_AGREEMENT:
                out.failure = f"{key} at x={x} is {values[key][i]!r}, q-oracle {ref!r}"
        return out


WORKLOADS = {w.name: w for w in (Sweep(), Theorems(), Pointwise())}
