"""In-memory spans around calls into the pqbernstein modules.

The package modules import each other's names by value (``from .operator_eval
import apply_on_grid``), so patching one module's attribute misses most calls.
``Tracer.install`` therefore replaces every reference to a traced function in
every loaded ``pqbernstein`` module, and patches the traced methods on their
classes.  ``uninstall`` puts the originals back.

A span is recorded only while a request is open.  Spans live in flat arrays
(name, start, end, parent, request, raised) and are written out once, at the
end of the run.  A span's self time is its duration minus the durations of its
direct children; since children nest inside their parent, the self times of
all spans of a request add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layers are the package modules.  `cli` (an argparse shell) and `qreference`
# (an oracle used only by the checks) are left out on purpose.
LAYERS = (
    "pq_core",
    "pq_quadrature",
    "functions",
    "operator_eval",
    "moments_closed",
    "error_bounds",
    "experiments",
    "reportio",
)

# Public functions timed per layer.  A name that a later version of the
# package no longer defines is skipped, and its counters read zero.
TRACED_FUNCTIONS = {
    "pq_core": ("pq_integer", "pq_rising_two_term"),
    "pq_quadrature": ("build_rule", "integrate"),
    "functions": ("make_function",),
    "operator_eval": (
        "basis_row",
        "required_domain",
        "apply",
        "apply_on_grid",
        "apply_central_moment",
    ),
    "moments_closed": (
        "closed_first_moment",
        "closed_second_moment",
        "closed_central_moments",
        "build_moment_report",
    ),
    "error_bounds": (
        "delta_n",
        "alpha_n",
        "verify_lipschitz",
        "check_t32",
        "check_t33",
        "check_t34",
    ),
    "experiments": (
        "custom_schedule",
        "run_korovkin",
        "run_moments",
        "run_bounds",
    ),
}

TRACED_METHODS = {
    "functions": (("RealFunction", "__call__"),),
    "error_bounds": (("ModulusGrid", "__init__"),),
}

# reportio's helpers run once per CSV cell; the benchmark times its whole
# serialize step as the reportio layer instead of wrapping them.
SERIALIZE_SPAN = "reportio.serialize"
# Root span of each request; its self time is the benchmark's own code.
REQUEST_SPAN = "bench.request"


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_request = array("i")
        self.raised = array("b")
        self._open: list[int] = []
        self._request_id = -1
        # degree N of the innermost open operator_eval call, for table sizes
        self._degrees: list[int] = []
        self.points = 0
        self.nodes = 0
        self.table_bytes_peak = 0
        self.last_request_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open_span(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.span_request.append(self._request_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close_span(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()
        if raised:
            self.raised[idx] = 1

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span (used for the benchmark's own steps)."""
        if self._request_id < 0:
            yield
            return
        idx = self._open_span(self._id(name))
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close_span(idx, raised)

    @contextmanager
    def request(self, request_id: int):
        """Open request `request_id` under a root span; sets `last_request_s`."""
        self._request_id = request_id
        idx = self._open_span(self._id(REQUEST_SPAN))
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close_span(idx, raised)
            self._request_id = -1
            self.last_request_s = self.end[idx] - self.start[idx]

    # -- patching ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        name_id = self._id(f"{layer}.{name}")
        observe = self._observer(layer, name)
        is_operator = layer == "operator_eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request_id < 0:
                return fn(*args, **kwargs)
            if is_operator:
                self._degrees.append(getattr(args[0], "degree", -1) if args else -1)
            idx = self._open_span(name_id)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                self._close_span(idx, raised)
                if is_operator:
                    self._degrees.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _observer(self, layer: str, name: str):
        if (layer, name) == ("functions", "RealFunction.__call__"):

            def count_points(args, out):
                self.points += int(np.size(args[1]))

            return count_points
        if (layer, name) == ("pq_quadrature", "build_rule"):

            def count_nodes(args, out):
                k1 = len(out.nodes)
                self.nodes += k1
                degree = self._degrees[-1] if self._degrees else -1
                if degree >= 0:
                    # computed size of the (N+1) x (K+1) float64 argument table
                    self.table_bytes_peak = max(self.table_bytes_peak, (degree + 1) * k1 * 8)

            return count_nodes
        return None

    def install(self, package) -> None:
        """Patch every loaded module of `package` (already imported)."""
        prefix = package.__name__
        modules = [m for k, m in sorted(sys.modules.items()) if k == prefix or k.startswith(prefix + ".")]
        originals = {}
        for layer, names in TRACED_FUNCTIONS.items():
            home = sys.modules.get(f"{prefix}.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, methods in TRACED_METHODS.items():
            home = sys.modules.get(f"{prefix}.{layer}")
            for cls_name, meth in methods:
                cls = getattr(home, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is not None:
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(layer, f"{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.span_request, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per-name calls, self time, inclusive time and raised count."""
        a = self.arrays()
        count = len(a["names"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        ids = a["name_id"]
        out = {
            "calls": np.bincount(ids, minlength=count),
            "self_s": np.bincount(ids, weights=self_t, minlength=count),
            "total_s": np.bincount(ids, weights=dur, minlength=count),
            "errors": np.bincount(ids, weights=a["raised"], minlength=count),
        }
        rows = {}
        for i, name in enumerate(self.names):
            rows[name] = {key: vals[i].item() for key, vals in out.items()}
            rows[name]["errors"] = int(rows[name]["errors"])
        roots = float(dur[~has_parent].sum())
        return {"by_name": rows, "root_s": roots, "self_sum_s": float(self_t.sum())}
