"""Wall times corrected for the speed of the host at the moment they were taken.

On a shared virtual machine the same request can run 1.7x slower for tens of
seconds at a time (another guest on the same physical core), which no run
of a few seconds can average out.  So each timing is also converted to
reference seconds: wall seconds x NOMINAL_S / t_ref, where t_ref is the time
of a fixed reference kernel probed just before and just after the timed
spans.  The kernel mixes interpreter work, NumPy calls on tiny arrays and one
pass over an array larger than the L2 cache, in about the time shares
(0.3 / 0.1 / 0.6) whose slowdown tracked all three workloads' within about 2%
between the fast and slow phases of a 2-vCPU VM.  On a host where the probe
takes NOMINAL_S a reference second is a wall second.  A faster program
lowers both numbers; a slower host lowers neither.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 6e-3
PROBE_EVERY_S = 0.25


class Pace:
    """Collects wall times and their reference-second equivalents."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._tiny = rng.random(30)
        self._big = rng.random(400_000)
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self._pending: list[float] = []
        self._scaled_total = 0.0
        self._last = self.probe()

    def _kernel(self) -> float:
        acc = 0.0
        table = {}
        for i in range(20_000):
            acc += abs(i * 0.5 - 3.0)
            table[i & 15] = acc
        for _ in range(160):
            acc += float(np.cumprod(1.0 - self._tiny * 0.5)[-1] * np.power(0.9, 3))
        return acc + float(np.cos(self._big * self._big).sum())

    def probe(self) -> float:
        t0 = perf_counter()
        self._kernel()
        t_ref = perf_counter() - t0
        self.probes.append(t_ref)
        self._t_probe = perf_counter()
        return t_ref

    def add(self, wall_s: float) -> None:
        """Record one timed span; probes again once PROBE_EVERY_S has passed."""
        self._pending.append(wall_s)
        if perf_counter() - self._t_probe >= PROBE_EVERY_S:
            self.flush()

    def total_scaled(self) -> float:
        """Reference seconds recorded so far, the spans not yet probed at the last scale."""
        return self._scaled_total + sum(self._pending) * NOMINAL_S / self._last

    def flush(self) -> None:
        """Probe now and convert the spans recorded since the previous probe."""
        if not self._pending:
            return
        now = self.probe()
        scale = NOMINAL_S / (0.5 * (self._last + now))
        self.raw.extend(self._pending)
        self.scaled.extend(w * scale for w in self._pending)
        self._scaled_total += sum(self._pending) * scale
        self._pending.clear()
        self._last = now
