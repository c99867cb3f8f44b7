"""scripts/reproduce_all.py end to end: every report present, strictly valid, rerun-stable,
and equal to the committed reference in tests/golden.

The reference is compared through scripts/compare_reports.py at its default
--max-abs 1e-12, which absorbs last-bit BLAS differences between hosts; any
flipped verdict or other mismatch fails.  A change that moves the outputs on
purpose regenerates tests/golden with reproduce_all.py in the same commit.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce_all.py"
GOLDEN = ROOT / "tests" / "golden"

EXPECTED = {"selftest.txt"} | {
    f"{base}.{ext}"
    for base in (
        "korovkin_classic",
        "korovkin_q-only",
        "moments_p09",
        "moments_p1_degree1",
        "bounds_t32_f_fig",
        "bounds_t33_holder_half",
        "bounds_t34_f_fig",
        "figure_ell0",
        "figure_ell2",
    )
    for ext in ("csv", "json")
}


def reproduce(outdir: Path) -> dict[str, bytes]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(outdir)],
        check=True,
        capture_output=True,
        env=env,
    )
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


def reject_constant(token):
    raise ValueError(f"non-finite {token} in JSON")


def test_reports_complete_strict_and_byte_stable(tmp_path, compare):
    first = reproduce(tmp_path / "a")
    # the drift table is printed, so a failure shows what moved
    assert compare.main([str(GOLDEN), str(tmp_path / "a")]) == 0
    assert set(first) == EXPECTED
    for name, data in first.items():
        text = data.decode("utf-8")
        if name.endswith(".json"):
            json.loads(text, parse_constant=reject_constant)
        elif name.endswith(".csv"):
            for line in text.splitlines()[1:]:
                for cell in line.split(","):
                    assert cell in ("", "true", "false") or math.isfinite(float(cell)), (
                        f"{name}: cell {cell!r}"
                    )
    assert reproduce(tmp_path / "b") == first
