import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_reports(root: Path, value: float, passed: bool, verdict: str = "PASS") -> Path:
    root.mkdir()
    (root / "r.csv").write_text(f"x,err,passed\n0.5,{value!r},{'true' if passed else 'false'}\n")
    doc = {"all_passed": passed, "rows": [{"x": 0.5, "err": value}], "max": float("inf")}
    (root / "r.json").write_text(json.dumps(doc))
    (root / "selftest.txt").write_text(f"{verdict} quadrature: max_err={value:.3e}\n")
    return root


def test_identical_directories_pass(compare, tmp_path, capsys):
    a = write_reports(tmp_path / "a", 0.25, True)
    b = write_reports(tmp_path / "b", 0.25, True)
    assert compare.main([str(a), str(b)]) == 0
    assert "0 flips, 0 mismatches: OK" in capsys.readouterr().out


def test_drift_per_column_and_limit(compare, tmp_path, capsys):
    a = write_reports(tmp_path / "a", 0.25, True)
    b = write_reports(tmp_path / "b", 0.25 + 1e-10, True)
    cmp = compare.compare_dirs(a, b)
    assert cmp.drift["r.csv:err"] == pytest.approx(1e-10)
    assert cmp.drift["r.json:rows[].err"] == pytest.approx(1e-10)
    assert cmp.drift["r.json:max"] == 0.0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(b), "--max-abs", "1e-9"]) == 0
    capsys.readouterr()


def test_flips_and_mismatches_fail(compare, tmp_path, capsys):
    a = write_reports(tmp_path / "a", 0.25, True)
    b = write_reports(tmp_path / "b", 0.25, False, verdict="FAIL")
    cmp = compare.compare_dirs(a, b)
    assert len(cmp.flips) == 3  # CSV cell, JSON flag, selftest verdict
    assert not cmp.mismatches
    (b / "extra.csv").write_text("x\n1\n")
    assert any("only in the new" in m for m in compare.compare_dirs(a, b).mismatches)
    assert compare.main([str(a), str(b), "--max-abs", "1"]) == 1
    capsys.readouterr()
