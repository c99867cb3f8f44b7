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


def test_a_17_digit_csv_and_a_repr_csv_of_the_same_values_agree(compare, tmp_path, capsys):
    # the CSV dialect changed from %.17g to repr; the values did not
    values = [0.1, 1e16, -2.5e-05, 5e-324, 1.7976931348623157e308, 0.0, 123456789.0, 1 / 3]
    texts = {"a": [f"{v:.17g}" for v in values], "b": [repr(v) for v in values]}
    assert texts["a"] != texts["b"]
    for name, cells in texts.items():
        root = tmp_path / name
        root.mkdir()
        lines = ["x,err,n,passed", *(f"{cell},{cell},{i},true" for i, cell in enumerate(cells))]
        (root / "r.csv").write_text("\n".join(lines) + "\n")
    cmp = compare.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert cmp.cells == 4 * len(values)
    assert set(cmp.drift.values()) == {0.0}
    assert not cmp.flips and not cmp.mismatches
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b"), "--max-abs", "0"]) == 0
    assert "0 flips, 0 mismatches: OK" in capsys.readouterr().out
