import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_bench.py"


def load():
    spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(median: float, q1: float, q3: float, stage: str = "request") -> dict:
    return {
        "import_peak_rss_mb": 30.0,
        "cases": [
            {"case": "pointwise", "n": 20, "points": 32,
             "stages": {stage: {"median_s": median, "q1_s": q1, "q3_s": q3}}},
            {"case": "theorems_bundle", "n": 16, "grid": 101,
             "stages": {"t32": {"median_s": 2e-3, "spread_s": 1e-3}}},
            {"n": 128, "grid": 101, "stages": {}, "peak_rss_mb": 32.0},
        ],
    }


def test_each_stage_prints_its_ratio_beside_both_spreads(tmp_path, capsys):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(bench(4e-4, 3e-4, 5e-4)))
    new.write_text(json.dumps(bench(2e-4, 1.9e-4, 2.1e-4)))
    assert load().main([str(base), str(new)]) == 0
    lines = {line.split("  ")[0].strip(): line.split() for line in capsys.readouterr().out.splitlines()}
    # ratio new/base, then each side's spread (interquartile, or the process range) over its median
    assert lines["pointwise n=20 points=32 request"][-3:] == ["0.500", "50.0%", "10.0%"]
    assert lines["theorems_bundle n=16 grid=101 t32"][-3:] == ["1.000", "50.0%", "50.0%"]
    assert lines["degree n=128 grid=101 peak_rss_mb"][-1] == "1.000"


def test_a_stage_on_one_side_only_is_listed(tmp_path, capsys):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(bench(4e-4, 3e-4, 5e-4)))
    new.write_text(json.dumps(bench(2e-4, 1.9e-4, 2.1e-4, stage="calls_warm")))
    assert load().main([str(base), str(new)]) == 0
    out = capsys.readouterr().out
    assert "only in base: pointwise n=20 points=32 request" in out
    assert "only in new: pointwise n=20 points=32 calls_warm" in out


def test_the_min_ratio_sits_beside_the_median_ratio_when_both_files_give_min_s(tmp_path, capsys):
    def paced(median: float, fastest: float) -> dict:
        return {"import_peak_rss_mb": 30.0, "cases": [
            {"case": "pointwise", "n": 20, "points": 32, "stages": {"calls_warm": {
                "median_s": median, "spread_s": median / 10, "min_s": fastest}}}]}

    base, new, older = tmp_path / "base.json", tmp_path / "new.json", tmp_path / "older.json"
    base.write_text(json.dumps(paced(4e-4, 2e-4)))
    new.write_text(json.dumps(paced(2e-4, 1.5e-4)))
    older.write_text(json.dumps(bench(4e-4, 3e-4, 5e-4, stage="calls_warm")))
    name = "pointwise n=20 points=32 calls_warm"
    module = load()
    assert module.main([str(base), str(new)]) == 0
    rows = {line.split("  ")[0].strip(): line.split() for line in capsys.readouterr().out.splitlines()}
    assert rows[name][-4:] == ["0.500", "0.750", "10.0%", "10.0%"]
    # an older file has no min_s: the median ratio alone, the min column left blank
    assert module.main([str(older), str(new)]) == 0
    rows = {line.split("  ")[0].strip(): line.split() for line in capsys.readouterr().out.splitlines()}
    assert rows[name][-3:] == ["0.500", "50.0%", "10.0%"]


def test_every_committed_bench_file_is_read():
    committed = sorted(SCRIPT.parent.parent.glob("BENCH_*.json"))
    assert committed
    for path in committed:
        stages, rss = load().figures(json.loads(path.read_text(encoding="utf-8")))
        assert stages and "import_peak_rss_mb" in rss, path.name
